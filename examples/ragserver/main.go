// Ragserver: an HTTP retrieval service backed by the in-storage
// engine — the serving tier a RAG pipeline would put in front of REIS,
// now built on the internal/serve replica group and gateway.
//
// The corpus is deployed onto -replicas identical hosts (each a single
// simulated device, or a -shards page-striped set of them). Every
// request is routed to one replica by power-of-two-choices over queue
// occupancy, fails over when a replica's queue saturates, and mutation
// commands would broadcast to all replicas — so responses are
// bit-identical no matter how many replicas serve them. The gateway
// layers a middleware chain on top: request IDs, optional bearer auth,
// per-tenant rate limiting, per-route metrics, NDJSON streaming for
// batches, 503 + Retry-After backpressure, and graceful drain on
// SIGINT/SIGTERM (stop admitting, finish in-flight, close the group).
//
//	go run ./examples/ragserver -addr :8080 -replicas 3 -shards 2
//	curl 'localhost:8080/search?q=17&k=3'            (q = sample query index)
//	curl -N 'localhost:8080/search/stream?q=1,2,3'   (NDJSON, per-query flush)
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/healthz'
//
// Because the device is simulated, queries are addressed by index into
// a held-out sample set rather than by free text (there is no encoder
// model in this repository).
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/serve"
	"reis/internal/ssd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	n := flag.Int("n", 8000, "corpus size")
	qdepth := flag.Int("qdepth", 64, "per-replica queue depth (concurrent request budget)")
	replicas := flag.Int("replicas", 1, "replica hosts (each holds the full corpus)")
	shards := flag.Int("shards", 1, "simulated devices per replica (page-striped, each scanned in place)")
	auth := flag.String("auth", "", "bearer token required on search routes (empty disables auth)")
	rate := flag.Float64("rate", 0, "per-tenant request rate limit in req/s (0 disables)")
	burst := flag.Int("burst", 0, "rate-limit burst (default: ceil(rate))")
	flag.Parse()

	data := dataset.Generate(dataset.Config{
		Name: "ragserver", N: *n, Dim: 384, Clusters: 48,
		Queries: 256, DocBytes: 768, Seed: 21,
	})
	cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 48, Seed: 21})
	cfg := ssd.SSD2()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	hint := int64(*n)*384*16 + 128<<20

	hosts := make([]serve.Host, *replicas)
	for i := range hosts {
		var err error
		if *shards > 1 {
			hosts[i], err = reis.NewSharded(cfg, *shards, hint, reis.AllOptions())
		} else {
			hosts[i], err = reis.New(cfg, hint, reis.AllOptions())
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	group, err := serve.NewGroup(hosts, serve.Config{QueueDepth: *qdepth})
	if err != nil {
		log.Fatal(err)
	}
	// Deploy through the group: the command broadcasts to every
	// replica under the mutation barrier, so all members hold
	// bit-identical state from the start.
	if _, err := group.Submit(reis.HostCommand{
		Opcode: reis.OpcodeIVFDeploy,
		Deploy: &reis.DeployConfig{
			ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 1024,
			Centroids: cents, Assign: assign,
		},
	}); err != nil {
		log.Fatal(err)
	}

	gw := serve.NewGateway(group, serve.GatewayConfig{
		Queries: data.Queries, DefaultK: 5, NProbe: 6,
		AuthToken: *auth, RateLimit: *rate, RateBurst: *burst,
	})
	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	log.Printf("ragserver: %d docs on %d replica(s) x %d device(s) (%s); queue depth %d; listening on %s",
		*n, *replicas, *shards, cfg.Name, *qdepth, *addr)

	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	// Graceful drain: stop accepting, let the gateway finish in-flight
	// requests, then close the replica group.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("ragserver: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if err := gw.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Print("ragserver: drained, bye")
}
