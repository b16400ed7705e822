// Command reisctl demonstrates the REIS host API (Table 1) against a
// simulated device: it generates a synthetic corpus, deploys it with
// IVF_Deploy, issues an IVF_Search command through an asynchronous
// NVMe-style queue pair (submission + polled completion), and prints
// the retrieved document chunks with per-query device statistics.
// With -shards N the same flow runs against a sharded topology of N
// devices (results are bit-identical; see DESIGN.md).
//
// With -churn the tool then exercises online mutability end to end:
// it appends the query vectors themselves as new documents (each query
// must now retrieve its own appended chunk first), tombstones them
// again (they must vanish), and runs the garbage collector, printing
// the wear/erase accounting and verifying results survive compaction
// bit for bit.
//
// With -replicas N the corpus is instead deployed onto a replica group
// (broadcast under the mutation barrier), each query is routed to one
// member by power-of-two-choices over queue occupancy, and every
// replica is then probed directly to show the group's determinism
// contract: identical answers no matter which member serves them.
//
//	reisctl -n 4000 -queries 5 -k 3 -nprobe 8 -qdepth 16 -shards 2
//	reisctl -n 3000 -queries 4 -churn
//	reisctl -n 3000 -queries 6 -replicas 3 -churn
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"sync"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/serve"
	"reis/internal/ssd"
)

// retrievalHost is the API surface reisctl drives, served identically
// by a single device (reis.Engine) and the sharded router
// (reis.ShardedEngine).
type retrievalHost interface {
	Submit(reis.HostCommand) (reis.HostResponse, error)
	NewQueue(reis.QueueConfig) (*reis.Queue, error)
}

// submitHost is the narrower surface the churn demo needs; the replica
// group serves it too (mutations broadcast to every member).
type submitHost interface {
	Submit(reis.HostCommand) (reis.HostResponse, error)
}

func main() {
	n := flag.Int("n", 4000, "database entries")
	dim := flag.Int("dim", 256, "embedding dimensionality")
	queries := flag.Int("queries", 5, "queries to issue")
	k := flag.Int("k", 3, "documents per query")
	nprobe := flag.Int("nprobe", 8, "IVF clusters probed")
	device := flag.String("device", "ssd1", "device preset (ssd1|ssd2)")
	qdepth := flag.Int("qdepth", 16, "submission queue depth")
	shards := flag.Int("shards", 1, "simulated devices the database is page-striped over (each scanned in place)")
	replicas := flag.Int("replicas", 1, "replica hosts; searches route by queue occupancy when > 1")
	churn := flag.Bool("churn", false, "demo online mutability: append, delete, compact")
	flag.Parse()

	cfg := ssd.SSD1()
	if *device == "ssd2" {
		cfg = ssd.SSD2()
	}
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	if *churn {
		// Reserve append/GC headroom so deployed regions can grow.
		cfg.OverprovisionPct = 100
	}

	log.Printf("generating %d x %d-dim corpus...", *n, *dim)
	data := dataset.Generate(dataset.Config{
		Name: "reisctl", N: *n, Dim: *dim, Clusters: 32,
		Queries: *queries, DocBytes: 512, Seed: 1,
	})
	cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 32, Seed: 1})

	hint := int64(*n)*int64(*dim)*16 + 64<<20
	if *replicas > 1 {
		runReplicated(cfg, data, cents, assign, hint, *replicas, *shards, *qdepth, *k, *nprobe, *churn)
		return
	}
	var host retrievalHost
	var sharded *reis.ShardedEngine
	var engine *reis.Engine
	if *shards > 1 {
		sh, err := reis.NewSharded(cfg, *shards, hint, reis.AllOptions())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("deploying database across %d x %s (%d planes total)...",
			*shards, cfg.Name, *shards*cfg.Geo.Planes())
		host, sharded = sh, sh
	} else {
		e, err := reis.New(cfg, hint, reis.AllOptions())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("deploying database on %s (%d planes, %d channels)...",
			cfg.Name, cfg.Geo.Planes(), cfg.Geo.Channels)
		host, engine = e, e
	}
	if _, err := host.Submit(reis.HostCommand{
		Opcode: reis.OpcodeIVFDeploy,
		Deploy: &reis.DeployConfig{
			ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512,
			Centroids: cents, Assign: assign,
		},
	}); err != nil {
		log.Fatal(err)
	}

	// Search through an asynchronous queue pair: submit the batched
	// IVF_Search command, then poll the completion side — the NVMe
	// submission/completion flow a real host driver performs.
	queue, err := host.NewQueue(reis.QueueConfig{Depth: *qdepth})
	if err != nil {
		log.Fatal(err)
	}
	defer queue.Close()
	id, err := queue.SubmitAsync(context.Background(), reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1,
		Queries: data.Queries, K: *k, NProbe: *nprobe,
	})
	if err != nil {
		log.Fatal(err)
	}
	var resp reis.HostResponse
	for {
		cs := queue.Reap(1)
		if len(cs) == 0 {
			runtime.Gosched() // completion pending; poll again
			continue
		}
		if cs[0].ID != id {
			log.Fatalf("reaped completion %d, submitted %d", cs[0].ID, id)
		}
		if cs[0].Err != nil {
			log.Fatal(cs[0].Err)
		}
		resp = cs[0].Resp
		break
	}
	printHits(resp.Results)
	st := resp.Stats
	fmt.Printf("\nbatch device stats: %d pages sensed (%d coarse, %d fine), %d entries scanned, %d TTL survivors, %d doc pages\n",
		st.CoarsePages+st.FinePages, st.CoarsePages, st.FinePages,
		st.EntriesScanned, st.Survivors, st.DocPages)
	// The command above served the batch through the concurrent plane
	// pipeline and returned per-query device events; cost them with
	// the single-query and batch-overlap timing models.
	var bd reis.Breakdown
	var bb reis.BatchBreakdown
	if sharded != nil {
		if bd, err = sharded.Latency(1, resp.QueryStats[0], resp.ShardStats(0), reis.UnitScale()); err != nil {
			log.Fatal(err)
		}
		if bb, err = sharded.BatchLatency(1, resp.QueryStats, resp.PerShard, reis.UnitScale()); err != nil {
			log.Fatal(err)
		}
	} else {
		db, err := engine.DB(1)
		if err != nil {
			log.Fatal(err)
		}
		bd = engine.Latency(db, resp.QueryStats[0], reis.UnitScale())
		bb = engine.BatchLatency(db, resp.QueryStats, reis.UnitScale())
	}
	fmt.Printf("modeled per-query latency on %dx %s: %v (IBC %v, coarse %v, fine %v, rerank %v, docs %v), %.1f uJ\n",
		*shards, cfg.Name, bd.Total, bd.IBC, bd.Coarse, bd.Fine, bd.Rerank, bd.Docs, bd.EnergyJ*1e6)
	fmt.Printf("batched admission: %d queries in %v makespan (%.0f QPS, %.2fx over one-at-a-time)\n",
		bb.Queries, bb.Makespan, bb.QPS, bb.Serial.Seconds()/bb.Makespan.Seconds())

	if *churn {
		runChurn(host, data, cents, *k, *nprobe)
	}
}

// printHits renders one batch's retrieved chunks.
func printHits(results [][]reis.DocResult) {
	for qi, rs := range results {
		fmt.Printf("query %d:\n", qi)
		for rank, r := range rs {
			header := r.Doc
			if len(header) > 48 {
				header = header[:48]
			}
			fmt.Printf("  #%d id=%-6d dist=%-8.0f %q\n", rank+1, r.ID, r.Dist, header)
		}
	}
}

// runReplicated is the -replicas demo: deploy onto a replica group
// (one broadcast under the mutation barrier), route each query to a
// member by power-of-two-choices over queue occupancy, then probe
// every replica directly to show all members answer identically.
func runReplicated(cfg ssd.Config, data *dataset.Dataset, cents [][]float32, assign []int,
	hint int64, replicas, shards, qdepth, k, nprobe int, churn bool) {
	hosts := make([]serve.Host, replicas)
	for i := range hosts {
		var err error
		if shards > 1 {
			hosts[i], err = reis.NewSharded(cfg, shards, hint, reis.AllOptions())
		} else {
			hosts[i], err = reis.New(cfg, hint, reis.AllOptions())
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	group, err := serve.NewGroup(hosts, serve.Config{QueueDepth: qdepth})
	if err != nil {
		log.Fatal(err)
	}
	defer group.Close()
	log.Printf("deploying database onto %d replica(s) x %d device(s) (%s; one broadcast)...",
		replicas, shards, cfg.Name)
	if _, err := group.Submit(reis.HostCommand{
		Opcode: reis.OpcodeIVFDeploy,
		Deploy: &reis.DeployConfig{
			ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512,
			Centroids: cents, Assign: assign,
		},
	}); err != nil {
		log.Fatal(err)
	}

	// Route each query as its own command: concurrent submitters keep
	// queue occupancies uneven, so the router has choices to make.
	results := make([][]reis.DocResult, len(data.Queries))
	var wg sync.WaitGroup
	for qi, q := range data.Queries {
		wg.Add(1)
		go func(qi int, q []float32) {
			defer wg.Done()
			resp, err := group.Do(context.Background(), reis.HostCommand{
				Opcode: reis.OpcodeIVFSearch, DBID: 1,
				Queries: [][]float32{q}, K: k, NProbe: nprobe,
			})
			if err != nil {
				log.Fatal(err)
			}
			results[qi] = resp.Results[0]
		}(qi, q)
	}
	wg.Wait()
	printHits(results)
	st := group.Stats()
	fmt.Printf("\ngroup stats: %d routed, %d failovers, %d rejected, %d retirements, %d broadcasts\n",
		st.Routed, st.Failovers, st.Rejected, st.Retirements, st.Broadcasts)

	// The determinism contract: every member, probed directly, returns
	// the routed answers bit for bit.
	batch := reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1,
		Queries: data.Queries, K: k, NProbe: nprobe,
	}
	for i := 0; i < group.Replicas(); i++ {
		resp, err := group.Host(i).Submit(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica %d matches routed results bit for bit: %v\n",
			i, reflect.DeepEqual(resp.Results, results))
	}

	if churn {
		// Mutations broadcast to every replica under the barrier, so
		// the same churn script drives the whole group.
		runChurn(group, data, cents, k, nprobe)
	}
}

// runChurn drives the online-mutability opcodes end to end: append
// the query vectors as new documents, verify each query now retrieves
// its own appended chunk, tombstone them again, and compact —
// checking that results survive garbage collection bit for bit.
func runChurn(host submitHost, data *dataset.Dataset, cents [][]float32, k, nprobe int) {
	fmt.Println("\n-- online churn: append / delete / compact --")
	search := func() reis.HostResponse {
		resp, err := host.Submit(reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 1,
			Queries: data.Queries, K: k, NProbe: nprobe,
		})
		if err != nil {
			log.Fatal(err)
		}
		return resp
	}
	// Append each query vector as a fresh document, assigned to its
	// nearest centroid (the centroid set is immutable).
	docs := make([][]byte, len(data.Queries))
	assign := make([]int, len(data.Queries))
	for i, q := range data.Queries {
		docs[i] = fmt.Appendf(nil, "LIVE UPDATE %d: appended after deployment", i)
		assign[i] = ann.NearestCentroid(cents, q)
	}
	resp, err := host.Submit(reis.HostCommand{
		Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: data.Queries, Docs: docs, Assign: assign},
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := resp.AppendedIDs
	fmt.Printf("appended %d items (ids %d..%d), %d pages programmed\n",
		len(ids), ids[0], ids[len(ids)-1], resp.Wear.PagesProgrammed)
	hits := 0
	for qi, results := range search().Results {
		if len(results) > 0 && results[0].ID == ids[qi] {
			hits++
		}
	}
	fmt.Printf("appended chunks retrieved first for %d/%d queries\n", hits, len(ids))

	// Retract the appended items plus a third of the base corpus, so
	// live ratios actually drop below the GC threshold.
	del := append([]int{}, ids...)
	for id := 0; id < data.Len(); id += 3 {
		del = append(del, id)
	}
	if _, err := host.Submit(reis.HostCommand{
		Opcode: reis.OpcodeDelete, DBID: 1, Del: &reis.DeleteConfig{IDs: del},
	}); err != nil {
		log.Fatal(err)
	}
	tomb := make(map[int]bool, len(del))
	for _, id := range del {
		tomb[id] = true
	}
	before := search()
	for _, results := range before.Results {
		for _, r := range results {
			if tomb[r.ID] {
				log.Fatalf("deleted id %d surfaced", r.ID)
			}
		}
	}
	fmt.Printf("deleted %d items (%d appended + every 3rd base doc); none surface in a re-search\n",
		len(del), len(ids))

	resp, err = host.Submit(reis.HostCommand{
		Opcode: reis.OpcodeCompact, DBID: 1, Compact: &reis.CompactConfig{MinLiveRatio: 0.9},
	})
	if err != nil {
		log.Fatal(err)
	}
	w := resp.Wear
	fmt.Printf("compacted %d GC rows: %d live entries copied forward, %d pages read, %d programmed, %d freed, %d block erases (max wear %d)\n",
		w.CompactedRows, w.CopiedEntries, w.PagesRead, w.PagesProgrammed, w.FreedPages, w.BlockErases, w.MaxBlockErase)
	after := search()
	fmt.Printf("results identical across compaction: %v\n", reflect.DeepEqual(after.Results, before.Results))
}
