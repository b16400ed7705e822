// Multidb: several domain-specific databases coexisting on one device
// (the scenario of Sec 3.2 — medical/legal/finance corpora that defeat
// cross-domain batching), plus the metadata-filtering extension of
// Sec 7.1 used for freshness-windowed retrieval.
//
//	go run ./examples/multidb
package main

import (
	"fmt"
	"log"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/ssd"
)

func main() {
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 32
	cfg.Geo.PagesPerBlock = 16
	engine, err := reis.New(cfg, 1<<30, reis.AllOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Deploy three isolated domain databases. The R-DB coarse-grained
	// records keep them addressable without any page-level FTL.
	domains := []string{"medical", "legal", "finance"}
	corpora := make(map[string]*dataset.Dataset)
	for i, name := range domains {
		data := dataset.Generate(dataset.Config{
			Name: name, N: 1500, Dim: 256, Clusters: 12,
			Queries: 2, DocBytes: 512, Seed: uint64(100 + i),
		})
		corpora[name] = data
		cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 12, Seed: uint64(i)})

		// Tag each entry with a pseudo "timestamp bucket" (hour of
		// ingestion mod 4) for metadata filtering.
		tags := make([]uint8, data.Len())
		for j := range tags {
			tags[j] = uint8(j % 4)
		}
		if _, err := engine.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
			ID: i + 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512,
			Centroids: cents, Assign: assign, MetaTags: tags,
		}}); err != nil {
			log.Fatalf("deploy %s: %v", name, err)
		}
		fmt.Printf("deployed %-8s as database %d (%d entries)\n", name, i+1, data.Len())
	}

	// Route a query to each domain database through the host-command
	// interface — DBID is the routing operand, exactly as a driver
	// multiplexing tenants over one device would submit it.
	for i, name := range domains {
		data := corpora[name]
		resp, err := engine.Submit(reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: i + 1,
			Queries: data.Queries[:1], K: 2, Opt: reis.SearchOptions{NProbe: 4},
		})
		if err != nil {
			log.Fatal(err)
		}
		results := resp.Results[0]
		fmt.Printf("\n%s query -> %d hits:\n", name, len(results))
		for _, r := range results {
			fmt.Printf("  id=%-5d %q...\n", r.ID, r.Doc[:32])
		}
	}

	// Metadata filtering: restrict the medical search to timestamp
	// bucket 2, as a real-time pipeline would restrict to a freshness
	// window (Sec 7.1). The filter rides in the command's search
	// options.
	bucket := uint8(2)
	resp, err := engine.Submit(reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1,
		Queries: corpora["medical"].Queries[1:2], K: 3,
		Opt: reis.SearchOptions{NProbe: 8, MetaTag: &bucket},
	})
	if err != nil {
		log.Fatal(err)
	}
	results := resp.Results[0]
	fmt.Printf("\nmedical query restricted to timestamp bucket %d -> %d hits:\n", bucket, len(results))
	for _, r := range results {
		fmt.Printf("  id=%-5d (id mod 4 = %d) %q...\n", r.ID, r.ID%4, r.Doc[:32])
	}
}
