// Quickstart: deploy a small vector database into a simulated REIS
// device and retrieve documents for one query.
//
//	go run ./examples/quickstart
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
	// 1. Build a corpus. In a real pipeline these would be text-chunk
	// embeddings from an encoder model; here the deterministic
	// synthetic generator stands in.
	data := dataset.Generate(dataset.Config{
		Name: "quickstart", N: 2000, Dim: 256, Clusters: 20,
		Queries: 1, DocBytes: 512, Seed: 7,
	})

	// 2. Index offline (the RAG indexing stage): k-means clustering
	// for the Inverted File layout.
	centroids, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 20, Seed: 7})

	// 3. Create a simulated cost-oriented SSD (REIS-SSD1 preset,
	// shrunk capacity) and deploy with the IVF_Deploy API command.
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	engine, err := reis.New(cfg, 256<<20, reis.AllOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512,
		Centroids: centroids, Assign: assign,
	}}); err != nil {
		log.Fatal(err)
	}

	// 4. Search in storage with the IVF_Search command: the query
	// embedding goes to the device, relevant document chunks come back.
	resp, err := engine.Submit(reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: data.Queries[:1], K: 3,
		Opt: reis.SearchOptions{NProbe: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, stats := resp.Results[0], resp.QueryStats[0]
	fmt.Println("top documents:")
	for i, r := range results {
		fmt.Printf("  %d. id=%d dist=%.0f %q...\n", i+1, r.ID, r.Dist, r.Doc[:40])
	}

	// 5. Inspect what the device did and what it would cost at this
	// workload's size.
	db, _ := engine.DB(1)
	bd := engine.Latency(db, stats, reis.UnitScale())
	fmt.Printf("\ndevice events: %d pages sensed, %d embeddings distance-checked, %d survived filtering\n",
		stats.CoarsePages+stats.FinePages, stats.EntriesScanned, stats.Survivors)
	fmt.Printf("modeled latency: %v, energy: %.1f uJ\n", bd.Total, bd.EnergyJ*1e6)
}
