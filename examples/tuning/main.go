// Tuning: sweep the recall/latency trade-off of the in-storage IVF
// search — the calibration loop behind the paper's "sweeping the
// accuracy of IVF from 0.98 down to 0.9 Recall@10".
//
//	go run ./examples/tuning
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
	// QueryNoise 0.6 puts queries between topics so the sweep actually
	// trades recall for probes (easy queries saturate at nprobe=1).
	data := dataset.Generate(dataset.Config{
		Name: "tuning", N: 4000, Dim: 256, Clusters: 32,
		Queries: 24, DocBytes: 256, QueryNoise: 0.6, Seed: 33,
	})
	// Index with more cells than generator topics (as a sqrt(N)-sized
	// nlist would) so true neighbors straddle cell boundaries and the
	// recall/probe trade-off is visible.
	cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 96, Seed: 33})
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	// The DRAM caching tier is on, so the run can show what it decided.
	cfg.CacheDRAMBytes = 1 << 20
	engine, err := reis.New(cfg, 512<<20, reis.AllOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 256,
		Centroids: cents, Assign: assign,
	}}); err != nil {
		log.Fatal(err)
	}
	db, err := engine.DB(1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("nprobe  recall@10  scanned  survivors  batch-makespan")
	for _, nprobe := range []int{1, 2, 4, 8, 16, 32, 96} {
		// One batched IVF_Search host command per operating point — the
		// same admission path the async queue pair and the serving tier
		// use, with results bit-identical to sequential calls.
		resp, err := engine.Submit(reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: data.Queries,
			K: 10, Opt: reis.SearchOptions{NProbe: nprobe, SkipDocs: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		got := make([][]int, len(resp.Results))
		for qi, res := range resp.Results {
			ids := make([]int, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			got[qi] = ids
		}
		recall := dataset.Recall(data.GroundTruth, got, 10)
		n := len(data.Queries)
		bb := engine.BatchLatency(db, resp.QueryStats, reis.UnitScale())
		fmt.Printf("%5d %9.3f %8d %10d %14v\n",
			nprobe, recall, resp.Stats.EntriesScanned/n, resp.Stats.Survivors/n, bb.Makespan)
	}

	// Why nothing was pinned: the tier admits a hot cluster only when the
	// timing model says scanning it from DRAM beats the planes, and on
	// SSD1's 256 planes even the 96-cluster probe — one page a cluster — is
	// a single wave, which no pin can shorten. What the pins do not hold
	// of CacheDRAMBytes — here all of it — is the result cache's.
	cs, err := engine.CacheStats(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("caching tier: wave gate shut on %d of %d IVF commands; %d pages filled, %d evicted, %d bytes pinned\n",
		cs.GateShut, cs.Refreshes, cs.PinFills, cs.PinEvictions, cs.PinnedBytes)
	fmt.Printf("caching tier: %d results in %d of %d bytes; %d lookups hit, %d missed, %d evicted (%d by pins)\n",
		cs.ResultEntries, cs.ResultBytes, cfg.CacheDRAMBytes, cs.ResultHits, cs.ResultMisses, cs.ResultEvictions, cs.ResultSqueezes)

	// The automatic calibration the experiments use, and the resulting
	// TargetRecall operand: once calibrated, a host command can carry
	// the accuracy target R instead of an explicit nprobe and the
	// device resolves it.
	for _, target := range []float64{0.90, 0.95} {
		nprobe, err := engine.CalibrateNProbe(1, data.Queries, data.GroundTruth, 10, target)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := engine.Submit(reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: data.Queries,
			K: 10, TargetRecall: target, Opt: reis.SearchOptions{SkipDocs: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("calibrated nprobe for Recall@10 >= %.2f: %d (%d results via TargetRecall operand)\n",
			target, nprobe, len(resp.Results))
	}
}
