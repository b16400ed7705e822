package experiments

import (
	"fmt"
	"math"
	"strings"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/rivals"
	"reis/internal/ssd"
)

// This file runs the recall-vs-model-latency frontier — the repo's
// headline comparison, reproducing the shape of the paper's rival
// evaluation. Live HNSW/LSH/PQ-IVF indexes (internal/ann) are built
// over the same corpus the flash engine deploys; the identical query
// set runs through every system; recall is measured functionally and
// latency is costed at paper scale — rivals through the DRAM models
// of internal/rivals on the fixed CPU-Real host, the flash
// engine through its occupancy timing model (pruned, and pruned with
// the DRAM caching tier enabled).
//
// Two latency columns tell the two stories: ServeMs assumes the
// rival's dataset is already resident in DRAM (the rival's best
// case), TotalMs adds the queryBatch-amortized load of the full-scale
// FP32 dataset — the term Sec 3.2 shows dominating CPU serving and
// the one the flash engine never pays.

// frontierScale is the workload scale divisor of the frontier run: a
// fixed corpus small enough that the index builds stay tractable in CI.
const frontierScale = 64

// frontierCacheBudget is ssd.Config.CacheDRAMBytes for the cached
// flash configuration: enough to pin the probed clusters' binary
// pages at functional scale, were any admitted. In-flash scanning
// parallelizes across planes while the controller core does not, so on
// SSD1 the tier admits none (see RunFrontier), and with no repeats on
// this uniform single-pass query set the result cache never fires: the
// cached rows coincide with the pruned curve. The cache's wins live in
// the skewed/repeating, few-plane regime the skew experiment sweeps;
// the frontier rows pin the other half of that claim — the tier costs
// nothing where it cannot help.
const frontierCacheBudget = 1 << 20

// FrontierRow is one operating point of one system on the frontier.
type FrontierRow struct {
	Dataset string `gate:"id"`
	System  string `gate:"id"`
	Param   string `gate:"id"`
	// Recall is Recall@10 measured functionally on the shared corpus
	// and query set.
	Recall float64 `gate:"exact"`
	// ServeMs is the modeled per-query latency at paper scale with
	// the dataset resident (DRAM rivals) or on flash (REIS rows).
	ServeMs float64 `gate:"exact"`
	// TotalMs adds the queryBatch-amortized dataset load for DRAM
	// rivals; for REIS rows it equals ServeMs.
	TotalMs float64 `gate:"exact"`
}

// RunFrontier builds the frontier over wiki_en at frontierScale. Every
// system sweeps its accuracy knob: HNSW the search beam ef, LSH the
// hash width, PQ-IVF and the flash configurations nprobe.
func RunFrontier() ([]FrontierRow, error) {
	w := loadWorkload("wiki_en", frontierScale)
	d := w.Data
	const k = 10
	dram := rivals.DRAMANN{Dim: d.Dim}
	loadSec := dram.LoadSecondsPerQuery(w.paperN(), queryBatch)

	var rows []FrontierRow
	add := func(system, param string, recall, serveSec float64, resident bool) {
		total := serveSec
		if resident {
			total += loadSec
		}
		rows = append(rows, FrontierRow{
			Dataset: w.Name, System: system, Param: param,
			Recall: recall, ServeMs: serveSec * 1e3, TotalMs: total * 1e3,
		})
	}

	// HNSW: hops are measured on the functional graph and stretched by
	// the log of the size ratio — at fixed M and ef the greedy search
	// path length grows logarithmically with N (the index's own
	// scaling argument).
	hnsw := ann.NewHNSW(d.Vectors, ann.HNSWConfig{M: 24, EfConstruction: 160, Seed: 5})
	hopScale := math.Log(float64(w.paperN())) / math.Log(float64(d.Len()))
	for _, ef := range []int{16, 64, 256} {
		hnsw.SetEfSearch(ef)
		hnsw.HopCount = 0
		_, recall := measureSearcher(d, hnsw, k)
		hops := float64(hnsw.HopCount) / float64(len(d.Queries))
		add("HNSW", fmt.Sprintf("ef=%d", ef), recall, dram.HNSWSeconds(hops*hopScale), true)
	}

	// LSH: at a fixed hash width the per-bucket occupancy — and so the
	// rescored candidate union — grows linearly with N; scaling the
	// measured candidate count by the brute-force scale keeps the scanned fraction
	// of the database fixed (the fixed-structure extrapolation). More
	// bits means smaller buckets: fewer candidates, lower recall.
	const lshTables = 16
	for _, bits := range []int{16, 14, 12} {
		lsh := ann.NewLSH(d.Vectors, ann.LSHConfig{Tables: lshTables, Bits: bits, Seed: 5})
		_, recall := measureSearcher(d, lsh, k)
		var cand float64
		for _, q := range d.Queries {
			cand += float64(lsh.CandidateCount(q))
		}
		cand /= float64(len(d.Queries))
		add("LSH", fmt.Sprintf("bits=%d", bits), recall, dram.LSHSeconds(cand*w.BF.Fine, lshTables), true)
	}

	// PQ-IVF: probed-list candidates extrapolate exactly like the
	// engine's own IVF fine scan (the workload's IVF scale — cluster-size
	// ratio times the sqrt nprobe-retuning term), and the coarse scan covers the
	// paper's full nlist.
	nlist := max(8, isqrt(d.Len()))
	const pqM, pqKS = 16, 64
	pqivf := ann.NewPQIVF(d.Vectors,
		ann.IVFConfig{NList: nlist, Seed: 5},
		ann.PQConfig{M: pqM, KS: pqKS, Seed: 5, TrainIters: 6})
	for _, nprobe := range []int{1, 2, 4, 8} {
		np := nprobe
		_, recall := measureSearcher(d, searchFunc(func(q []float32, kk int) []ann.Result {
			return pqivf.SearchNProbe(q, kk, np)
		}), k)
		cand := float64(d.Len()) * float64(np) / float64(nlist) * w.IVF.Fine
		add("PQ-IVF", fmt.Sprintf("np=%d", np), recall, dram.PQSeconds(cand, pqM, pqKS, paperNList), true)
	}

	// Flash configurations: the same corpus deployed on REIS-SSD1,
	// searched with threshold pruning, without and with the DRAM
	// caching tier. Recall comes from the functional results, latency
	// from the occupancy timing model at the IVF scale. With the cache, two
	// warm-up passes build the probe counters, so the measured pass meets
	// whatever the tier chose to pin. On SSD1 that is nothing: 1 to 8
	// clusters are one wave on 256 planes, pin admission (reis
	// dbCache.refresh) shuts, and the cached row lands on the pruned row —
	// before admission it sat 6 to 14 times above it, serialising on the
	// core scans the planes do in one wave. The result cache serves an
	// exact repeat of a command without running it, so no pass may repeat
	// another's commands: a repeated warm-up would probe nothing, a
	// repeated measurement would be served for free. The passes differ in
	// operands the result key covers and the probes do not — the warm-ups
	// return documents, pruned then unpruned; the measured pass skips them.
	cachedSSD := ssd.SSD1()
	cachedSSD.CacheDRAMBytes = frontierCacheBudget
	for s, err := range setups(w, reis.AllOptions(), []ssd.Config{ssd.SSD1(), cachedSSD}, 1) {
		if err != nil {
			return nil, err
		}
		system, cached := "REIS-pruned", s.Cfg.CacheDRAMBytes > 0
		if cached {
			system = "REIS-pruned+cached"
		}
		for _, nprobe := range []int{1, 2, 4, 8} {
			cmd := reis.HostCommand{Opcode: reis.OpcodeIVFSearch, DBID: 1, K: k}
			if cached {
				for _, prune := range []bool{true, false} {
					cmd.Opt = reis.SearchOptions{NProbe: nprobe, Prune: prune}
					for qi := range d.Queries {
						cmd.Queries = d.Queries[qi : qi+1]
						if _, err := s.Submit(cmd); err != nil {
							return nil, err
						}
					}
				}
			}
			cmd.Opt = reis.SearchOptions{NProbe: nprobe, Prune: true, SkipDocs: true}
			got := make([][]int, len(d.Queries))
			var serveSec float64
			for qi := range d.Queries {
				cmd.Queries = d.Queries[qi : qi+1]
				resp, err := s.Submit(cmd)
				if err != nil {
					return nil, err
				}
				ids := make([]int, len(resp.Results[0]))
				for i, r := range resp.Results[0] {
					ids[i] = r.ID
				}
				got[qi] = ids
				serveSec += s.price(resp.QueryStats[0], nil, w.IVF).Total.Seconds()
			}
			add(system, fmt.Sprintf("np=%d", nprobe), dataset.Recall(d.GroundTruth, got, k),
				serveSec/float64(len(d.Queries)), false)
		}
	}
	return rows, nil
}

// FormatFrontier renders the frontier table.
func FormatFrontier(rows []FrontierRow) string {
	var sb strings.Builder
	sb.WriteString("Recall vs model latency: DRAM-side ANN rivals vs the flash engine (wiki_en, paper scale)\n")
	fmt.Fprintf(&sb, "%-10s %-18s %-10s %7s %12s %12s\n",
		"dataset", "system", "param", "recall", "serve ms", "total ms")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-18s %-10s %7.3f %12.4f %12.4f\n",
			r.Dataset, r.System, r.Param, r.Recall, r.ServeMs, r.TotalMs)
	}
	return sb.String()
}
