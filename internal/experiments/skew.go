package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/ssd"
	"reis/internal/xrand"
)

// SkewRow is one point of the DRAM-caching-tier sweep: a Zipf query
// skew s served on a device at a cache budget, against the budget-0
// baseline of the same command script. HitRate counts result-cache hits
// over all issued queries; FinePages/CachedPages split the mean
// per-query fine scan between flash and pinned DRAM copies (on
// result-cache misses they sum to BaseFinePages, the uncached run's mean
// — the page partition the engine tests pin per query, re-checked per
// command by RunSkew itself).
type SkewRow struct {
	Dataset string `gate:"id"`
	// Device names the device (skewDevices): REIS-SSD1, whose 256 planes
	// take a whole probe in one wave, so the tier admits no pin there and
	// the result cache has the whole budget; and its four-plane cut, where
	// a probe is two waves, pins pay and results hold what they leave.
	Device string `gate:"id"`
	// S is the Zipf exponent of the query popularity distribution
	// (0 = uniform).
	S float64 `gate:"id"`
	// Budget is ssd.Config.CacheDRAMBytes for this run.
	Budget int64 `gate:"id"`
	// HitRate is result-cache hits / queries issued.
	HitRate float64 `gate:"report"`
	// FinePages / CachedPages / BaseFinePages are mean per-query fine
	// pages from flash, from pinned DRAM, and in the uncached baseline.
	FinePages     float64 `gate:"report"`
	CachedPages   float64 `gate:"report"`
	BaseFinePages float64 `gate:"report"`
	// ModelQPS is queries / summed modeled batch makespan at unit
	// scale; Speedup is ModelQPS over the budget-0 row (1.0 there).
	ModelQPS float64 `gate:"exact"`
	Speedup  float64 `gate:"report"`
	// PinsOnly and ResultsOnly are what each half of the tier is worth
	// alone, as Speedup is for both together. ResultsOnly prices the same
	// run — its hits, from the DRAM its pins left the results — with every
	// miss at its baseline cost: pins do not change results, so that is the
	// run with its pins worth nothing (a tier that pinned nothing would
	// hold more results and hit at least as often: the SSD1 rows at the
	// same budget). PinsOnly is a second run of the script
	// with every issued query nudged by a distinct few ulps — no two
	// queries repeat bit for bit, so the result cache serves none of them,
	// while the clusters they probe, and with them the pins, are those of
	// the exact script — against its own nudged baseline.
	PinsOnly    float64 `gate:"report"`
	ResultsOnly float64 `gate:"report"`
	// ModelShares is the both-halves run's.
	ModelShares
}

// skewDefaultBudget is the default cache budget of the sweep: enough
// to pin every cluster of the skew corpus and hold a working set of
// packed results, the regime the headline speedup is claimed in.
const skewDefaultBudget = 4 << 20

// skewS and skewBudgets are the default sweep axes.
var (
	skewS       = []float64{0, 0.8, 1.2}
	skewBudgets = []int64{0, 512 << 10, skewDefaultBudget}
)

// The skew corpus and script. The corpus is small enough to run
// functionally but large enough that clusters span distinct binary
// pages; the script interleaves bursty churn (appends that are deleted
// the following round — every mutation drops the caches) with batched
// searches whose query indices follow a Zipf draw over a fixed query
// set, so repeats inside a round can hit the result cache and hot
// clusters accumulate probe counts.
const (
	skewN        = 4000 // 3600 deployed + 400 append pool
	skewBase     = 3600
	skewDim      = 128
	skewClusters = 64
	skewQueries  = 400
	skewRounds   = 8
	skewCmds     = 6  // search commands per round
	skewBatch    = 32 // queries per search command
	skewNProbe   = 8
	skewK        = 10
)

// skewWorkload generates the shared corpus: deployed base, append
// pool, and KMeans cluster structure over the base.
func skewWorkload() (d *dataset.Dataset, cents [][]float32, assign []int) {
	d = dataset.Generate(dataset.Config{
		Name: "skew", N: skewN, Dim: skewDim, Clusters: skewClusters,
		Queries: skewQueries, DocBytes: 64, Seed: 0xCAFE,
	})
	cents, assign = ann.KMeans(d.Vectors[:skewBase], ann.KMeansConfig{K: skewClusters, Seed: 7})
	return d, cents, assign
}

// skewDevice is one device of the sweep.
type skewDevice struct {
	name string
	cfg  ssd.Config
}

// skewDevices are REIS-SSD1 and SSD1 cut to one channel of two dies —
// four planes, every timing constant and the page unchanged — the
// few-plane end of the Sec 3.2 asymmetry: the sweep's 8-cluster probe is
// one wave on the first and two on the second.
func skewDevices() []skewDevice {
	few := ssd.SSD1()
	few.Geo.Channels, few.Geo.DiesPerChannel = 1, 2
	return []skewDevice{{"SSD1", ssd.SSD1()}, {fmt.Sprintf("SSD1/%dp", few.Geo.Planes()), few}}
}

// skewRun is one (device, s, budget) script execution: per-command
// stats and results for the baseline cross-check, plus the accumulated
// totals.
type skewRun struct {
	stats    [][]reis.QueryStats
	results  [][][]reis.DocResult
	queries  int
	hits     int
	fine     int
	cached   int
	use      clockUse
	modelSec float64
	// resultsOnlySec is modelSec with every result-cache miss priced at
	// the baseline's stats for the same query.
	resultsOnlySec float64
}

// nudged returns q moved by a distinct few ulps per issue: a different
// result-cache key every time, the same binary code (a sign flip of a
// near-zero first coordinate aside) and so the same probed clusters.
func nudged(q []float32, issue int) []float32 {
	out := append([]float32(nil), q...)
	out[0] += float32(issue) * (1.0 / (1 << 22))
	return out
}

// runSkewScript executes the churn+search script on a fresh device at
// the given cache budget. The RNG seeds depend only on s, so every
// device and budget of a sweep point sees the identical command sequence
// and the runs are comparable command for command. nudge issues every
// query through nudged; base, when given, is the budget-0 run of the same
// script, against which the run is checked (checkSkewPartition) and its
// results-only makespan priced.
func runSkewScript(d *dataset.Dataset, cents [][]float32, assign []int, cfg ssd.Config, s float64, budget int64, nudge bool, base *skewRun) (*skewRun, error) {
	// The churn bursts append into reserved tail capacity (deleted
	// entries tombstone in place until a compaction), so the deployment
	// needs overprovision headroom SSD1 does not default to.
	cfg.OverprovisionPct = 200
	cfg.CacheDRAMBytes = budget
	rig, err := deploy(cfg, 1, reis.AllOptions(), reis.DeployConfig{
		ID: 1, Vectors: d.Vectors[:skewBase], Docs: d.Docs[:skewBase],
		DocSlotBytes: docSlot(d), Centroids: cents, Assign: assign,
	})
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	qr := xrand.New(0x5eed ^ math.Float64bits(s))
	cr := qr.Split()
	run := &skewRun{}
	poolIdx := 0
	var prevIDs []int
	for round := 0; round < skewRounds; round++ {
		if round > 0 {
			// Bursty churn: append 4-12 pool items, then delete the
			// previous round's appends. Both mutations atomically drop
			// the result cache and the pinned pages.
			burst := 4 + cr.Intn(9)
			var vecs [][]float32
			var docs [][]byte
			var asg []int
			for i := 0; i < burst; i++ {
				p := skewBase + poolIdx%(skewN-skewBase)
				poolIdx++
				vecs = append(vecs, d.Vectors[p])
				docs = append(docs, d.Docs[p])
				asg = append(asg, ann.NearestCentroid(cents, d.Vectors[p]))
			}
			resp, err := rig.Submit(reis.HostCommand{
				Opcode: reis.OpcodeAppend, DBID: 1,
				Append: &reis.AppendConfig{Vectors: vecs, Docs: docs, Assign: asg},
			})
			if err != nil {
				return nil, err
			}
			if len(prevIDs) > 0 {
				if _, err := rig.Submit(reis.HostCommand{
					Opcode: reis.OpcodeDelete, DBID: 1,
					Del: &reis.DeleteConfig{IDs: prevIDs},
				}); err != nil {
					return nil, err
				}
			}
			prevIDs = append(prevIDs[:0], resp.AppendedIDs...)
		}
		for c := 0; c < skewCmds; c++ {
			queries := make([][]float32, skewBatch)
			for i := range queries {
				queries[i] = d.Queries[qr.Zipf(skewQueries, s)]
				if nudge {
					queries[i] = nudged(queries[i], run.queries+i)
				}
			}
			resp, err := rig.Submit(reis.HostCommand{
				Opcode: reis.OpcodeIVFSearch, DBID: 1,
				Queries: queries, K: skewK,
				Opt: reis.SearchOptions{NProbe: skewNProbe, SkipDocs: true},
			})
			if err != nil {
				return nil, err
			}
			run.stats = append(run.stats, resp.QueryStats)
			run.results = append(run.results, resp.Results)
			run.queries += len(queries)
			run.hits += resp.Stats.ResultCacheHits
			run.fine += resp.Stats.FinePages
			run.cached += resp.Stats.CachedPages
			run.modelSec += rig.use(&run.use, passOf(resp), reis.UnitScale()).Makespan.Seconds()
			mix := resp.QueryStats
			if base != nil {
				mix = append([]reis.QueryStats(nil), mix...)
				for qi := range mix {
					if mix[qi].ResultCacheHits == 0 {
						mix[qi] = base.stats[len(run.stats)-1][qi]
					}
				}
			}
			run.resultsOnlySec += rig.priceBatch(pass{mix}, reis.UnitScale()).Makespan.Seconds()
		}
	}
	if base != nil {
		if err := checkSkewPartition(run, base); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// checkSkewPartition re-verifies the caching tier's contract on the
// experiment's own output, command for command against the budget-0
// run: results bit-identical, result-cache hits did no scan work, and
// every miss's fine pages partition exactly between flash and DRAM.
func checkSkewPartition(cached, base *skewRun) error {
	if len(cached.stats) != len(base.stats) {
		return fmt.Errorf("skew: %d commands vs %d in baseline", len(cached.stats), len(base.stats))
	}
	for ci := range cached.stats {
		if !reflect.DeepEqual(cached.results[ci], base.results[ci]) {
			return fmt.Errorf("skew: cmd %d results diverge from uncached baseline", ci)
		}
		for qi, st := range cached.stats[ci] {
			b := base.stats[ci][qi]
			if st.ResultCacheHits > 0 {
				if st.FinePages != 0 || st.CachedPages != 0 {
					return fmt.Errorf("skew: cmd %d q%d hit with scan work %+v", ci, qi, st)
				}
				continue
			}
			if st.FinePages+st.CachedPages != b.FinePages {
				return fmt.Errorf("skew: cmd %d q%d partition %d+%d != baseline fine %d",
					ci, qi, st.FinePages, st.CachedPages, b.FinePages)
			}
		}
	}
	return nil
}

// RunSkew measures the DRAM caching tier under Zipfian query skew and
// bursty churn on REIS-SSD1 and on its four-plane cut: for every device
// and skew exponent, the identical command script runs at every cache
// budget (budget 0 is the baseline), and each row reports the hit rate,
// the flash/DRAM page split, the modeled-throughput speedup and what
// each half of the tier contributes to it. Like the prune sweep, rows
// are costed at unit scale: the caching tier targets the deployed
// (post-mutation) regime where the corpus fits the device, not the
// paper-scale extrapolation.
func RunSkew(ss []float64, budgets []int64) ([]SkewRow, error) {
	if ss == nil {
		ss = skewS
	}
	if budgets == nil {
		budgets = skewBudgets
	}
	d, cents, assign := skewWorkload()
	name := fmt.Sprintf("skew-%dk", skewBase/1000)
	var rows []SkewRow
	for _, dev := range skewDevices() {
		for _, s := range ss {
			script := func(budget int64, nudge bool, base *skewRun) (*skewRun, error) {
				return runSkewScript(d, cents, assign, dev.cfg, s, budget, nudge, base)
			}
			// The exact script and the nudged one, each with its baseline.
			exact0, err := script(0, false, nil)
			if err != nil {
				return nil, err
			}
			nudged0, err := script(0, true, nil)
			if err != nil {
				return nil, err
			}
			n := float64(exact0.queries)
			for _, budget := range budgets {
				both, pins := exact0, nudged0
				if budget > 0 {
					if both, err = script(budget, false, exact0); err != nil {
						return nil, err
					}
					if pins, err = script(budget, true, nudged0); err != nil {
						return nil, err
					}
					if pins.hits != 0 {
						return nil, fmt.Errorf("skew: %d result-cache hits in the nudged script", pins.hits)
					}
				}
				rows = append(rows, SkewRow{
					Dataset: name, Device: dev.name, S: s, Budget: budget,
					HitRate:       float64(both.hits) / n,
					FinePages:     float64(both.fine) / n,
					CachedPages:   float64(both.cached) / n,
					BaseFinePages: float64(exact0.fine) / n,
					ModelQPS:      n / both.modelSec,
					Speedup:       exact0.modelSec / both.modelSec,
					PinsOnly:      nudged0.modelSec / pins.modelSec,
					ResultsOnly:   exact0.modelSec / both.resultsOnlySec,
					ModelShares:   both.use.shares(),
				})
			}
		}
	}
	return rows, nil
}

// FormatSkew renders the caching-tier sweep.
func FormatSkew(rows []SkewRow) string {
	var sb strings.Builder
	sb.WriteString("DRAM caching tier under Zipfian skew and bursty churn (REIS-SSD1 and its four-plane cut)\n")
	fmt.Fprintf(&sb, "%-10s %-8s %5s %8s %9s %11s %12s %10s %10s %10s %13s %8s %5s %8s\n",
		"dataset", "device", "s", "budget", "hit rate", "fine pages", "cached pages", "base fine", "model QPS", "pins only", "results only", "both", "ibc", "bound")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-8s %5.2f %7dK %8.1f%% %11.1f %12.1f %10.1f %10.1f %9.2fx %12.2fx %7.2fx %5.2f %8s\n",
			r.Dataset, r.Device, r.S, r.Budget>>10, r.HitRate*100, r.FinePages, r.CachedPages, r.BaseFinePages, r.ModelQPS,
			r.PinsOnly, r.ResultsOnly, r.Speedup, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
