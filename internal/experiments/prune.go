package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"reis/internal/reis"
	"reis/internal/ssd"
)

// PruneRow is one point of the threshold-pruning sweep: a (k, nprobe)
// operating point served with pruning off ("base") or on ("prune"),
// with wall-clock and modeled throughput plus the per-query page
// accounting the pruning contract reports (sensed fine pages, pages
// never sensed because a segment's lower bound exceeded the query's
// top-k threshold, and the aborted wave slots).
type PruneRow struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"` // "base" | "prune"
	K       int    `gate:"id"`
	NProbe  int    `gate:"id"`
	// WallQPS is the functional simulation's wall-clock throughput.
	WallQPS float64 `gate:"report"`
	// ModelQPS is the modeled device throughput of the batch under the
	// channel-occupancy overlap model at unit scale.
	ModelQPS float64 `gate:"exact"`
	// FinePages / PrunedPages / AbortedWaves are mean per-query counts;
	// FinePages counts sensed pages only, PrunedPages the pages aborts
	// saved (the two sum to the base row's FinePages by construction).
	FinePages    float64 `gate:"report"`
	PrunedPages  float64 `gate:"report"`
	AbortedWaves float64 `gate:"report"`
	// Speedup is this row's ModelQPS over the matching base row
	// (1.0 on base rows).
	Speedup float64 `gate:"report"`
	ModelShares
}

// pruneKs and pruneNProbes are the sweep axes.
var (
	pruneKs      = []int{10, 100}
	pruneNProbes = []int{8, 32, 128}
)

// pruneNList keeps the largest nprobe of the sweep meaningful (and far
// above it, so rank windows have room to abort); prunePerCluster keeps
// the functional run light.
const (
	pruneNList      = 160
	prunePerCluster = 40
)

// pruneScale costs the sweep at paper size, exactly like the figure
// runners: the separated corpus stands in for a paper-scale database
// of 100M entries (projection's IVF scale). At unit scale the tiny
// functional corpus hides the scan behind fixed controller costs; at
// paper scale the fine scan dominates, which is the regime pruning
// targets.
func pruneScale() reis.Scale {
	_, ivf := projection(100e6, pruneNList*prunePerCluster, pruneNList, true)
	return ivf
}

// prunedWorkload builds the separated corpus the sweep runs on:
// clusters are random ±1 sign patterns, so members binary-quantize
// within a few bit flips of their centroid (tiny covering radius)
// while distinct clusters disagree on about half the dimensions. This
// is the regime the triangle-inequality bound is built for — real
// embedding corpora sit between this and the no-structure worst case,
// where pruning degrades to the base path's work (plus one broadcast
// per round) but never to different results.
func prunedWorkload() (vecs [][]float32, docs [][]byte, cents [][]float32, assign []int, queries [][]float32) {
	const dim, perCluster, nQueries = 128, prunePerCluster, 32
	rng := rand.New(rand.NewSource(0x5eed))
	cents = make([][]float32, pruneNList)
	for c := range cents {
		v := make([]float32, dim)
		for j := range v {
			v[j] = 1
			if rng.Intn(2) == 0 {
				v[j] = -1
			}
		}
		cents[c] = v
	}
	for c := 0; c < pruneNList; c++ {
		for i := 0; i < perCluster; i++ {
			v := append([]float32(nil), cents[c]...)
			for f := 0; f < 1+rng.Intn(3); f++ {
				v[rng.Intn(dim)] *= -1
			}
			vecs = append(vecs, v)
			docs = append(docs, fmt.Appendf(nil, "sep-doc-%05d", c*perCluster+i))
			assign = append(assign, c)
		}
	}
	for q := 0; q < nQueries; q++ {
		v := append([]float32(nil), cents[(q*5)%pruneNList]...)
		v[rng.Intn(dim)] *= -1
		queries = append(queries, v)
	}
	return vecs, docs, cents, assign, queries
}

// RunPrune measures threshold-propagated pruning against the unpruned
// scan on REIS-SSD1 over the separated corpus: for every (k, nprobe)
// point, the same query batch runs with SearchOptions.Prune off and
// on. Results are bit-identical by contract (enforced by the package's
// tests); the rows report what pruning does to device work and modeled
// throughput.
func RunPrune() ([]PruneRow, error) {
	vecs, docs, cents, assign, queries := prunedWorkload()
	s, err := deploy(ssd.SSD1(), 1, reis.AllOptions(), reis.DeployConfig{
		ID: 1, Vectors: vecs, Docs: docs, DocSlotBytes: 64,
		Centroids: cents, Assign: assign,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var rows []PruneRow
	for _, k := range pruneKs {
		for _, np := range pruneNProbes {
			var baseQPS float64
			for _, prune := range []bool{false, true} {
				resp, cost, err := s.serve(reis.HostCommand{
					Opcode: reis.OpcodeIVFSearch, DBID: 1,
					Queries: queries, K: k,
					Opt: reis.SearchOptions{NProbe: np, Prune: prune},
				})
				if err != nil {
					return nil, err
				}
				var use clockUse
				bd := s.use(&use, passOf(resp), pruneScale())
				n := float64(len(queries))
				row := PruneRow{
					Dataset: fmt.Sprintf("sep-%d", pruneNList),
					Mode:    "base", K: k, NProbe: np,
					WallQPS:  cost.WallQPS,
					ModelQPS: n / bd.Makespan.Seconds(),
					// resp.Stats is the batch's per-query stats, summed.
					FinePages:    float64(resp.Stats.FinePages) / n,
					PrunedPages:  float64(resp.Stats.PrunedPages) / n,
					AbortedWaves: float64(resp.Stats.AbortedWaves) / n,
					Speedup:      1,
					ModelShares:  use.shares(),
				}
				if prune {
					row.Mode = "prune"
					if baseQPS > 0 {
						row.Speedup = row.ModelQPS / baseQPS
					}
				} else {
					baseQPS = row.ModelQPS
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatPrune renders the pruning sweep.
func FormatPrune(rows []PruneRow) string {
	var sb strings.Builder
	sb.WriteString("Threshold-propagated top-k pruning: base vs pruned scans (REIS-SSD1)\n")
	fmt.Fprintf(&sb, "%-10s %-6s %4s %7s %10s %10s %11s %12s %13s %8s %5s %8s\n",
		"dataset", "mode", "k", "nprobe", "wall QPS", "model QPS", "fine pages", "pruned pages", "aborted waves", "speedup", "ibc", "bound")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-6s %4d %7d %10.1f %10.1f %11.1f %12.1f %13.1f %7.2fx %5.2f %8s\n",
			r.Dataset, r.Mode, r.K, r.NProbe, r.WallQPS, r.ModelQPS, r.FinePages, r.PrunedPages, r.AbortedWaves, r.Speedup, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
