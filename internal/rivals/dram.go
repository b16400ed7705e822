package rivals

import (
	"math"

	"reis/internal/host"
)

// This file models the DRAM-side ANN rivals of the paper's headline
// comparison (Fig 5 / Sec 6): HNSW, LSH and PQ-IVF served from host
// memory. Where rivals.go models competing *in-storage* accelerators,
// these are the conventional alternative — keep the index in DRAM and
// pay for loading it there. The frontier experiment
// (internal/experiments, RunFrontier) runs the real index structures
// from internal/ann over the functional corpus to measure recall and
// per-query work (hops, candidates), then costs that work at paper
// scale through these models, built on the same fixed CPU-Real host
// (internal/host) as the comparisons of Fig 7.
//
// The central asymmetry the models capture is Sec 3.2's: flat scans
// parallelize across cores and are bounded by DRAM streaming
// bandwidth, while graph traversal is a sequential chain of dependent
// random accesses that no core count hides.

// dramRandomAccessNs is the latency of one dependent random DRAM
// access (row miss, pointer chase): the per-hop floor of graph
// traversal and the per-table floor of hash probing.
const dramRandomAccessNs = 100.0

// DRAMANN costs DRAM-resident ANN queries on the CPU-Real host over
// vectors of the given dimensionality.
type DRAMANN struct {
	Dim int
}

// HNSWSeconds models one HNSW query that evaluated the given number
// of neighbor distances: each hop is one full-precision distance over
// Dim floats plus one dependent random DRAM access for the neighbor
// fetch. The chain is sequential — hop i+1's address comes out of hop
// i's comparison — so unlike the scans below it gets no multi-core
// parallelism and no streaming bandwidth; this is why graph indexes
// lose their single-query latency advantage at scale (Sec 3.2).
func (d DRAMANN) HNSWSeconds(hops float64) float64 {
	perHop := float64(d.Dim)*host.F32NsPerDim + dramRandomAccessNs
	return hops * perHop / 1e9
}

// LSHSeconds models one LSH query: one hash probe (a dependent random
// access) per table, then a full-precision rescore of the candidate
// union — a flat scan, data-parallel across cores and bounded by DRAM
// streaming bandwidth.
func (d DRAMANN) LSHSeconds(candidates float64, tables int) float64 {
	probe := float64(tables) * dramRandomAccessNs / 1e9
	return probe + host.ScanSecondsF32(int(math.Ceil(candidates)), d.Dim)
}

// PQSeconds models one PQ-IVF query: a full-precision coarse scan over
// nlist centroids, an ADC table build (ks sub-distances per subspace —
// in total the arithmetic of ks full vectors), then the ADC scan of
// the probed lists' codes: candidates × m one-byte lookup-adds,
// parallel across cores and bounded by streaming the codes.
func (d DRAMANN) PQSeconds(candidates float64, m, ks, nlist int) float64 {
	coarse := host.ScanSecondsF32(nlist, d.Dim)
	table := host.ScanSecondsF32(ks, d.Dim)
	codeBytes := candidates * float64(m)
	compute := codeBytes * host.Int8NsPerDim / host.Parallelism / 1e9
	stream := codeBytes / host.MemBandwidth
	return coarse + table + math.Max(compute, stream)
}

// LoadSecondsPerQuery is the batch-amortized cost of getting the
// full-scale FP32 dataset into DRAM in the first place — the term the
// flash engine never pays. batch is the retrieval-session length the
// load is amortized over (a sweep's query batch).
func (d DRAMANN) LoadSecondsPerQuery(n int64, batch int) float64 {
	bytes := host.DatasetBytesF32(int(n), d.Dim, 0)
	return host.LoadSeconds(bytes, false) / float64(batch)
}
