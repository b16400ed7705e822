package rivals

import (
	"math"
	"testing"

	"reis/internal/host"
)

// TestDRAMCostsPositiveAndMonotone pins the shape of each rival model:
// all costs are positive and grow with the work term.
func TestDRAMCostsPositiveAndMonotone(t *testing.T) {
	d := DRAMANN{Dim: 1024}
	if h1, h2 := d.HNSWSeconds(100), d.HNSWSeconds(1000); h1 <= 0 || h2 <= h1 {
		t.Fatalf("HNSWSeconds not positive-monotone: %v %v", h1, h2)
	}
	if l1, l2 := d.LSHSeconds(1e4, 16), d.LSHSeconds(1e6, 16); l1 <= 0 || l2 <= l1 {
		t.Fatalf("LSHSeconds not positive-monotone: %v %v", l1, l2)
	}
	if p1, p2 := d.PQSeconds(1e5, 16, 64, 16384), d.PQSeconds(1e7, 16, 64, 16384); p1 <= 0 || p2 <= p1 {
		t.Fatalf("PQSeconds not positive-monotone: %v %v", p1, p2)
	}
}

// TestHNSWSequentialPenalty pins the Sec 3.2 asymmetry: hop-for-float,
// the sequential graph walk costs more than the data-parallel flat
// scan of the same number of vectors.
func TestHNSWSequentialPenalty(t *testing.T) {
	d := DRAMANN{Dim: 1024}
	const vecs = 10_000
	hop := d.HNSWSeconds(vecs)
	scan := host.ScanSecondsF32(vecs, d.Dim)
	if hop <= scan {
		t.Fatalf("sequential hops (%v) should cost more than a parallel scan (%v) over the same %d vectors",
			hop, scan, vecs)
	}
}

// TestLoadAmortization pins that the per-query load cost scales with
// dataset size and amortizes with batch length.
func TestLoadAmortization(t *testing.T) {
	d := DRAMANN{Dim: 1024}
	small := d.LoadSecondsPerQuery(1_000_000, 1000)
	big := d.LoadSecondsPerQuery(40_000_000, 1000)
	if small <= 0 || big <= small {
		t.Fatalf("load cost not monotone in dataset size: %v %v", small, big)
	}
	longer := d.LoadSecondsPerQuery(40_000_000, 10_000)
	if longer >= big {
		t.Fatalf("longer batch should amortize the load: %v vs %v", longer, big)
	}
}

// TestDRAMRivalsPriceOnHostRates pins that the DRAM rivals run on the
// same CPU-Real machine as Fig 7: a hop costs one float distance at the
// host's per-core rate, LSH with no tables is the host's flat scan, and
// the PQ ADC scan divides by the host's parallelism.
func TestDRAMRivalsPriceOnHostRates(t *testing.T) {
	d := DRAMANN{Dim: 1024}
	if got, want := d.HNSWSeconds(1), (float64(d.Dim)*host.F32NsPerDim+dramRandomAccessNs)/1e9; got != want {
		t.Fatalf("one HNSW hop = %vs, want %vs", got, want)
	}
	if got, want := d.LSHSeconds(5000, 0), host.ScanSecondsF32(5000, d.Dim); got != want {
		t.Fatalf("LSH with no tables = %vs, want the host flat scan %vs", got, want)
	}
	const cands, m, ks, nlist = 1e6, 16, 64, 1024
	adc := d.PQSeconds(cands, m, ks, nlist) - host.ScanSecondsF32(nlist, d.Dim) - host.ScanSecondsF32(ks, d.Dim)
	compute := cands * m * host.Int8NsPerDim / host.Parallelism / 1e9
	if stream := cands * m / host.MemBandwidth; compute <= stream {
		t.Fatalf("ADC compute %vs does not exceed its %vs stream", compute, stream)
	}
	if math.Abs(adc-compute) > 1e-12 {
		t.Fatalf("PQ ADC scan = %vs, want %vs at the host's INT8 rate", adc, compute)
	}
}
