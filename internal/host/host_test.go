package host

import "testing"

func TestDatasetBytes(t *testing.T) {
	if got := DatasetBytesF32(10, 1024, 1024); got != 10*(4096+1024) {
		t.Fatalf("F32 bytes = %d", got)
	}
	if got := DatasetBytesBQ(10, 1024, 1024); got != 10*(128+1024+1024) {
		t.Fatalf("BQ bytes = %d", got)
	}
	// BQ shrinks the embedding payload but not the documents —
	// Sec 3.2's point that quantization cannot remove the doc traffic.
	if DatasetBytesBQ(10, 1024, 1024) >= DatasetBytesF32(10, 1024, 1024) {
		t.Fatal("BQ not smaller than F32")
	}
}

func TestLoadSeconds(t *testing.T) {
	if got := LoadSeconds(1.5e9, false); got < 0.99 || got > 1.01 {
		t.Fatalf("F32 load of 1.5GB = %vs, want ~1s", got)
	}
	if LoadSeconds(1e9, true) >= LoadSeconds(1e9, false) {
		t.Fatal("BQ load not faster")
	}
}

func TestScanTimesScaleLinearly(t *testing.T) {
	s1 := ScanSecondsF32(1000, 1024)
	s2 := ScanSecondsF32(2000, 1024)
	if s2 < 1.9*s1 || s2 > 2.1*s1 {
		t.Fatalf("scan not linear: %v -> %v", s1, s2)
	}
	if ScanSecondsBQ(1000, 1024, 100) >= s1 {
		t.Fatal("BQ scan not faster than F32 scan")
	}
}

func TestQPSAmortizesLoading(t *testing.T) {
	load, search := 10.0, 0.001
	q1 := QPS(1, load, search)
	q100 := QPS(100, load, search)
	if q100 <= q1 {
		t.Fatal("batching did not amortize loading")
	}
	// With loading dominating, QPS ~= batch/load.
	if q1 > 0.11 {
		t.Fatalf("QPS(1) = %v, want ~0.1", q1)
	}
}

func TestNoIOFasterThanReal(t *testing.T) {
	bytes := DatasetBytesBQ(1_000_000, 1024, 1024)
	search := ScanSecondsBQ(10000, 1024, 100)
	if QPS(64, 0, search) <= QPS(64, LoadSeconds(bytes, true), search) {
		t.Fatal("No-I/O not faster than CPU-Real")
	}
}

// TestCPURealConfig pins the fixed server: Table 3's core count, the
// power the paper's 29.7x ratio implies, and kernel rates under which
// a BQ dimension is cheaper than a float one and the DRAM stream floor
// binds both first-stage scans.
func TestCPURealConfig(t *testing.T) {
	if cores != 256 {
		t.Fatalf("cores = %d, want 256 (Table 3)", cores)
	}
	if ActiveWatts < 300 || ActiveWatts > 400 {
		t.Fatalf("watts = %v, want ~29.7x the ~12W SSD", ActiveWatts)
	}
	for name, ns := range map[string]float64{"F32NsPerDim": F32NsPerDim, "hammingNsPerWord": hammingNsPerWord, "Int8NsPerDim": Int8NsPerDim} {
		if ns <= 0 || ns > 10 {
			t.Fatalf("%s = %v ns", name, ns)
		}
	}
	if hammingNsPerWord/64 >= F32NsPerDim {
		t.Fatalf("Hamming per dim (%v) not faster than float (%v)", hammingNsPerWord/64, F32NsPerDim)
	}
	const n, dim = 1_000_000, 1024
	if stream := float64(n*4*dim) / MemBandwidth; ScanSecondsF32(n, dim) != stream {
		t.Fatalf("F32 scan %vs is compute-bound, not the %vs stream", ScanSecondsF32(n, dim), stream)
	}
	if stream := float64(n*dim/8) / MemBandwidth; ScanSecondsBQ(n, dim, 0) != stream {
		t.Fatalf("BQ scan %vs is compute-bound, not the %vs stream", ScanSecondsBQ(n, dim, 0), stream)
	}
}

// TestRerankIsComputeBound pins the other side of the max in
// ScanSecondsBQ: at CPU-Real's INT8 rate the rerank kernel costs more
// than streaming its bytes, so a rerank-only scan is priced at the
// kernel rate over all cores, not at the DRAM floor.
func TestRerankIsComputeBound(t *testing.T) {
	const dim, rerank = 1024, 10_000
	compute := float64(rerank*dim) * Int8NsPerDim / Parallelism / 1e9
	stream := float64(rerank*dim) / MemBandwidth
	if compute <= stream {
		t.Fatalf("rerank compute %vs does not exceed its %vs stream", compute, stream)
	}
	if got := ScanSecondsBQ(0, dim, rerank); got != compute {
		t.Fatalf("rerank-only BQ scan = %vs, want the %vs kernel time", got, compute)
	}
}
