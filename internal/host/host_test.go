package host

import "testing"

func TestCalibrationSane(t *testing.T) {
	c := calibrate()
	// Per-dim float32 L2 on a modern core is well under 10ns; above
	// that means the measurement loop broke.
	if c.F32NsPerDim <= 0 || c.F32NsPerDim > 50 {
		t.Fatalf("F32NsPerDim = %v", c.F32NsPerDim)
	}
	if c.hammingNsPerWord <= 0 || c.hammingNsPerWord > 100 {
		t.Fatalf("hammingNsPerWord = %v", c.hammingNsPerWord)
	}
	if c.Int8NsPerDim <= 0 || c.Int8NsPerDim > 50 {
		t.Fatalf("Int8NsPerDim = %v", c.Int8NsPerDim)
	}
	// BQ must be far faster than float per dimension: one word covers
	// 64 dims.
	if c.hammingNsPerWord/64 >= c.F32NsPerDim {
		t.Fatalf("Hamming per dim (%v) not faster than float (%v)",
			c.hammingNsPerWord/64, c.F32NsPerDim)
	}
}

func TestCalibrateCached(t *testing.T) {
	a := calibrate()
	b := calibrate()
	if a != b {
		t.Fatal("calibrate not cached")
	}
}

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
	b := NewBaseline(CPUReal())
	if got := b.LoadSeconds(1.5e9, false); got < 0.99 || got > 1.01 {
		t.Fatalf("F32 load of 1.5GB = %vs, want ~1s", got)
	}
	if b.LoadSeconds(1e9, true) >= b.LoadSeconds(1e9, false) {
		t.Fatal("BQ load not faster")
	}
	b.NoIO = true
	if b.LoadSeconds(1e9, false) != 0 {
		t.Fatal("No-I/O baseline still loads")
	}
}

func TestScanTimesScaleLinearly(t *testing.T) {
	b := NewBaseline(CPUReal())
	s1 := b.ScanSecondsF32(1000, 1024)
	s2 := b.ScanSecondsF32(2000, 1024)
	if s2 < 1.9*s1 || s2 > 2.1*s1 {
		t.Fatalf("scan not linear: %v -> %v", s1, s2)
	}
	if b.ScanSecondsBQ(1000, 1024, 100) >= s1 {
		t.Fatal("BQ scan not faster than F32 scan")
	}
}

func TestQPSAmortizesLoading(t *testing.T) {
	b := NewBaseline(CPUReal())
	load, search := 10.0, 0.001
	q1 := b.QPS(1, load, search)
	q100 := b.QPS(100, load, search)
	if q100 <= q1 {
		t.Fatal("batching did not amortize loading")
	}
	// With loading dominating, QPS ~= batch/load.
	if q1 > 0.11 {
		t.Fatalf("QPS(1) = %v, want ~0.1", q1)
	}
}

func TestNoIOFasterThanReal(t *testing.T) {
	real := NewBaseline(CPUReal())
	noio := NewBaseline(CPUReal())
	noio.NoIO = true
	bytes := DatasetBytesBQ(1_000_000, 1024, 1024)
	search := real.ScanSecondsBQ(10000, 1024, 100)
	qReal := real.QPS(64, real.LoadSeconds(bytes, true), search)
	qNoIO := noio.QPS(64, noio.LoadSeconds(bytes, true), search)
	if qNoIO <= qReal {
		t.Fatal("No-I/O not faster than CPU-Real")
	}
}

func TestEnergy(t *testing.T) {
	b := NewBaseline(CPUReal())
	if got := b.EnergyJ(2); got != 2*b.CPU.ActiveWatts {
		t.Fatalf("EnergyJ = %v", got)
	}
}

func TestCPURealConfig(t *testing.T) {
	c := CPUReal()
	if c.Cores != 256 {
		t.Fatalf("cores = %d, want 256 (Table 3)", c.Cores)
	}
	if c.ActiveWatts < 300 || c.ActiveWatts > 400 {
		t.Fatalf("watts = %v, want ~29.7x the ~12W SSD", c.ActiveWatts)
	}
}
