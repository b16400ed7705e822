// Package host models the conventional CPU-based retrieval baselines
// of the paper's evaluation (Table 3 "CPU-Real", plus the No-I/O and
// CPU+BQ variants).
//
// The baseline has two components:
//
//   - I/O: loading the vector database from the SSD into host DRAM,
//     modeled as dataset bytes over the effective load bandwidth. This
//     is the bottleneck the paper identifies (Figs 2-3).
//   - Compute: the distance-scan kernels. Per-core kernel rates are
//     measured at package init on the machine running the experiments
//     (the same way the paper measures its baseline on real hardware)
//     and scaled to the configured core count with a parallel
//     efficiency factor.
package host

import (
	"sync"
	"time"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// CPUConfig describes the baseline server (Table 3: 2-socket AMD EPYC
// 9554, 128 physical / 256 logical cores, 1.5 TB DDR4, PM9A3 SSD).
type CPUConfig struct {
	Cores int
	// Efficiency is the parallel scaling efficiency of the scan
	// kernels across all cores (memory-bandwidth bound).
	Efficiency float64
	// ActiveWatts is the average active power of CPU + DRAM. The
	// paper reports the SSD draws 29.7x less power than the CPU
	// baseline on average; with the ~12 W SSD that puts the baseline
	// at ~356 W.
	ActiveWatts float64
	// MemBandwidth caps scan throughput: a distance scan streams the
	// candidate embeddings from DRAM, so it can never exceed the
	// aggregate memory bandwidth (2-socket DDR4-3200, 8 channels each:
	// ~400 GB/s).
	MemBandwidth float64
}

// loadBandwidthF32 and loadBandwidthBQ are the effective dataset-load
// rates (bytes/s) including deserialization. Derived from the paper's
// own breakdowns: ~1.5 GB/s for FP32 flat indexes, ~2.3 GB/s for
// BQ+INT8 data on the PM9A3.
const (
	loadBandwidthF32 = 1.5e9
	loadBandwidthBQ  = 2.3e9
)

// CPUReal returns the paper's baseline configuration.
func CPUReal() CPUConfig {
	return CPUConfig{
		Cores:        256,
		Efficiency:   0.55,
		ActiveWatts:  356,
		MemBandwidth: 400e9,
	}
}

// Calibration holds measured single-core kernel rates.
type Calibration struct {
	F32NsPerDim      float64 // L2 over float32, per dimension
	hammingNsPerWord float64 // XOR+popcount per uint64 word
	Int8NsPerDim     float64 // L2 over int8, per dimension
}

var (
	calOnce sync.Once
	cal     Calibration
)

// calibrate measures the scan kernels on this machine once and caches
// the result.
func calibrate() Calibration {
	calOnce.Do(func() {
		cal = measure()
	})
	return cal
}

func measure() Calibration {
	const dim = 1024
	rng := xrand.New(0xca1)
	a := make([]float32, dim)
	b := make([]float32, dim)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	qa := vecmath.BinaryQuantize(a, nil)
	qb := vecmath.BinaryQuantize(b, nil)
	p := vecmath.Int8Params{Scale: 0.01}
	ia := p.Int8Quantize(a, nil)
	ib := p.Int8Quantize(b, nil)

	var c Calibration
	var sinkF float32
	var sinkI int
	var sink8 int32

	iters := 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		sinkF += vecmath.L2Squared(a, b)
	}
	c.F32NsPerDim = float64(time.Since(start).Nanoseconds()) / float64(iters*dim)

	start = time.Now()
	for i := 0; i < iters; i++ {
		sinkI += vecmath.Hamming(qa, qb)
	}
	c.hammingNsPerWord = float64(time.Since(start).Nanoseconds()) / float64(iters*len(qa))

	start = time.Now()
	for i := 0; i < iters; i++ {
		sink8 += vecmath.L2SquaredInt8(ia, ib)
	}
	c.Int8NsPerDim = float64(time.Since(start).Nanoseconds()) / float64(iters*dim)

	// Keep the measurements from being optimized away; also guard
	// against clock anomalies returning zero.
	if sinkF == 0 && sinkI == 0 && sink8 == 0 {
		c.F32NsPerDim += 1e-9
	}
	const floor = 0.01
	if c.F32NsPerDim < floor {
		c.F32NsPerDim = floor
	}
	if c.hammingNsPerWord < floor {
		c.hammingNsPerWord = floor
	}
	if c.Int8NsPerDim < floor {
		c.Int8NsPerDim = floor
	}
	return c
}

// Baseline evaluates retrieval cost on a CPU configuration.
type Baseline struct {
	CPU CPUConfig
	Cal Calibration
	// NoIO removes the dataset-loading term — the paper's "No-I/O"
	// comparison point that isolates pure compute.
	NoIO bool
}

// NewBaseline builds a baseline with machine-calibrated kernels.
func NewBaseline(cpu CPUConfig) *Baseline {
	return &Baseline{CPU: cpu, Cal: calibrate()}
}

// DatasetBytesF32 returns the bytes loaded for a flat FP32 database
// with documents.
func DatasetBytesF32(n, dim, docBytes int) int64 {
	return int64(n) * int64(4*dim+docBytes)
}

// DatasetBytesBQ returns the bytes loaded for a BQ database: packed
// binary codes, INT8 rerank copies, and documents.
func DatasetBytesBQ(n, dim, docBytes int) int64 {
	return int64(n) * int64(dim/8+dim+docBytes)
}

// LoadSeconds returns the dataset-load time for the given byte count.
func (b *Baseline) LoadSeconds(bytes int64, bq bool) float64 {
	if b.NoIO {
		return 0
	}
	bw := loadBandwidthF32
	if bq {
		bw = loadBandwidthBQ
	}
	return float64(bytes) / bw
}

// aggregate returns the whole-system kernel rate divisor.
func (b *Baseline) parallelism() float64 {
	return float64(b.CPU.Cores) * b.CPU.Efficiency
}

// ScanSecondsF32 returns per-query time for an exact float32 scan of
// `candidates` vectors of the given dimensionality: the larger of the
// compute time and the DRAM streaming time.
func (b *Baseline) ScanSecondsF32(candidates, dim int) float64 {
	ns := float64(candidates) * float64(dim) * b.Cal.F32NsPerDim
	compute := ns / b.parallelism() / 1e9
	stream := float64(candidates) * float64(4*dim) / b.CPU.MemBandwidth
	return maxF(compute, stream)
}

// ScanSecondsBQ returns per-query time for a Hamming scan plus INT8
// reranking of rerank candidates, bounded by DRAM streaming bandwidth.
func (b *Baseline) ScanSecondsBQ(candidates, dim, rerank int) float64 {
	words := float64(vecmath.WordsPerVector(dim))
	ns := float64(candidates)*words*b.Cal.hammingNsPerWord +
		float64(rerank)*float64(dim)*b.Cal.Int8NsPerDim
	compute := ns / b.parallelism() / 1e9
	stream := (float64(candidates)*float64(dim/8) + float64(rerank)*float64(dim)) / b.CPU.MemBandwidth
	return maxF(compute, stream)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// QPS combines loading (amortized over the batch) and per-query search
// time into the throughput metric of Fig 7.
func (b *Baseline) QPS(batch int, loadSeconds, perQuerySearchSeconds float64) float64 {
	total := loadSeconds + float64(batch)*perQuerySearchSeconds
	if total <= 0 {
		return 0
	}
	return float64(batch) / total
}

// EnergyJ returns the energy for a span of wall time at active power.
func (b *Baseline) EnergyJ(seconds float64) float64 {
	return seconds * b.CPU.ActiveWatts
}
