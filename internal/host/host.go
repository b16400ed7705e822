// Package host models the conventional CPU-based retrieval baselines
// of the paper's evaluation (Table 3 "CPU-Real", plus the No-I/O and
// CPU+BQ variants).
//
// The baseline has two components:
//
//   - I/O: loading the vector database from the SSD into host DRAM,
//     modeled as dataset bytes over the effective load bandwidth. This
//     is the bottleneck the paper identifies (Figs 2-3).
//   - Compute: the distance-scan kernels, at fixed per-core rates
//     scaled to the server's core count with a parallel efficiency
//     factor and floored by DRAM streaming bandwidth.
//
// CPU-Real is one fixed machine, so every figure it prices is the same
// on any host running the experiments.
package host

import "reis/internal/vecmath"

// CPU-Real is the paper's baseline server (Table 3: 2-socket AMD EPYC
// 9554, 128 physical / 256 logical cores, 1.5 TB DDR4, PM9A3 SSD).
const (
	cores = 256
	// efficiency is the parallel scaling efficiency of the scan
	// kernels across all cores (memory-bandwidth bound).
	efficiency = 0.55
	// Parallelism is the whole-system kernel rate divisor of the
	// data-parallel scans.
	Parallelism = cores * efficiency
	// ActiveWatts is the average active power of CPU + DRAM. The
	// paper reports the SSD draws 29.7x less power than the CPU
	// baseline on average; with the ~12 W SSD that puts the baseline
	// at ~356 W.
	ActiveWatts = 356.0
	// MemBandwidth caps scan throughput: a distance scan streams the
	// candidate embeddings from DRAM, so it can never exceed the
	// aggregate memory bandwidth (2-socket DDR4-3200, 8 channels each:
	// ~400 GB/s).
	MemBandwidth = 400e9
)

// Single-core kernel rates of CPU-Real's scans, in ns: L2 over float32
// and over int8 per dimension, XOR+popcount per uint64 word. The EPYC
// 9554's per-core rates are not known here, so these are one x86-64
// core's: the median of 63 runs (one per process) of the wall-clock loop
// that timed vecmath.L2Squared, Hamming and L2SquaredInt8 over 1024
// dimensions, 20,000 calls each, at commit e48bfc8, on an idle 2-vCPU
// Linux container (Go 1.24, amd64). Fig 7's and Fig 9's gated cells sit
// on the DRAM stream floor (all three at 1.5x leave them unchanged); the
// frontier's DRAM rivals move with them.
const (
	F32NsPerDim      = 0.785
	hammingNsPerWord = 1.325
	Int8NsPerDim     = 1.049
)

// loadBandwidthF32 and loadBandwidthBQ are the effective dataset-load
// rates (bytes/s) including deserialization. Derived from the paper's
// own breakdowns: ~1.5 GB/s for FP32 flat indexes, ~2.3 GB/s for
// BQ+INT8 data on the PM9A3.
const (
	loadBandwidthF32 = 1.5e9
	loadBandwidthBQ  = 2.3e9
)

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
func LoadSeconds(bytes int64, bq bool) float64 {
	bw := loadBandwidthF32
	if bq {
		bw = loadBandwidthBQ
	}
	return float64(bytes) / bw
}

// ScanSecondsF32 returns per-query time for an exact float32 scan of
// `candidates` vectors of the given dimensionality: the larger of the
// compute time and the DRAM streaming time.
func ScanSecondsF32(candidates, dim int) float64 {
	compute := float64(candidates) * float64(dim) * F32NsPerDim / Parallelism / 1e9
	stream := float64(candidates) * float64(4*dim) / MemBandwidth
	return max(compute, stream)
}

// ScanSecondsBQ returns per-query time for a Hamming scan plus INT8
// reranking of rerank candidates, bounded by DRAM streaming bandwidth.
func ScanSecondsBQ(candidates, dim, rerank int) float64 {
	words := float64(vecmath.WordsPerVector(dim))
	ns := float64(candidates)*words*hammingNsPerWord +
		float64(rerank)*float64(dim)*Int8NsPerDim
	compute := ns / Parallelism / 1e9
	stream := (float64(candidates)*float64(dim/8) + float64(rerank)*float64(dim)) / MemBandwidth
	return max(compute, stream)
}

// QPS combines loading (amortized over the batch) and per-query search
// time into the throughput metric of Fig 7.
func QPS(batch int, loadSeconds, perQuerySearchSeconds float64) float64 {
	total := loadSeconds + float64(batch)*perQuerySearchSeconds
	if total <= 0 {
		return 0
	}
	return float64(batch) / total
}
