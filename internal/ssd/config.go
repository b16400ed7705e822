// Package ssd models the SSD that hosts the REIS engine: the flash
// device plus the SSD controller (the embedded core's kernel costs, the
// DRAM caching tier), REIS's coarse-grained Flash Translation Layer —
// one R-DB record of region bounds per database in place of a
// page-level map (Sec 4.1.4), its type here and its table the host's —
// and the parallelism-first page allocator that stripes embeddings
// across planes (Sec 4.1.1).
//
// Two configurations reproduce Table 3 of the paper: REIS-SSD1 models
// a cost-oriented device (Samsung PM9A3-class) and REIS-SSD2 a
// performance-oriented device (Micron 9400-class).
package ssd

import (
	"math"
	"time"

	"reis/internal/flash"
)

// Config describes one SSD configuration (Table 3).
type Config struct {
	Name string
	Geo  flash.Geometry
	// Flash carries per-event NAND latency/energy parameters.
	Flash flash.Params

	// CacheDRAMBytes is the slice of controller DRAM the engine may use
	// as a caching tier above the flash scan path, one budget for both of
	// its halves: binary pages of the most-probed IVF clusters are pinned
	// there (page + OOB bytes per page, up to 7/8 of the budget, where the
	// timing model says a DRAM scan pays) and scanned at DRAM cost, and a
	// result cache serves repeated queries at controller cost from
	// whatever the pins do not hold now — all of it on a device or a
	// database that pins nothing. 0 — the preset default — disables the
	// tier entirely, preserving the uncached behavior of every path bit
	// for bit.
	CacheDRAMBytes int64

	// OverprovisionPct reserves extra region capacity at deployment, as
	// a percentage of each region's live page count, so databases can
	// grow in place (OpcodeAppend) and garbage collection has free
	// blocks to compact into. 0 — the preset default — makes deployed
	// databases effectively read-only: the first append fails with
	// ErrRegionFull. Valid range is [0, 400]; New rejects anything else.
	OverprovisionPct int

	// HostReadBandwidth is the sequential read bandwidth seen by the
	// host (bytes/s) — what a CPU baseline gets when loading a dataset.
	HostReadBandwidth float64

	// IdlePower is the device idle power in watts.
	IdlePower float64

	// DRAMAccessNs is the average controller DRAM access latency used
	// for TTL updates.
	DRAMAccessNs float64
}

// coreGHz is the clock of the embedded controller core REIS runs its
// kernels on (Arm Cortex-R8 class).
const coreGHz = 1.5

// Kernel cost constants for the embedded cores, expressed as
// nanoseconds per element on one core. Derived from Zsim-style
// estimates of quickselect/quicksort/dot-product inner loops on a
// Cortex-R8 at 1.5 GHz (a handful of instructions per element,
// DRAM-bound streaming).
const (
	quickselectNsPerElem = 6
	quicksortNsPerElem   = 8 // multiplied by log2(n)
	rerankNsPerDim       = 1.2
)

// SSD1 returns the cost-oriented configuration (REIS-SSD1, Table 3):
// 8 channels, 16 dies/channel, 2 planes/die, 1.2 GB/s per channel. The
// controller has four cores; REIS runs its kernels on one of them and
// leaves the rest to the FTL and host I/O (Sec 4.3.4, Sec 7.2), so the
// timing model has a single core column.
func SSD1() Config {
	geo := flash.Geometry{
		Channels:         8,
		DiesPerChannel:   16,
		PlanesPerDie:     2,
		BlocksPerPlane:   64, // scaled; grown on demand by withCapacityFor
		PagesPerBlock:    64,
		PageBytes:        16 * 1024,
		OOBBytes:         2208,
		ChannelBandwidth: 1.2e9,
	}
	p := flash.DefaultParams()
	p.DieInputBandwidth = geo.ChannelBandwidth
	return Config{
		Name:              "REIS-SSD1",
		Geo:               geo,
		Flash:             p,
		HostReadBandwidth: 6.9e9, // PM9A3 seq read
		IdlePower:         5.0,
		// TTL inserts stream to DRAM; the per-entry cost is the entry
		// size over DRAM bandwidth (~31-143B at ~6.4 GB/s), not a full
		// random-access latency.
		DRAMAccessNs: 5,
	}
}

// SSD2 returns the performance-oriented configuration (REIS-SSD2,
// Table 3): 16 channels, 8 dies/channel, 4 planes/die, 2.0 GB/s per
// channel.
func SSD2() Config {
	cfg := SSD1()
	cfg.Name = "REIS-SSD2"
	cfg.Geo.Channels = 16
	cfg.Geo.DiesPerChannel = 8
	cfg.Geo.PlanesPerDie = 4
	cfg.Geo.ChannelBandwidth = 2.0e9
	cfg.Flash.DieInputBandwidth = cfg.Geo.ChannelBandwidth
	cfg.HostReadBandwidth = 7.0e9 // Micron 9400 seq read
	return cfg
}

// withCapacityFor returns a copy of cfg whose geometry holds at least
// bytes of user data, growing BlocksPerPlane as needed. Channel, die
// and plane counts — the quantities that determine parallelism — are
// never changed.
func (c Config) withCapacityFor(bytes int64) Config {
	out := c
	for out.Geo.Capacity() < bytes {
		out.Geo.BlocksPerPlane *= 2
	}
	return out
}

// CoreCycleNs returns the duration of one core cycle in nanoseconds.
func (c Config) CoreCycleNs() float64 { return 1 / coreGHz }

// QuickselectTime models selecting the best elements from n TTL
// entries on one embedded core.
func (c Config) QuickselectTime(n int) time.Duration {
	return time.Duration(float64(n) * quickselectNsPerElem * float64(time.Nanosecond))
}

// QuicksortTime models sorting n entries on one embedded core.
func (c Config) QuicksortTime(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(float64(n) * log2(float64(n)) * quicksortNsPerElem * float64(time.Nanosecond))
}

// RerankTime models INT8 distance recomputation for n candidates of
// the given dimensionality on one embedded core.
func (c Config) RerankTime(n, dim int) time.Duration {
	return time.Duration(float64(n) * float64(dim) * rerankNsPerDim * float64(time.Nanosecond))
}

func log2(x float64) float64 { return math.Log2(x) }
