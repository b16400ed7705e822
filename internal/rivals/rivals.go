// Package rivals models the systems the paper compares REIS against:
// the DRAM-side ANN baselines of the headline evaluation (HNSW, LSH
// and PQ-IVF served from host memory — see DRAMANN in dram.go, fed by
// the live index structures of internal/ann through the frontier
// experiment) and the two state-of-the-art ISP-based ANNS accelerators
// of Sec 6.4:
//
//   - ICE (Hu et al., MICRO'22): in-flash vector similarity search
//     that computes inside NAND dies on data stored in an
//     error-tolerant encoding. The encoding costs 8x storage for 4-bit
//     precision (32x for 8-bit), so every scan reads 8x (32x) more
//     pages than the logical data volume — the read amplification that
//     REIS's ESP approach avoids. ICE-ESP is the paper's idealized
//     variant that keeps 4-bit precision but drops the encoding
//     overhead.
//
//   - NDSearch (Wang et al., ISCA'24): near-data graph-traversal
//     search (HNSW / DiskANN). Traversal is sequential along the
//     search path and its irregular accesses underutilize plane
//     parallelism (Sec 3.2), so per-hop page reads are serialized up
//     to the beam width with a die-conflict penalty.
//
// Both models are mechanistic: they consume the same workload
// statistics as the REIS timing model (pages scanned, or measured
// graph hops) and the same device parameters, so the comparison varies
// only in the mechanism each accelerator actually differs by.
package rivals

import (
	"time"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// ICEConfig parameterizes the ICE model.
type ICEConfig struct {
	// precisionBits is the stored precision (4 in the paper's
	// comparison).
	precisionBits int
	// encodingOverhead is the storage/read amplification of the
	// error-tolerant format: 8x at 4-bit, 32x at 8-bit. 1 for ICE-ESP.
	encodingOverhead int
}

// ICE returns the configuration the paper compares against.
func ICE() ICEConfig { return ICEConfig{precisionBits: 4, encodingOverhead: 8} }

// ICEESP returns the idealized no-encoding variant of Sec 6.4.
func ICEESP() ICEConfig { return ICEConfig{precisionBits: 4, encodingOverhead: 1} }

// readAmplification returns how many pages ICE reads per page of
// binary (1-bit) embeddings REIS reads: the precision ratio times the
// encoding overhead.
func (c ICEConfig) readAmplification() float64 {
	return float64(c.precisionBits) * float64(c.encodingOverhead)
}

// Latency models one ICE query on the given SSD: the REIS-equivalent
// scan pages amplified by the encoding, read wave-parallel across
// planes with in-die compute, plus result transfer of the candidate
// list. ICE has no distance filter, no document retrieval and no
// rerank stage.
func (c ICEConfig) Latency(cfg ssd.Config, scanPages float64, candidates float64, entryBytes int) time.Duration {
	geo := cfg.Geo
	p := cfg.Flash
	pages := scanPages * c.readAmplification()
	waves := pages / float64(geo.Planes())
	if waves < 1 {
		waves = 1
	}
	// ICE senses with multi-step in-die computation; Flash-Cosmos-
	// style bulk ops cost roughly one extra compute step per page.
	perWave := p.ReadLatency(flash.ModeSLC) + p.LatchXOR + p.BitCountPage
	scan := time.Duration(waves * float64(perWave))
	xfer := time.Duration(candidates * float64(entryBytes) / geo.InternalBandwidth() * float64(time.Second))
	sel := cfg.QuickselectTime(int(candidates))
	// ICE also broadcasts the query into every die's compute path,
	// one die-load per channel position (same cost structure as REIS
	// without MPIBC support for the broadcast itself).
	broadcast := time.Duration(float64(geo.PageBytes) * float64(geo.DiesPerChannel) /
		p.DieInputBandwidth * float64(time.Second))
	return broadcast + scan + xfer + sel
}

// Energy estimates the query energy: amplified page reads dominate.
func (c ICEConfig) Energy(cfg ssd.Config, scanPages float64, total time.Duration) float64 {
	pages := scanPages * c.readAmplification()
	return pages*(cfg.Flash.EnergyReadPage+cfg.Flash.EnergyBitCount) +
		cfg.IdlePower*total.Seconds()
}

// NDSearchConfig parameterizes the NDSearch model.
type NDSearchConfig struct {
	// beamWidth is the number of candidates expanded concurrently
	// (HNSW ef); hops within a beam step can read in parallel.
	beamWidth int
	// dieConflictFactor derates the achievable parallelism due to the
	// irregular access pattern colliding on dies/channels (Sec 3.2
	// cites costly channel and chip conflicts). 0 < factor <= 1.
	dieConflictFactor float64
}

// NDSearch returns the configuration used in the Fig 11 comparison.
func NDSearch() NDSearchConfig {
	return NDSearchConfig{beamWidth: 64, dieConflictFactor: 0.5}
}

// Latency models one NDSearch query: hops page reads issued in beam
// batches; each batch's reads would be parallel on ideal hardware but
// irregular placement serializes a fraction of them.
func (c NDSearchConfig) Latency(cfg ssd.Config, hops float64) time.Duration {
	geo := cfg.Geo
	p := cfg.Flash
	par := float64(c.beamWidth) * c.dieConflictFactor
	if limit := float64(geo.Dies()); par > limit {
		par = limit
	}
	if par < 1 {
		par = 1
	}
	waves := hops / par
	if waves < 1 {
		waves = 1
	}
	perHop := p.ReadLatency(flash.ModeSLC) + p.LatchXOR
	// Each hop also moves the visited node (vector + adjacency list,
	// about one sub-page) to the compute unit.
	nodeBytes := 4096.0
	xfer := time.Duration(hops * nodeBytes / geo.InternalBandwidth() * float64(time.Second))
	return time.Duration(waves*float64(perHop)) + xfer
}

// Energy estimates NDSearch query energy.
func (c NDSearchConfig) Energy(cfg ssd.Config, hops float64, total time.Duration) float64 {
	return hops*cfg.Flash.EnergyReadPage + cfg.IdlePower*total.Seconds()
}
