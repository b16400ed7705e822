// Package reis implements the paper's contribution: a retrieval system
// for RAG that executes Approximate Nearest Neighbor Search inside the
// storage device using only pre-existing hardware.
//
// The engine combines the three key mechanisms of Sec 4:
//
//  1. Database layout (Sec 4.1): embeddings and documents in separate
//     plane-striped regions; SLC-ESP for binary embeddings, TLC for
//     documents and INT8 rerank copies; per-embedding document and
//     rerank addresses (DADR/RADR) in the page OOB area; coarse-grained
//     R-DB addressing instead of page-level FTL.
//  2. ISP-tailored IVF (Sec 4.2): cluster-sorted embedding placement,
//     the R-IVF cluster table in controller DRAM, coarse centroid
//     search then fine in-cluster scan.
//  3. In-storage ANNS engine (Sec 4.3): query broadcast (IBC/MPIBC),
//     latch XOR + fail-bit counting for Hamming distances, distance
//     filtering with the pass/fail checker, TTL entries streamed to
//     controller DRAM, quickselect + INT8 rerank + quicksort on an
//     embedded core, and pipelined page reads.
//
// On top of the paper's mechanisms the engine supports threshold-
// propagated top-k pruning (SearchOptions.Prune): the scan runs in
// controller-driven rounds whose GEN_DIST_PAGE commands carry the
// query's current top-k distance bound, so planes skip the TTL
// transfer of slots that cannot reach the rerank pool and abort whole
// cluster segments whose triangle-inequality lower bound exceeds it —
// with results bit-identical to the unpruned scan on every topology
// (see DESIGN.md, "Threshold propagation and pruning"). Pruned or not,
// a search is the same round-driven controller (controller.go) of the
// one host core (host.go) — over one device in an Engine, over N in a
// ShardedEngine — whose scan rounds run on every device in place
// (batch.go).
//
// A DRAM caching tier (ssd.Config.CacheDRAMBytes, off by default)
// serves repeated work at controller cost without ever changing
// results: the most-probed IVF clusters' binary pages are pinned and
// scanned in controller DRAM (CachedPages/CachedSlots) where the timing
// model says that beats the planes, and an LRU result cache serves exact
// repeats of host commands (ResultCacheHits) from the rest of the one
// budget. Appends, deletes and compactions invalidate both tiers
// atomically (see DESIGN.md, "DRAM caching tier").
//
// The engine is functional — every distance comes from real bytes
// moving through the simulated latches — while latency and energy are
// derived from the event counts each query accumulates (QueryStats).
package reis

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"reis/internal/flash"
	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// Options toggles the engine optimizations studied in the Fig 9
// sensitivity sweep. The zero value is the paper's No-OPT baseline;
// AllOptions is full REIS.
type Options struct {
	// DistanceFilter discards embeddings whose Hamming distance
	// exceeds the calibrated threshold inside the die (Sec 4.3.3).
	DistanceFilter bool
	// Pipelining overlaps page reads with latch compute, channel
	// transfer and controller selection (Sec 4.3.4).
	Pipelining bool
	// MPIBC broadcasts the query to all planes of a die concurrently
	// (Sec 4.3.4).
	MPIBC bool
	// FirstFitPlacement disables wear-aware free-row selection for
	// appends and GC copy-forward: the lowest free physical row wins,
	// as the original bump allocator would place. Kept as the baseline
	// of the wear-leveling experiment; leave false for production
	// behaviour.
	FirstFitPlacement bool
}

// AllOptions enables every optimization (the default REIS config).
func AllOptions() Options {
	return Options{DistanceFilter: true, Pipelining: true, MPIBC: true}
}

// device is one simulated SSD: the SSD (its flash.Device is the dies'
// command interface), the plane worker pool that scans in place and that
// scan's scratch. It holds no host state and never calls into a host
// core.
type device struct {
	SSD  *ssd.SSD
	Opts Options

	// pool dispatches per-plane scan work onto one worker per die,
	// mirroring the device's channel/die parallelism.
	pool *planePool

	// mu is the device lock: the allocator and flash, the region bounds
	// of the device's slices, the device scratch and the pool worker
	// arenas have exactly one running owner at a time. It nests inside a
	// host core's execMu, never around it (see host.go).
	mu sync.Mutex

	// closed is set by close: the device refuses every scan round. It is
	// read without mu, so Ready never waits behind a running command.
	closed atomic.Bool

	// scr holds the device-owned pooled buffers of the scan pipeline;
	// see deviceScratch for the ownership rules.
	scr deviceScratch
}

func newDevice(cfg ssd.Config, capacityHint int64, opts Options) (*device, error) {
	dev, err := ssd.New(cfg, capacityHint)
	if err != nil {
		return nil, err
	}
	return &device{SSD: dev, Opts: opts, pool: newPlanePool(dev.Cfg.Geo)}, nil
}

// close stops the device's plane workers for good.
func (d *device) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed.Store(true)
	d.pool.stop()
}

// Engine is the in-storage retrieval system on one simulated device: the
// device (SSD, Opts) and the host core over it (devs = [it]). A
// command enters through Submit, or SubmitAsync on a queue pair created
// with NewQueue — the Table 1 command set and its mutation extension,
// nothing beside them — from any goroutine: the host core serializes
// execution (one command or one coalesced batch at a time, matching the
// single embedded controller core). Submit, NewQueue, CalibrateNProbe,
// the journal pair, Ready and Close are the core's, promoted; the methods
// declared on Engine are the ones whose shape is a single device's (DB
// and the timing model's Database operand). ShardedEngine.Shard returns
// an Engine whose host half is closed: a view of one of its devices.
type Engine struct {
	*device
	hostCore
}

// Database is the on-device representation of one deployed vector
// database.
type Database struct {
	rec ssd.DBRecord
	// The device holds global pages g ≡ start (mod stride) of every
	// region as local pages g / stride; (0, 1) is the whole layout.
	start, stride int

	// The host's layout plan, shared by every device: the page format,
	// the cluster count and the calibrated distance-filter cutoff are
	// read through it.
	*dbLayout
	// tlc is the host's live extent of the INT8 and document regions
	// (mutState.tlc), shared by every device: the timing model spreads
	// tail reads over it.
	tlc *tlcExtent
}

// tlcPages is the live global extent, in pages, of the INT8 and document
// regions.
func (db *Database) tlcPages() (int8Pages, docPages int) {
	return int(db.tlc.int8Pages.Load()), int(db.tlc.docPages.Load())
}

// recallPoint is one recorded calibration outcome: the smallest nprobe
// found to meet a Recall@k target. A host database records them so the
// TargetRecall operand of IVF_Search commands can be resolved to a
// concrete nprobe (see resolveSearchOptions); any mutation invalidates
// them — recall targets are only guaranteed against the corpus they
// were calibrated on.
type recallPoint struct {
	target float64
	nprobe int
}

// nprobeForRecall resolves a target recall against recorded
// calibration points: the smallest nprobe whose calibrated target
// covers the request. ok is false when nothing calibrated covers it.
func nprobeForRecall(calib []recallPoint, target float64) (nprobe int, ok bool) {
	for _, p := range calib {
		if p.target >= target && (!ok || p.nprobe < nprobe) {
			nprobe, ok = p.nprobe, true
		}
	}
	return nprobe, ok
}

// New creates an engine over a fresh SSD of the given configuration,
// sized to hold capacityHint bytes (0 = preset size).
func New(cfg ssd.Config, capacityHint int64, opts Options) (*Engine, error) {
	d, err := newDevice(cfg, capacityHint, opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{device: d}
	e.init([]*device{d}, false)
	return e, nil
}

// DB returns a deployed database by id: the whole layout, the one slice
// in the host's table. A view of a ShardedEngine's device is not a host
// of any database and answers none.
func (e *Engine) DB(id int) (*Database, error) {
	db, err := e.hostDB(id)
	if err != nil {
		return nil, err
	}
	return db.locals[0], nil
}

// DeployConfig carries the host-provided deployment parameters.
type DeployConfig struct {
	ID int
	// Vectors are the database embeddings (host precision).
	Vectors [][]float32
	// Docs are the linked document chunks; Docs[i] belongs to
	// Vectors[i]. Each must fit in DocSlotBytes.
	Docs [][]byte
	// DocSlotBytes is the per-chunk slot size (default 4096, the
	// 4 KiB sub-page granularity of Sec 4.1.1).
	DocSlotBytes int
	// Cluster information for IVF deployment (Table 1: IVF_Deploy's
	// CI operand). Leave nil for a flat database.
	Centroids [][]float32
	Assign    []int
	// MetaTags optionally tags each entry for metadata filtering
	// (Sec 7.1).
	MetaTags []uint8
}

// install reserves regions for the pages of a globally planned layout
// that device (start, stride) owns and returns the device's slice with
// its R-DB record; the host programs the pages and then enters the slice
// in its table (hostCore.deploy). Every region holds the global pages
// g ≡ start (mod stride) as local pages g / stride — (0, 1) is the whole
// layout — which reproduces, plane for plane, the placement of one device
// with stride times the channels (shard.go, "Partitioning scheme"). The
// centroid pages are live from the start; the binary, INT8 and document
// regions start empty, with an empty row map, and the deploy's append
// grows them as it grows any append's.
func (d *device) install(id int, lo *dbLayout, start, stride int) (*Database, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	db := &Database{dbLayout: lo, start: start, stride: stride}
	// Every shard reserves capacity for the same number of stripes the
	// single-device-equivalent extent spans, so growth and GC erase the
	// same block-rows on every topology (planes per global stripe =
	// local planes × stride).
	localPlanes := d.SSD.Cfg.Geo.Planes()
	alloc := func(pages, capPages int, mode flash.CellMode, what string) (ssd.Region, error) {
		localCap := ceilDiv(capPages, localPlanes*stride) * localPlanes
		if localCap == 0 {
			return ssd.Region{}, nil
		}
		r, err := d.SSD.AllocateRegion(shardPages(pages, start, stride), localCap, mode)
		if err != nil {
			return ssd.Region{}, fmt.Errorf("reis: %s region: %w", what, err)
		}
		return r, nil
	}
	var err error
	var embR, int8R, docR, centR ssd.Region
	if embR, err = alloc(0, lo.embCap, flash.ModeSLCESP, "embedding"); err != nil {
		return nil, err
	}
	// The binary region is row-mapped from birth: GC reclaims its erase
	// rows (one block per plane, on every shard the same block index)
	// back into the append free pool, from which appends — the deploy's
	// first — bind them.
	embR.EnableRowMap(d.SSD.Cfg.Geo.PagesPerBlock, 0)
	if centR, err = alloc(lo.centPages, lo.centPages, flash.ModeSLCESP, "centroid"); err != nil {
		return nil, err
	}
	if int8R, err = alloc(0, lo.int8Cap, flash.ModeTLC, "INT8"); err != nil {
		return nil, err
	}
	if docR, err = alloc(0, lo.docCap, flash.ModeTLC, "document"); err != nil {
		return nil, err
	}
	db.rec = ssd.DBRecord{
		ID: id, Embeddings: embR, Documents: docR, Centroids: centR, Int8s: int8R,
	}
	return db, nil
}

// calibrationSample is the sample both deploy-time calibrations read:
// the binary codes of about calibrationCodes database vectors, evenly
// strided.
func calibrationSample(vectors [][]float32) [][]uint64 {
	const calibrationCodes = 2048
	step := max(1, len(vectors)/calibrationCodes)
	var codes [][]uint64
	for i := 0; i < len(vectors); i += step {
		codes = append(codes, vecmath.BinaryQuantize(vectors[i], nil))
	}
	return codes
}

// calibrateFilter chooses the distance-filtering threshold offline
// (Sec 4.3.3). The paper tunes the threshold so ~99% of candidates are
// filtered while the true top-k still passes; we reproduce that by
// sampling database vectors as pseudo-queries, measuring their k'-th
// nearest Hamming distance within the sample of codes, and placing the
// threshold a safety margin above the largest of them. The sample is
// sparser than the full database, so the estimate errs high (passes
// more), never low.
func calibrateFilter(codes [][]uint64) int {
	const (
		pseudoQueries = 64
		kSafety       = 32 // well above the paper's k=10 operating point
	)
	if len(codes) < 2 {
		return len(codes[0]) * 64
	}
	qStep := max(1, len(codes)/pseudoQueries)
	// Each pseudo-query's k'-th distance (0-based, over its n − 1 others)
	// is read off a histogram: a Hamming distance lies in [0, 64·words].
	rank := min(kSafety, len(codes)-2)
	hist := make([]int, 64*len(codes[0])+1)
	var kths []int
	for qi := 0; qi < len(codes); qi += qStep {
		clear(hist)
		for ci, c := range codes {
			if ci != qi {
				hist[vecmath.Hamming(codes[qi], c)]++
			}
		}
		d, below := 0, hist[0]
		for below <= rank {
			d++
			below += hist[d]
		}
		kths = append(kths, d)
	}
	// Use the median of the per-pseudo-query k'-th distances: robust
	// against outlier pseudo-queries in sparse regions (whose k'-th
	// neighbor sits at near-random distance and would disable the
	// filter entirely), while a 25% margin plus a small floor keeps
	// genuinely similar pairs passing.
	sort.Ints(kths)
	med := kths[len(kths)/2]
	return med + med/4 + 2
}

// calibrateCoarseCut builds the coarse round's cutoff table offline:
// cut[n-1], for n = 1..nlist, is the 0.99 quantile (nearest rank) over
// the sample of codes of each code's n-th smallest Hamming distance to a
// centroid code. A query whose n-th nearest centroid lies at or under cut[n-1]
// — about 99 of 100 queries drawn like the database — has its whole
// top-n at or under it, so the cut is a transfer filter, not a recall
// knob: the controller re-runs the round uncut for the rest
// (controller.run). The table is nondecreasing in n.
func calibrateCoarseCut(codes, centCodes [][]uint64) []int {
	m, nlist := len(codes), len(centCodes)
	// nth[j*m+i] is code i's (j+1)-th smallest distance.
	nth := make([]int32, nlist*m)
	dists := make([]int32, nlist)
	for i, code := range codes {
		for c, cc := range centCodes {
			dists[c] = int32(vecmath.Hamming(code, cc))
		}
		slices.Sort(dists)
		for j, d := range dists {
			nth[j*m+i] = d
		}
	}
	rank := ceilDiv(99*m, 100) - 1
	cut := make([]int, nlist)
	for j := range cut {
		col := nth[j*m : (j+1)*m]
		slices.Sort(col)
		cut[j] = int(col[rank])
	}
	return cut
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// centroidSlots is the centroids this device's slice holds: what one
// coarse round ranks here (the centroid region's pages g ≡ start mod
// stride, the last one partly filled).
func (db *Database) centroidSlots() int {
	n := 0
	for g := db.start; g < db.centPages; g += db.stride {
		n += min(db.embPerPage, db.nlist()-g*db.embPerPage)
	}
	return n
}

// Record exposes the slice's R-DB record (for tests and tools).
func (db *Database) Record() ssd.DBRecord { return db.rec }

// EmbPerPage returns the binary-embedding slots per flash page.
func (db *Database) EmbPerPage() int { return db.embPerPage }
