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
// on one device or a shard router, a search is the same round-driven
// controller (controller.go) over a scan backend.
//
// A DRAM caching tier (ssd.Config.CacheDRAMBytes, off by default)
// serves repeated work at controller cost without ever changing
// results: the binary pages of the most-probed IVF clusters are pinned
// in controller DRAM and scanned there (reported as CachedPages/
// CachedSlots, partitioning exactly against the flash FinePages), and
// an LRU result cache keyed on the query and search options serves
// exact repeats of host commands — Submit and queue pairs; the direct
// Search* methods bypass it (ResultCacheHits).
// Appends, deletes and compactions invalidate both tiers atomically.
// `reisbench -exp skew` measures the tier under Zipfian query skew
// (see DESIGN.md, "DRAM caching tier").
//
// The engine is functional — every distance comes from real bytes
// moving through the simulated latches — while latency and energy are
// derived from the event counts each query accumulates (QueryStats).
package reis

import (
	"fmt"
	"sort"
	"sync"

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

// Engine is the in-storage retrieval system. Public API calls may be
// issued from any goroutine: the execution core (one command or one
// coalesced batch at a time, matching the single embedded controller
// core) is serialized internally, and queue pairs created with NewQueue
// provide the asynchronous, multi-tenant interface on top of it.
type Engine struct {
	SSD  *ssd.SSD
	FSM  *flash.DieFSM
	Opts Options

	// pool dispatches per-plane scan work onto one worker per die,
	// mirroring the device's channel/die parallelism.
	pool *planePool

	// execMu serializes the execution core: the engine scratch and the
	// pool worker arenas have exactly one running owner at a time
	// (batched admission and queue coalescing are the concurrency
	// mechanisms, not parallel API calls).
	execMu sync.Mutex

	// scr holds the engine-owned pooled buffers of the query pipeline;
	// see engineScratch for the ownership rules.
	scr engineScratch

	dbs map[int]*Database

	// jl is the append-only mutation journal: every committed append,
	// delete and compact is recorded under execMu, so replaying any
	// journal prefix on a fresh deploy reproduces the pre-crash state
	// bit for bit (see journal.go and DESIGN.md, "Concurrent GC, wear
	// leveling, and recovery").
	jl journal

	// testGCStepHook, when set, runs after each committed background GC
	// step with no locks held — the interleaving tests' probe point.
	testGCStepHook func()

	// reg tracks the queue pairs created with NewQueue for Close-time
	// teardown, plus the built-in pair behind the synchronous Submit
	// wrapper.
	reg queueRegistry
}

// Database is the on-device representation of one deployed vector
// database.
type Database struct {
	ID  int
	Dim int
	N   int

	rec ssd.DBRecord
	// regionSlots is the total slot count of the binary region,
	// including cluster-alignment padding (>= N).
	regionSlots int

	// Layout constants.
	slotBytes   int // binary embedding bytes (dim/8)
	embPerPage  int
	int8Bytes   int // INT8 embedding bytes (dim)
	int8PerPage int
	docBytes    int // document chunk slot size
	docsPerPage int

	// IVF structures; nil for flat (brute-force) databases.
	rivf []RIVFEntry

	params vecmath.Int8Params
	// filterThreshold is the calibrated distance-filter cutoff.
	filterThreshold int

	// calib records successful CalibrateNProbe outcomes so the
	// TargetRecall operand of IVF_Search commands can be resolved to a
	// concrete nprobe (see resolveSearchOptions). Any mutation
	// invalidates it: recall targets are only guaranteed against the
	// corpus they were calibrated on.
	calib []recallPoint

	// mut is the mutable-state ledger (posting-list segments, tombstone
	// bitmap, GC row accounting) of a whole-layout deploy; nil for a
	// shard slice, which is mutated through its router.
	mut *mutState

	// cache is the DRAM caching tier (hot-cluster pins + result cache);
	// nil unless the SSD config sets CacheDRAMBytes. A shard slice never
	// owns one — its router does.
	cache *dbCache
}

// recallPoint is one recorded calibration outcome: the smallest nprobe
// found to meet a Recall@k target.
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

// RIVFEntry is one element of the R-IVF array (Sec 4.2.1, structure B
// in Fig 4): the centroid's location, the positional range of the
// cluster's embeddings in the binary region, and the 8-bit tag.
type RIVFEntry struct {
	CentroidSlot int // slot index within the centroid region
	First, Last  int // embedding positions (inclusive) in the binary region
	Tag          uint8
}

// OOB layout per embedding slot: DADR (4B) | RADR (4B) | meta tag (1B).
const oobBytesPerSlot = 9

// InvalidDADR marks a padding slot (no embedding stored).
const InvalidDADR = ^uint32(0)

// New creates an engine over a fresh SSD of the given configuration,
// sized to hold capacityHint bytes (0 = preset size).
func New(cfg ssd.Config, capacityHint int64, opts Options) (*Engine, error) {
	dev, err := ssd.New(cfg, capacityHint)
	if err != nil {
		return nil, err
	}
	return &Engine{
		SSD:  dev,
		FSM:  flash.NewDieFSM(dev.Dev),
		Opts: opts,
		pool: newPlanePool(dev.Cfg.Geo),
		dbs:  make(map[int]*Database),
	}, nil
}

// DB returns a deployed database by id.
func (e *Engine) DB(id int) (*Database, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return e.db(id)
}

// db is DB without the execution lock, for use inside the core.
func (e *Engine) db(id int) (*Database, error) {
	db, ok := e.dbs[id]
	if !ok {
		return nil, fmt.Errorf("reis: unknown database %d", id)
	}
	return db, nil
}

// registry exposes the engine's queue bookkeeping to the shared queue
// implementation (part of the host interface).
func (e *Engine) registry() *queueRegistry { return &e.reg }

// Ready reports whether the engine can accept commands: true from
// construction until Close. Replica routers use it as the health
// probe behind a serving group's liveness endpoint.
func (e *Engine) Ready() bool { return !e.reg.isClosed() }

// dropDB unregisters a database, making its id reusable — the shard
// router's rollback when a multi-device deploy fails partway. The
// allocator is a bump cursor, so the dropped regions' stripes are not
// reclaimed; only the id and the R-DB record are.
func (e *Engine) dropDB(id int) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if _, ok := e.dbs[id]; ok {
		delete(e.dbs, id)
		e.SSD.RDB.Remove(id)
	}
}

// Close shuts down the engine's background goroutines: every queue
// pair created with NewQueue (pending commands complete with
// ErrQueueClosed) and the plane worker pool. The engine must not be
// closed while direct API calls are in flight; Close is idempotent —
// concurrent and repeated calls are safe — and an engine that is never
// closed simply parks its workers until process exit.
func (e *Engine) Close() error {
	for _, q := range e.reg.closeAll() {
		q.Close()
	}
	e.execMu.Lock()
	e.pool.stop()
	e.execMu.Unlock()
	return nil
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

// Deploy implements DB_Deploy (flat database). It reserves regions,
// writes embeddings, rerank copies and documents, and registers the
// database in the R-DB.
func (e *Engine) Deploy(cfg DeployConfig) (*Database, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	cfg.Centroids, cfg.Assign = nil, nil
	return e.deploy(cfg)
}

// IVFDeploy implements IVF_Deploy: like Deploy but the binary region
// is cluster-sorted and the R-IVF table is built.
func (e *Engine) IVFDeploy(cfg DeployConfig) (*Database, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return e.ivfDeploy(cfg)
}

// ivfDeploy is IVFDeploy without the execution lock, for the queue
// dispatcher.
func (e *Engine) ivfDeploy(cfg DeployConfig) (*Database, error) {
	if len(cfg.Centroids) == 0 || len(cfg.Assign) != len(cfg.Vectors) {
		return nil, fmt.Errorf("reis: IVFDeploy requires cluster info (centroids=%d assign=%d vectors=%d)",
			len(cfg.Centroids), len(cfg.Assign), len(cfg.Vectors))
	}
	return e.deploy(cfg)
}

func (e *Engine) deploy(cfg DeployConfig) (*Database, error) {
	if _, ok := e.dbs[cfg.ID]; ok {
		return nil, fmt.Errorf("reis: database %d already deployed", cfg.ID)
	}
	lo, err := planLayout(&cfg, e.SSD.Cfg.Geo, e.SSD.Cfg.OverprovisionPct)
	if err != nil {
		return nil, err
	}
	return e.install(cfg.ID, lo, lo.buildItems(&cfg), 0, 1)
}

// deployShard installs shard index s of nshards of a globally planned
// layout: every region holds the global pages g ≡ s (mod nshards) as
// local pages g / nshards, with unmodified page and OOB bytes. Because
// region page i lives on plane i mod planes, the union of the shards'
// planes reproduces, plane for plane, the placement a single device
// with nshards times the channels would compute — global plane j of
// that reference is shard j mod nshards, local plane j / nshards (see
// DESIGN.md, "Sharded topology"). OOB linkage keeps global ids; the
// shard never resolves DADR/RADR itself.
func (e *Engine) deployShard(id int, lo *dbLayout, items *layoutItems, s, nshards int) (*Database, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if _, ok := e.dbs[id]; ok {
		return nil, fmt.Errorf("reis: database %d already deployed", id)
	}
	return e.install(id, lo, items, s, nshards)
}

// install allocates regions for the layout's pages owned by shard
// (start, stride) — (0, 1) is the whole single-device layout — writes
// them, and registers the database. The caller holds e.execMu and has
// checked id uniqueness.
func (e *Engine) install(id int, lo *dbLayout, items *layoutItems, start, stride int) (*Database, error) {
	db := &Database{
		ID:              id,
		Dim:             lo.dim,
		N:               lo.n,
		slotBytes:       lo.slotBytes,
		embPerPage:      lo.embPerPage,
		int8Bytes:       lo.int8Bytes,
		int8PerPage:     lo.int8PerPage,
		docBytes:        lo.docBytes,
		docsPerPage:     lo.docsPerPage,
		params:          lo.params,
		filterThreshold: lo.filterThreshold,
	}
	// Every shard reserves capacity for the same number of stripes the
	// single-device-equivalent extent spans, so growth and GC erase the
	// same block-rows on every topology (planes per global stripe =
	// local planes × stride).
	localPlanes := e.SSD.Cfg.Geo.Planes()
	alloc := func(pages, capPages int, mode flash.CellMode, what string) (ssd.Region, error) {
		n := shardPages(pages, start, stride)
		localCap := ceilDiv(capPages, localPlanes*stride) * localPlanes
		if n == 0 && localCap == 0 {
			return ssd.Region{}, nil
		}
		r, err := e.SSD.AllocateRegion(n, localCap, mode)
		if err != nil {
			return ssd.Region{}, fmt.Errorf("reis: %s region: %w", what, err)
		}
		return r, nil
	}
	var err error
	var embR, int8R, docR, centR ssd.Region
	if embR, err = alloc(lo.embPages, lo.embCap, flash.ModeSLCESP, "embedding"); err != nil {
		return nil, err
	}
	// The binary region is row-mapped from birth: GC reclaims its
	// erase rows (one block per plane, on every shard the same block
	// index) back into the append free pool. The initial map is the
	// identity over the deployed rows; the row count is driven by the
	// global layout so every shard's map stays identical.
	embR.EnableRowMap(e.SSD.Cfg.Geo.PagesPerBlock,
		ceilDiv(lo.embPages, localPlanes*stride*lo.ppb))
	if centR, err = alloc(lo.centPages, lo.centPages, flash.ModeSLCESP, "centroid"); err != nil {
		return nil, err
	}
	if int8R, err = alloc(lo.int8Pages, lo.int8Cap, flash.ModeTLC, "INT8"); err != nil {
		return nil, err
	}
	if docR, err = alloc(lo.docPages, lo.docCap, flash.ModeTLC, "document"); err != nil {
		return nil, err
	}
	db.rec = ssd.DBRecord{
		ID: id, Embeddings: embR, Documents: docR, Centroids: centR, Int8s: int8R,
	}
	if err := e.SSD.RDB.Register(db.rec); err != nil {
		return nil, err
	}

	if err := e.writeSlotted(docR, items.docs, db.docBytes, db.docsPerPage, nil, start, stride); err != nil {
		return nil, err
	}
	if err := e.writeSlotted(int8R, items.int8s, db.int8Bytes, db.int8PerPage, nil, start, stride); err != nil {
		return nil, err
	}
	if err := e.writeSlotted(embR, items.bins, db.slotBytes, db.embPerPage, items.oobs, start, stride); err != nil {
		return nil, err
	}
	if items.cents != nil {
		if err := e.writeSlotted(centR, items.cents, db.slotBytes, db.embPerPage, nil, start, stride); err != nil {
			return nil, err
		}
	}
	if stride == 1 {
		// Whole-layout deploy: the engine owns the database end to end.
		// (Metadata tags live only in the OOB linkage, where the scan
		// reads them; the layout's metaTags exist for that encoding.)
		db.rivf = lo.rivf
		db.regionSlots = lo.regionSlots
		db.mut = newMutState(lo, e.SSD.Cfg.Geo, e.Opts.FirstFitPlacement)
		if cb := e.SSD.Cfg.CacheDRAMBytes; cb > 0 {
			geo := e.SSD.Cfg.Geo
			db.cache = newDBCache(cb, geo.PageBytes, geo.OOBBytes, len(lo.rivf))
		}
	} else {
		// A shard serves explicit scan ranges from the router; its
		// local slot count covers the owned pages only, and the global
		// R-IVF table stays with the router.
		db.regionSlots = embR.Pages() * db.embPerPage
	}

	// Page-level FTL metadata was needed for the writes above; flush
	// it now that coarse-grained access takes over (Sec 4.1.4).
	e.SSD.FTL.Drop(0, int64(e.SSD.Cfg.Geo.TotalPages()))

	e.dbs[id] = db
	return db, nil
}

// writeSlotted packs items (each at most slotBytes) into region pages,
// slotsPerPage per page, with optional per-item OOB records. Local
// page p of the region holds the items of global page start + p*stride
// — (0, 1) writes the whole item list, a shard writes its page-stride
// subset.
func (e *Engine) writeSlotted(r ssd.Region, items [][]byte, slotBytes, slotsPerPage int, oobs [][]byte, start, stride int) error {
	geo := e.SSD.Cfg.Geo
	page := make([]byte, geo.PageBytes)
	oob := make([]byte, geo.OOBBytes)
	for p := 0; p < r.Pages(); p++ {
		for i := range page {
			page[i] = 0
		}
		for i := range oob {
			oob[i] = 0
		}
		g := start + p*stride
		for s := 0; s < slotsPerPage; s++ {
			idx := g*slotsPerPage + s
			if idx >= len(items) {
				break
			}
			copy(page[s*slotBytes:(s+1)*slotBytes], items[idx])
			if oobs != nil {
				copy(oob[s*oobBytesPerSlot:(s+1)*oobBytesPerSlot], oobs[idx])
			}
		}
		if err := e.SSD.WriteRegionPage(r, p, page, oob); err != nil {
			return err
		}
	}
	return nil
}

func encodeLinkage(dadr, radr uint32, tag uint8) []byte {
	b := make([]byte, oobBytesPerSlot)
	putU32(b[0:], dadr)
	putU32(b[4:], radr)
	b[8] = tag
	return b
}

func decodeLinkage(b []byte) (dadr, radr uint32, tag uint8) {
	return getU32(b[0:]), getU32(b[4:]), b[8]
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// buildRIVF computes the per-cluster positional ranges of the
// cluster-sorted placement.
func buildRIVF(assign, order []int, nlist int) []RIVFEntry {
	entries := make([]RIVFEntry, nlist)
	for c := range entries {
		entries[c] = RIVFEntry{CentroidSlot: c, First: -1, Last: -1, Tag: uint8(c & 0xFF)}
	}
	for pos, id := range order {
		if id < 0 {
			continue // page-alignment padding
		}
		c := assign[id]
		if entries[c].First < 0 {
			entries[c].First = pos
		}
		entries[c].Last = pos
	}
	return entries
}

// calibrateFilter chooses the distance-filtering threshold offline
// (Sec 4.3.3). The paper tunes the threshold so ~99% of candidates are
// filtered while the true top-k still passes; we reproduce that by
// sampling database vectors as pseudo-queries, measuring their k'-th
// nearest Hamming distance within a sample of codes, and placing the
// threshold a safety margin above the largest of them. The sample is
// sparser than the full database, so the estimate errs high (passes
// more), never low.
func calibrateFilter(vectors [][]float32) int {
	const (
		pseudoQueries = 64
		sampleCodes   = 2048
		kSafety       = 32 // well above the paper's k=10 operating point
	)
	n := len(vectors)
	if n < 2 {
		return vecmath.WordsPerVector(len(vectors[0])) * 64
	}
	step := max(1, n/sampleCodes)
	var codes [][]uint64
	for i := 0; i < n; i += step {
		codes = append(codes, vecmath.BinaryQuantize(vectors[i], nil))
	}
	qStep := max(1, len(codes)/pseudoQueries)
	var kths []int
	for qi := 0; qi < len(codes); qi += qStep {
		var dists []int
		for ci, c := range codes {
			if ci == qi {
				continue
			}
			dists = append(dists, vecmath.Hamming(codes[qi], c))
		}
		sort.Ints(dists)
		kths = append(kths, dists[min(kSafety, len(dists)-1)])
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

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ThresholdFor reports the calibrated distance-filter threshold.
func (db *Database) ThresholdFor() int { return db.filterThreshold }

// Live returns the number of live (not tombstoned) entries; for a
// shard slice it falls back to the local slot bound.
func (db *Database) Live() int {
	if db.mut == nil {
		return db.regionSlots
	}
	return db.mut.live
}

// flatSegs returns the brute-force scan plan: the database's live
// slot ranges in scan order. A shard slice (no mutable ledger) serves
// its whole local region.
func (db *Database) flatSegs() []SlotRange {
	if db.mut != nil {
		return db.mut.flatPlan
	}
	return []SlotRange{{First: 0, Last: db.regionSlots - 1}}
}

// clusterSegs returns cluster c's posting list (nil when empty). Only
// whole-layout IVF databases reach this path, so mut is non-nil.
func (db *Database) clusterSegs(c int) []SlotRange { return db.mut.buckets[c] }

// tomb returns the tombstone bitmap consulted by the controller tail,
// or nil when nothing is deleted.
func (db *Database) tombstones() []uint64 {
	if db.mut == nil || db.mut.deadCount == 0 {
		return nil
	}
	return db.mut.tomb
}

// Append implements the OpcodeAppend host command synchronously,
// returning the assigned entry ids.
func (e *Engine) Append(dbID int, cfg AppendConfig) ([]int, error) {
	return submitAppend(e, dbID, cfg)
}

// Delete implements the OpcodeDelete host command synchronously.
func (e *Engine) Delete(dbID int, ids ...int) error { return submitDelete(e, dbID, ids) }

// Compact implements the OpcodeCompact host command: garbage
// collection of under-occupied GC rows. Through a queue the collector
// runs as a background activity, one copy-forward step per victim row
// interleaved with foreground searches; this synchronous wrapper
// blocks until the command completes either way.
func (e *Engine) Compact(dbID int, minLiveRatio float64) (WearStats, error) {
	return submitCompact(e, dbID, minLiveRatio)
}

// gcPlan, gcStep and gcFinish are the scheduler's view of one
// background compaction (the host side of queue.go's GC flights):
// plan the victim rows once, collect one row per step, then complete
// the command. Each acquires the execution lock on its own, so
// foreground searches run between any two steps.
func (e *Engine) gcPlan(cmd *HostCommand) ([]int, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	db, err := e.db(cmd.DBID)
	if err != nil {
		return nil, err
	}
	if db.mut == nil {
		return nil, fmt.Errorf("reis: database %d is a shard slice; mutate through its router", cmd.DBID)
	}
	return mutGCVictims(db.mut, cmd.Compact.MinLiveRatio), nil
}

func (e *Engine) gcStep(cmd *HostCommand, row int, acc *WearStats) error {
	e.execMu.Lock()
	db, err := e.db(cmd.DBID)
	if err != nil {
		e.execMu.Unlock()
		return err
	}
	err = mutGCStep(db.mut, engineMutTarget{e, db}, row, acc)
	if err == nil {
		db.regionSlots = db.mut.tailSlots
		db.calib = nil
		db.cache.invalidate()
	}
	hook := e.testGCStepHook
	e.execMu.Unlock()
	if err == nil && hook != nil {
		hook()
	}
	return err
}

func (e *Engine) gcFinish(cmd *HostCommand, acc *WearStats) (HostResponse, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	db, err := e.db(cmd.DBID)
	if err != nil {
		return HostResponse{}, err
	}
	db.mut.fillWear(acc, engineMutTarget{e, db})
	e.jl.logCompact(cmd.DBID, cmd.Compact.MinLiveRatio)
	w := *acc
	return HostResponse{Done: true, Wear: &w}, nil
}

// JournalBytes returns a copy of the mutation journal: the byte-exact
// record of every committed append, delete and compact since the
// engine started, in application order. Persist it (at any prefix
// ending on a record boundary) and replay it on a freshly deployed
// engine to reconstruct the pre-crash state.
//
// The wire format is a flat record sequence (integers little-endian,
// uvarint as in encoding/binary):
//
//	record  := opcode:u8 dbid:uvarint body
//	append  := n:uvarint dim:uvarint vec[n*dim]:f32bits
//	           { doclen:uvarint docbytes }*n
//	           nassign:uvarint { cluster:uvarint }*nassign
//	           tags:u8 { tag:u8 }*n        (tags=1 iff MetaTags present)
//	delete  := nids:uvarint { id:uvarint }*nids
//	compact := minLiveRatio:f64bits
//
// Deploys are not journaled: recovery re-deploys from the immutable
// deploy configuration first, then replays (see ReplayJournal).
func (e *Engine) JournalBytes() []byte {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return append([]byte(nil), e.jl.buf...)
}

// ReplayJournal re-applies a journal (or any record-aligned prefix of
// one) through the normal command path. The databases it names must be
// deployed with the same deploy configuration as the journaling
// engine's; replayed mutations are journaled again, so the rebuilt
// engine's journal continues where the prefix ended.
func (e *Engine) ReplayJournal(data []byte) error {
	return replayJournal(e, data)
}

// Record exposes the R-DB record (for tests and tools).
func (db *Database) Record() ssd.DBRecord { return db.rec }

// NList returns the number of IVF clusters (0 for flat databases).
func (db *Database) NList() int { return len(db.rivf) }

// EmbPerPage returns the binary-embedding slots per flash page.
func (db *Database) EmbPerPage() int { return db.embPerPage }
