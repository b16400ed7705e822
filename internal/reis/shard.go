package reis

import (
	"context"
	"fmt"
	"sync"

	"reis/internal/ssd"
)

// This file implements the sharded topology: one database partitioned
// across N simulated SSD devices with scatter-gather search.
//
// Partitioning scheme. The router plans the database layout exactly as
// a single device would (planLayout: same placement order, padding,
// page counts) and then stripes the planned pages round-robin across
// the shards: global page g lives on shard g mod N as local page
// g / N. Each shard is a full device built verbatim from the shared
// config, so with region striping (page i → plane i mod planes) the
// union of the shards' planes is plane-for-plane identical to ONE
// device with N times the channels: global plane j of that reference
// device is shard j mod N, local plane j / N. Every region (binary
// embeddings, centroids, INT8 copies, documents) is striped the same
// way, and OOB linkage keeps global ids. Scale-out is therefore real —
// N devices carry N times the planes and channels of one — while the
// equivalence target stays exact.
//
// Scatter-gather. A search fans out OpcodeScan commands through one
// queue pair per shard (the router's "driver" view of each device):
// per query, the global slot ranges are translated into each shard's
// local coordinates; each shard runs the ordinary batched scan
// pipeline over its pages and returns the surviving TTL entries per
// (query, segment). The router remaps local positions to global ones,
// k-way merges the per-shard streams in global position order
// (mergeEntryLists — the same merge the engine uses across planes),
// and runs the shared controller tail (runTail) over the merged
// stream, fetching INT8 and document pages from whichever shard owns
// them.
//
// Determinism. Because the merged entry stream is element-identical to
// what a single device's scan produces — same entries, same order,
// same distances — and the tail is the same code over the same page
// bytes, sharded results are bit-identical to a single-device engine
// over the same data, for any shard count and any geometry (the entry
// stream does not depend on plane counts). Stats are bit-identical to
// the N-times-channels reference device: per-entry and per-page counts
// sum across shards, and per-segment wave counts (parallel critical
// path) aggregate by maximum, which equals the reference value because
// per-plane page loads match plane for plane. See DESIGN.md, "Sharded
// topology".

// ShardedEngine is a scatter-gather router over N single-device
// engines. It implements the same host surface as Engine — Deploy /
// IVFDeploy, Search / SearchBatch / IVFSearch / IVFSearchBatch,
// Submit, NewQueue (asynchronous queue pairs dispatch into the
// router), CalibrateNProbe, Close — with results bit-identical to a
// single device over the same data.
type ShardedEngine struct {
	cfg  ssd.Config // single-device-equivalent configuration (N× the shared config's channels)
	opts Options

	shards []*shardDev

	// execMu serializes the router's execution core: the scatter
	// phases, the gather-side merge and controller tail share the
	// router scratch under a single running owner, mirroring
	// Engine.execMu.
	execMu sync.Mutex
	scr    routerScratch
	dbs    map[int]*ShardedDatabase
	closed bool

	// jl is the router's append-only mutation journal (see journal.go);
	// it records the same byte stream a single-device engine would, so
	// a journal captured on one topology replays on any other.
	jl journal

	// testGCStepHook, when set, runs after each committed background GC
	// step with no locks held — the interleaving tests' probe point.
	testGCStepHook func()

	// reg tracks the queue pairs created with NewQueue on the router
	// itself (not the per-shard scatter queues, which belong to the
	// member engines).
	reg queueRegistry
}

// shardDev is one member device plus the router's queue pair into it.
type shardDev struct {
	e *Engine
	q *Queue
}

// routerScratch is the gather side's pooled state; the execMu holder
// owns it.
type routerScratch struct {
	tail  tailScratch
	src   shardTailSource
	lists [][]TTLEntry
	// The search controller's per-query state (controller.go) and the
	// pooled command ids of a scatter.
	ctrl ctrlScratch
	ids  []CommandID
}

// ShardedDatabase is the router's view of one database partitioned
// across the shards: the global layout plan (R-IVF table, quantization
// parameters, filter threshold) plus the per-shard sub-databases.
type ShardedDatabase struct {
	ID  int
	Dim int
	N   int

	lay    *dbLayout
	locals []*Database // locals[s] is shard s's page-stride slice
	calib  []recallPoint

	// mut is the router's mutable-state ledger — the same geometry-
	// independent structure a single device keeps, evolved by the same
	// code, which is what makes sharded mutation outcomes bit-identical
	// to the reference device.
	mut *mutState

	// cache is the router's DRAM caching tier (nil unless the shared
	// config sets CacheDRAMBytes). The shard-local Databases never
	// consult one: pinned-cluster scans and result-cache hits are
	// served by the router before any scatter, so cached work appears
	// only in the aggregate QueryStats, never in a per-shard row.
	cache *dbCache
}

// Live returns the number of live (not tombstoned) entries.
func (db *ShardedDatabase) Live() int { return db.mut.live }

// NList returns the number of IVF clusters (0 for flat databases).
func (db *ShardedDatabase) NList() int { return len(db.lay.rivf) }

// ThresholdFor reports the calibrated distance-filter threshold
// (global: every shard scans under the same threshold).
func (db *ShardedDatabase) ThresholdFor() int { return db.lay.filterThreshold }

// NewSharded builds a sharded engine of n member devices, each
// constructed verbatim from the shared configuration. The shard union
// is plane-for-plane identical to one device with n times the
// channels — the reference the determinism contract is pinned against
// (results are bit-identical to ANY single device over the same data;
// stats to that reference). capacityHint is the total data volume;
// each shard is sized for its 1/n share.
func NewSharded(cfg ssd.Config, n int, capacityHint int64, opts Options) (*ShardedEngine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reis: shard count %d must be positive", n)
	}
	per := cfg
	equiv := cfg
	equiv.Geo.Channels *= n
	hint := (capacityHint + int64(n) - 1) / int64(n)
	sh := &ShardedEngine{cfg: equiv, opts: opts, dbs: make(map[int]*ShardedDatabase)}
	for s := 0; s < n; s++ {
		e, err := New(per, hint, opts)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("reis: shard %d: %w", s, err)
		}
		q, err := e.NewQueue(QueueConfig{})
		if err != nil {
			e.Close()
			sh.Close()
			return nil, err
		}
		sh.shards = append(sh.shards, &shardDev{e: e, q: q})
	}
	return sh, nil
}

// Shards returns the number of member devices.
func (sh *ShardedEngine) Shards() int { return len(sh.shards) }

// Ready reports whether the router can accept commands: true from
// construction until Close, and only while every member device is
// still ready (a closed member would fail any scatter that touches
// it). The same health probe Engine.Ready provides.
func (sh *ShardedEngine) Ready() bool {
	if sh.reg.isClosed() {
		return false
	}
	for _, d := range sh.shards {
		if !d.e.Ready() {
			return false
		}
	}
	return true
}

// Shard exposes member device s (for tests and tools).
func (sh *ShardedEngine) Shard(s int) *Engine { return sh.shards[s].e }

// DB returns a deployed database by id.
func (sh *ShardedEngine) DB(id int) (*ShardedDatabase, error) {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	return sh.db(id)
}

// db is DB without the execution lock, for use inside the core.
func (sh *ShardedEngine) db(id int) (*ShardedDatabase, error) {
	db, ok := sh.dbs[id]
	if !ok {
		return nil, fmt.Errorf("reis: unknown database %d", id)
	}
	return db, nil
}

// registry exposes the router's queue bookkeeping (host interface).
func (sh *ShardedEngine) registry() *queueRegistry { return &sh.reg }

// NewQueue creates an asynchronous queue pair whose dispatcher
// executes on the sharded router — the same NVMe-style interface
// Engine.NewQueue provides over a single device.
func (sh *ShardedEngine) NewQueue(cfg QueueConfig) (*Queue, error) { return newQueue(sh, cfg) }

// Submit executes one host command synchronously through the router's
// built-in queue pair (mirroring Engine.Submit).
func (sh *ShardedEngine) Submit(cmd HostCommand) (HostResponse, error) {
	q, err := sh.reg.defaultQueue(func() (*Queue, error) { return sh.NewQueue(QueueConfig{}) })
	if err != nil {
		return HostResponse{}, err
	}
	id, err := q.submit(context.Background(), cmd, true)
	if err != nil {
		return HostResponse{}, err
	}
	return q.Wait(context.Background(), id)
}

// Close shuts down the router's own queue pairs, then every member
// device (whose engines close their scatter queues and plane pools).
// Close is idempotent and safe to call from multiple goroutines; the
// router must not be closed while direct API calls are in flight.
func (sh *ShardedEngine) Close() error {
	for _, q := range sh.reg.closeAll() {
		q.Close()
	}
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	sh.closed = true
	for _, d := range sh.shards {
		d.e.Close()
	}
	return nil
}

// Deploy implements DB_Deploy across the shards (flat database).
func (sh *ShardedEngine) Deploy(cfg DeployConfig) (*ShardedDatabase, error) {
	cfg.Centroids, cfg.Assign = nil, nil
	return sh.deploy(cfg)
}

// IVFDeploy implements IVF_Deploy across the shards: the cluster-
// sorted placement and the R-IVF table are planned globally (the
// router keeps the table in its controller DRAM), then page-striped.
func (sh *ShardedEngine) IVFDeploy(cfg DeployConfig) (*ShardedDatabase, error) {
	if len(cfg.Centroids) == 0 || len(cfg.Assign) != len(cfg.Vectors) {
		return nil, fmt.Errorf("reis: IVFDeploy requires cluster info (centroids=%d assign=%d vectors=%d)",
			len(cfg.Centroids), len(cfg.Assign), len(cfg.Vectors))
	}
	return sh.deploy(cfg)
}

func (sh *ShardedEngine) deploy(cfg DeployConfig) (*ShardedDatabase, error) {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	if sh.closed {
		return nil, fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	if _, ok := sh.dbs[cfg.ID]; ok {
		return nil, fmt.Errorf("reis: database %d already deployed", cfg.ID)
	}
	lo, err := planLayout(&cfg, sh.cfg.Geo, sh.cfg.OverprovisionPct)
	if err != nil {
		return nil, err
	}
	items := lo.buildItems(&cfg)
	db := &ShardedDatabase{ID: cfg.ID, Dim: lo.dim, N: lo.n, lay: lo, mut: newMutState(lo, sh.cfg.Geo, sh.opts.FirstFitPlacement)}
	if cb := sh.cfg.CacheDRAMBytes; cb > 0 {
		// Sized from the single-device-equivalent config, so the pin
		// budget and page cost match the reference device exactly.
		db.cache = newDBCache(cb, sh.cfg.Geo.PageBytes, sh.cfg.Geo.OOBBytes, len(lo.rivf))
	}
	for s, dev := range sh.shards {
		local, err := dev.e.deployShard(cfg.ID, lo, items, s, len(sh.shards))
		if err != nil {
			// Roll the id back off the shards that already succeeded,
			// so a failed deploy does not poison it (the bump-cursor
			// allocator cannot reclaim the written stripes, but the id
			// and R-DB records are freed for a retry).
			for _, done := range sh.shards[:s] {
				done.e.dropDB(cfg.ID)
			}
			return nil, fmt.Errorf("reis: shard %d: %w", s, err)
		}
		db.locals = append(db.locals, local)
	}
	sh.dbs[cfg.ID] = db
	return db, nil
}

// execCmd serves one validated command (host interface).
func (sh *ShardedEngine) execCmd(ctx context.Context, cmd *HostCommand) (HostResponse, error) {
	switch cmd.Opcode {
	case OpcodeDBDeploy:
		cfg := *cmd.Deploy
		cfg.Centroids, cfg.Assign = nil, nil
		_, err := sh.deploy(cfg)
		return HostResponse{Done: err == nil}, err
	case OpcodeIVFDeploy:
		_, err := sh.IVFDeploy(*cmd.Deploy)
		return HostResponse{Done: err == nil}, err
	case OpcodeSearch, OpcodeIVFSearch:
		return execSearch(sh, ctx, cmd)
	case OpcodeAppend, OpcodeDelete, OpcodeCompact:
		sh.execMu.Lock()
		defer sh.execMu.Unlock()
		if sh.closed {
			return HostResponse{}, fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
		}
		db, err := sh.db(cmd.DBID)
		if err != nil {
			return HostResponse{}, err
		}
		resp, err := executeMutation(db.mut, shardMutTarget{sh: sh, db: db}, cmd)
		if err == nil {
			db.calib = nil
			db.cache.invalidate()
			sh.jl.logCmd(cmd)
		}
		return resp, err
	default:
		// OpcodeScan is the router's *scatter* operand; it addresses a
		// member device, never the router itself.
		return HostResponse{}, fmt.Errorf("%w %#x (not served by a sharded host)", ErrUnknownOpcode, cmd.Opcode)
	}
}

// gcPlan, gcStep and gcFinish mirror Engine's background-compaction
// surface (queue.go's GC flights) on the router: the victim plan, each
// copy-forward step and the completion all evolve the shared mutState
// with the same code, so background GC on a sharded topology commits
// the same state and WearStats as the single-device reference.
func (sh *ShardedEngine) gcPlan(cmd *HostCommand) ([]int, error) {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	if sh.closed {
		return nil, fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	db, err := sh.db(cmd.DBID)
	if err != nil {
		return nil, err
	}
	return mutGCVictims(db.mut, cmd.Compact.MinLiveRatio), nil
}

func (sh *ShardedEngine) gcStep(cmd *HostCommand, row int, acc *WearStats) error {
	sh.execMu.Lock()
	if sh.closed {
		sh.execMu.Unlock()
		return fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	db, err := sh.db(cmd.DBID)
	if err != nil {
		sh.execMu.Unlock()
		return err
	}
	err = mutGCStep(db.mut, shardMutTarget{sh: sh, db: db}, row, acc)
	if err == nil {
		db.calib = nil
		db.cache.invalidate()
	}
	hook := sh.testGCStepHook
	sh.execMu.Unlock()
	if err == nil && hook != nil {
		hook()
	}
	return err
}

func (sh *ShardedEngine) gcFinish(cmd *HostCommand, acc *WearStats) (HostResponse, error) {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	db, err := sh.db(cmd.DBID)
	if err != nil {
		return HostResponse{}, err
	}
	db.mut.fillWear(acc, shardMutTarget{sh: sh, db: db})
	sh.jl.logCompact(cmd.DBID, cmd.Compact.MinLiveRatio)
	w := *acc
	return HostResponse{Done: true, Wear: &w}, nil
}

// JournalBytes returns a copy of the router's mutation journal; see
// Engine.JournalBytes. The byte stream is topology-independent: a
// journal captured here replays on a single device and vice versa.
func (sh *ShardedEngine) JournalBytes() []byte {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	return append([]byte(nil), sh.jl.buf...)
}

// ReplayJournal re-applies a record-aligned journal prefix through the
// router's normal command path; see Engine.ReplayJournal.
func (sh *ShardedEngine) ReplayJournal(data []byte) error {
	return replayJournal(sh, data)
}

// execSearchGroup runs one search command's queries, or a coalesced
// dispatch group's concatenated Q operands, through the controller with
// the result cache consulted (host interface).
func (sh *ShardedEngine) execSearchGroup(ctx context.Context, cmd *HostCommand, queries [][]float32) ([][]DocResult, []QueryStats, [][]QueryStats, error) {
	return sh.search(ctx, cmd, queries, true)
}

// search runs one command's queries through the controller over the
// scatter backend — the same call, with the same global state, the
// single-device engine makes over its planes, so a sharded run and its
// reference plan identical rounds and hold identical cache state.
func (sh *ShardedEngine) search(ctx context.Context, cmd *HostCommand, queries [][]float32, useCache bool) ([][]DocResult, []QueryStats, [][]QueryStats, error) {
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	if sh.closed {
		return nil, nil, nil, fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	db, err := sh.db(cmd.DBID)
	if err != nil {
		return nil, nil, nil, err
	}
	c := controller{
		b: &shardBackend{sh: sh, db: db}, scr: &sh.scr.ctrl,
		id: db.ID, dim: db.Dim, calib: db.calib, cache: db.cache, mut: db.mut,
		flat: db.mut.flatPlan, nlist: len(db.lay.rivf), planes: sh.cfg.Geo.Planes(),
		pin: cachedScanParams{
			slotBytes: db.lay.slotBytes, embPerPage: db.lay.embPerPage,
			filter: sh.opts.DistanceFilter, threshold: db.lay.filterThreshold,
		},
	}
	return c.search(ctx, cmd, queries, useCache)
}

// shardBackend is the controller's scan backend over the member
// devices: a round is one OpcodeScan scatter, segments fold by
// remapping shard-local positions and merging the per-shard streams,
// and the tail fetches each page from the shard that owns it.
type shardBackend struct {
	sh    *ShardedEngine
	db    *ShardedDatabase
	resps []HostResponse // the last round's completions, by shard
}

func (b *shardBackend) shardRows(nq int) [][]QueryStats {
	rows := make([][]QueryStats, len(b.sh.shards))
	for s := range rows {
		rows[s] = make([]QueryStats, nq)
	}
	return rows
}

// fetchPin reads a global binary-region page from the shard that owns
// it (global page g lives on shard g mod N as local page g / N), whose
// stripe holds content byte-identical to the reference device's page —
// so the pinned copies, and every scan over them, match the
// single-device cache exactly.
func (b *shardBackend) fetchPin(page int) ([]byte, []byte, error) {
	n := len(b.sh.shards)
	owner, local := page%n, page/n
	dev := b.sh.shards[owner]
	addr, err := b.db.locals[owner].rec.Embeddings.AddressOf(dev.e.SSD.Cfg.Geo, local)
	if err != nil {
		return nil, nil, err
	}
	return dev.e.SSD.Dev.ReadPageInto(addr, nil, nil)
}

func (b *shardBackend) scan(ctx context.Context, queries [][]float32, coarse bool, segs [][]SlotRange, lbs [][]int, bounds []int, metaTag *uint8, rows [][]QueryStats) error {
	resps, err := b.sh.scatter(ctx, b.db, queries, coarse, segs, bounds, lbs, metaTag)
	if err != nil {
		return err
	}
	b.resps = resps
	// A skipped shard's view of the round is all zero.
	for s := range resps {
		for qi, st := range resps[s].QueryStats {
			rows[s][qi].Add(st)
		}
	}
	return nil
}

func (b *shardBackend) ibc(qi int) int { return gatherIBC(b.resps, qi) }

func (b *shardBackend) fold(qi, si int, coarse bool, st *QueryStats, dst []TTLEntry) []TTLEntry {
	gatherSegStats(b.resps, qi, si, coarse, st)
	return b.sh.mergeSeg(dst, b.resps, qi, si, b.db.lay.embPerPage)
}

// scatter fans one scan phase out to the shards through their queue
// pairs and gathers the completions in shard order. segs are global
// per-query slot ranges; each shard receives its local translation
// with (query, segment) indices preserved. A shard whose translation
// is all empty sentinels (it owns no page of any requested range) is
// skipped entirely — its zero-valued response is what it would have
// reported — so idle shards pay no query encoding or queue round
// trip. All submitted commands are waited for even on error, so
// scatter never leaks queue slots.
//
// bounds/minDists carry the round's per-query thresholds (all zero
// unless pruning) and per-segment lower bounds (nil on flat and coarse
// rounds). Both are global values — bounds are query properties and a
// lower bound holds for the whole global segment — so every shard
// receives the same slices verbatim (localSegs preserves the (query, segment) shape) and
// the shards' abort decisions match the reference device's exactly.
func (sh *ShardedEngine) scatter(ctx context.Context, db *ShardedDatabase, queries [][]float32, coarse bool, segs [][]SlotRange, bounds []int, minDists [][]int, metaTag *uint8) ([]HostResponse, error) {
	n := len(sh.shards)
	// The responses own the round's entries, so they are the command's
	// garbage, not pooled state.
	resps := make([]HostResponse, n)
	// ids[s] stays 0 — never a CommandID — for a shard not submitted to.
	sh.scr.ids = growTo(sh.scr.ids, n)
	ids := sh.scr.ids
	clear(ids)
	var firstErr error
	for s, dev := range sh.shards {
		local := localSegs(segs, s, n, db.lay.embPerPage)
		if !hasWork(local) {
			continue
		}
		cmd := HostCommand{
			Opcode: OpcodeScan, DBID: db.ID, Queries: queries,
			Scan: &ScanConfig{Coarse: coarse, Segs: local, Bounds: bounds, MinDists: minDists},
			Opt:  SearchOptions{MetaTag: metaTag},
		}
		id, err := dev.q.SubmitAsync(ctx, cmd)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		ids[s] = id
	}
	// Gather with a background context: a cancelled command context
	// aborts execution inside the shard (the command carries ctx), and
	// the completion must still be consumed to free the queue slot.
	for s, dev := range sh.shards {
		if ids[s] == 0 {
			continue
		}
		resp, err := dev.q.Wait(context.Background(), ids[s])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		resps[s] = resp
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return resps, nil
}

// localSegs translates per-query global slot ranges into shard s's
// local coordinates, preserving the (query, segment) shape; segments
// with no owned page become the empty sentinel. The flat and coarse
// phases hand every query the same underlying segment slice, so a
// list identical to the previous query's reuses its translation (the
// result is read-only downstream).
func localSegs(segs [][]SlotRange, s, n, embPerPage int) [][]SlotRange {
	out := make([][]SlotRange, len(segs))
	var prev, prevOut []SlotRange
	for qi, list := range segs {
		if len(list) > 0 && len(prev) == len(list) && &prev[0] == &list[0] {
			out[qi] = prevOut
			continue
		}
		ls := make([]SlotRange, len(list))
		for si, r := range list {
			ls[si] = localRange(r, s, n, embPerPage)
		}
		out[qi] = ls
		prev, prevOut = list, ls
	}
	return out
}

// localRange clips one global slot range to the pages shard s owns
// (global pages ≡ s mod n) and rewrites it in local coordinates.
// Because ownership is per page, the owned part of a contiguous global
// range is a contiguous local range: partial-page slot bounds apply
// only when the shard owns the range's first or last global page.
func localRange(r SlotRange, s, n, embPerPage int) SlotRange {
	gp0, gp1 := r.First/embPerPage, r.Last/embPerPage
	g0 := gp0 + posMod(s-gp0, n) // first owned page >= gp0
	g1 := gp1 - posMod(gp1-s, n) // last owned page <= gp1
	if g0 > gp1 || g1 < gp0 {
		return SlotRange{First: 0, Last: -1}
	}
	first := (g0 / n) * embPerPage
	if g0 == gp0 {
		first += r.First % embPerPage
	}
	last := (g1/n)*embPerPage + embPerPage - 1
	if g1 == gp1 {
		last = (g1/n)*embPerPage + r.Last%embPerPage
	}
	return SlotRange{First: first, Last: last}
}

// hasWork reports whether any translated segment is non-empty.
func hasWork(segs [][]SlotRange) bool {
	for _, list := range segs {
		for _, r := range list {
			if r.Last >= r.First {
				return true
			}
		}
	}
	return false
}

func posMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// globalPos maps a shard-local slot position back to its single-device
// position: local page l of shard s is global page l*n + s.
func globalPos(pos, s, n, embPerPage int) int {
	return (pos/embPerPage*n+s)*embPerPage + pos%embPerPage
}

// mergeSeg remaps one (query, segment)'s shard-local entry positions
// to global ones (in place: the response slices are owned by the
// gather side) and k-way merges the per-shard streams in global
// position order, appending to dst.
func (sh *ShardedEngine) mergeSeg(dst []TTLEntry, resps []HostResponse, qi, si, embPerPage int) []TTLEntry {
	n := len(sh.shards)
	lists := sh.scr.lists[:0]
	for s := range resps {
		if resps[s].Scan == nil {
			continue // shard skipped: no work in this phase
		}
		es := resps[s].Scan[qi][si].Entries
		if len(es) == 0 {
			continue
		}
		for i := range es {
			es[i].Pos = globalPos(es[i].Pos, s, n, embPerPage)
		}
		lists = append(lists, es)
	}
	sh.scr.lists = lists
	return mergeEntryLists(dst, lists)
}

// gatherSegStats folds one (query, segment)'s shard outcomes into st:
// count-type events sum across shards; the wave count — the parallel
// critical path of the segment — aggregates by maximum, which equals
// the single-device value because the shards' per-plane page loads are
// identical to the single device's, plane for plane.
func gatherSegStats(resps []HostResponse, qi, si int, coarse bool, st *QueryStats) {
	waves, pages, aborted := 0, 0, 0
	for s := range resps {
		if resps[s].Scan == nil {
			continue // shard skipped: no work in this phase
		}
		r := &resps[s].Scan[qi][si]
		if r.Waves > waves {
			waves = r.Waves
		}
		if r.AbortedWaves > aborted {
			aborted = r.AbortedWaves
		}
		pages += r.Pages
		st.EntriesScanned += r.Scanned
		st.Survivors += r.Survivors
		st.PrunedPages += r.PrunedPages
		st.PrunedSlots += r.PrunedSlots
		st.TTLBytes += r.TTLBytes
	}
	// Aborted waves aggregate like real waves: the segment's parallel
	// critical path, max across shards (= the reference device's value,
	// because the abort is decided from the same spans geometry).
	st.AbortedWaves += aborted
	if coarse {
		st.CoarseWaves += waves
		st.CoarsePages += pages
	} else {
		st.FineWaves += waves
		st.FinePages += pages
	}
}

// gatherIBC sums one query's broadcast counts across the shards (the
// shard planes partition the single device's planes, so the sum equals
// the single-device batch-path count).
func gatherIBC(resps []HostResponse, qi int) int {
	n := 0
	for s := range resps {
		if len(resps[s].QueryStats) == 0 {
			continue // shard skipped: no work in this phase
		}
		n += resps[s].QueryStats[qi].IBCBroadcasts
	}
	return n
}

// finish runs the shared controller tail on the gather side, fetching
// INT8 and document pages from the shards that own them.
func (b *shardBackend) finish(query []float32, entries []TTLEntry, k int, opt SearchOptions, st *QueryStats) ([]DocResult, error) {
	sh, db := b.sh, b.db
	sh.scr.src = shardTailSource{sh: sh, db: db}
	tp := tailParams{
		int8Bytes:   db.lay.int8Bytes,
		int8PerPage: db.lay.int8PerPage,
		docsPerPage: db.lay.docsPerPage,
		docBytes:    db.lay.docBytes,
		planes:      sh.cfg.Geo.Planes(),
		params:      db.lay.params,
	}
	if db.mut.deadCount > 0 {
		tp.dead = db.mut.tomb
	}
	return runTail(&sh.scr.src, &sh.scr.tail, tp, query, entries, k, opt, st)
}

// shardTailSource reads tail pages from the owning shard. The returned
// plane index is the *global* plane (page mod total planes), which is
// exactly the plane the page occupies on a single device, so rerank
// wave accounting matches bit for bit.
type shardTailSource struct {
	sh *ShardedEngine
	db *ShardedDatabase
}

func (t *shardTailSource) readPage(ts *tailScratch, region func(*Database) ssd.Region, page int) ([]byte, int, error) {
	n := len(t.sh.shards)
	owner, local := page%n, page/n
	dev := t.sh.shards[owner]
	geo := dev.e.SSD.Cfg.Geo
	addr, err := region(t.db.locals[owner]).AddressOf(geo, local)
	if err != nil {
		return nil, 0, err
	}
	data, oob, err := dev.e.SSD.Dev.ReadPageInto(addr, ts.pageBuf, ts.oobBuf)
	if err != nil {
		return nil, 0, err
	}
	ts.pageBuf, ts.oobBuf = data, oob
	return data, page % t.sh.cfg.Geo.Planes(), nil
}

func (t *shardTailSource) readRerankPage(ts *tailScratch, page int) ([]byte, int, error) {
	return t.readPage(ts, func(db *Database) ssd.Region { return db.rec.Int8s }, page)
}

func (t *shardTailSource) readDocPage(ts *tailScratch, page int) ([]byte, int, error) {
	return t.readPage(ts, func(db *Database) ssd.Region { return db.rec.Documents }, page)
}

// Search runs one brute-force query through the sharded path. Like
// the three methods below it is a one-command, cache-bypassing wrapper
// over the controller; results are bit-identical to Engine.Search over
// the same data.
func (sh *ShardedEngine) Search(dbID int, query []float32, k int, opt SearchOptions) ([]DocResult, QueryStats, error) {
	return searchOne(sh, OpcodeSearch, dbID, query, k, opt)
}

// SearchBatch runs a query batch through the sharded path.
func (sh *ShardedEngine) SearchBatch(dbID int, queries [][]float32, k int, opt SearchOptions) ([][]DocResult, []QueryStats, error) {
	return searchMany(sh, OpcodeSearch, dbID, queries, k, opt)
}

// IVFSearch runs one IVF query through the sharded path.
func (sh *ShardedEngine) IVFSearch(dbID int, query []float32, k int, opt SearchOptions) ([]DocResult, QueryStats, error) {
	return searchOne(sh, OpcodeIVFSearch, dbID, query, k, opt)
}

// IVFSearchBatch runs an IVF query batch through the sharded path.
func (sh *ShardedEngine) IVFSearchBatch(dbID int, queries [][]float32, k int, opt SearchOptions) ([][]DocResult, []QueryStats, error) {
	return searchMany(sh, OpcodeIVFSearch, dbID, queries, k, opt)
}

// Append implements the OpcodeAppend host command synchronously,
// returning the assigned entry ids (identical to a single device's).
func (sh *ShardedEngine) Append(dbID int, cfg AppendConfig) ([]int, error) {
	return submitAppend(sh, dbID, cfg)
}

// Delete implements the OpcodeDelete host command synchronously.
func (sh *ShardedEngine) Delete(dbID int, ids ...int) error { return submitDelete(sh, dbID, ids) }

// Compact implements the OpcodeCompact host command synchronously.
func (sh *ShardedEngine) Compact(dbID int, minLiveRatio float64) (WearStats, error) {
	return submitCompact(sh, dbID, minLiveRatio)
}

// CalibrateNProbe finds the smallest nprobe meeting the Recall@k
// target through the sharded path and records it on the database, so
// host commands can address the operating point by TargetRecall.
// Because sharded results are bit-identical to a single device's, the
// calibrated nprobe is too.
func (sh *ShardedEngine) CalibrateNProbe(dbID int, queries [][]float32, groundTruth [][]int, k int, target float64) (int, error) {
	db, err := sh.DB(dbID)
	if err != nil {
		return 0, err
	}
	return calibrateNProbe(sh, &sh.execMu, &db.calib, dbID, len(db.lay.rivf), queries, groundTruth, k, target)
}
