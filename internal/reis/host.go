package reis

import (
	"context"
	"fmt"
	"sync"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// This file is the host core: the one controller over N ≥ 1 devices
// that both exported hosts are facades of. The paper's device is one
// controller owning the R-DB, the coarse-grained FTL and the R-IVF table
// over planes it scans in place (Sec 4.1, 4.3). The core is that
// controller, and its database table is the R-DB. The scale-out tier
// stripes that same planned layout page-round-robin over N devices
// (global page g lives on device g mod N as local page g / N). A single
// device is therefore the N = 1 case — the striping is the identity —
// and every host operation is written once, for any N:
//
//   - Engine (New) is one device and the core over it: devs = [it].
//   - ShardedEngine (NewSharded) is the core over N devices.
//
// A device (engine.go) holds no host state, so a host has one R-DB, one
// journal and one queue registry whatever N is. Nothing about a command
// is chosen from N: a scan round runs on every device in place
// (batch.go), and page g's owner is device g mod N.
//
// Locking. execMu serializes the host (one command or coalesced group at
// a time, like the single embedded controller core) and guards the
// database table, journal, scratch and closed flag. Each device has its
// own lock (device.mu) for its regions, plane pool and arenas. The order
// is host core → every device in index order, never the reverse: a
// device never calls into a core. The core holds every device lock for
// the whole search command — the arenas keep a round's entries until
// they are folded — and one device's per page operation when it mutates
// (mutTarget), so the two never nest. Tail, pin and GC copy-forward
// reads take the conventional read path (readPage), which the flash
// device synchronizes per plane; the core issues them only when no scan
// round of its own is running, and a region's bounds change only under
// execMu.
type hostCore struct {
	cfg ssd.Config // single-device-equivalent configuration: N× one device's channels

	// devs are the devices; the options the host reads (placement, the
	// distance filter every scan of a command applies) are device 0's
	// Opts.
	devs []*device
	// perShard is set by NewSharded: its responses carry PerShard rows,
	// the operand of ShardedEngine's Latency shapes (a 1-device one too).
	perShard bool

	execMu sync.Mutex
	closed bool
	scr    hostScratch
	// dbs is the R-DB (Sec 4.1.4): the only database table. Each entry
	// holds every device's record of its regions (locals[s].rec).
	dbs map[int]*rdbEntry

	// jl is the append-only mutation journal: every committed append,
	// delete and compact is recorded under execMu, so replaying any
	// journal prefix on a fresh deploy — of any topology — reproduces the
	// pre-crash state bit for bit (see journal.go).
	jl journal

	// testGCStepHook, when set, runs after each committed background GC
	// step with no locks held — the interleaving tests' probe point;
	// testCalibStepHook likewise after each CalibrateNProbe sweep step.
	testGCStepHook, testCalibStepHook func()

	// reg tracks the queue pairs created with NewQueue for Close-time
	// teardown, plus the built-in pair behind the synchronous Submit.
	reg queueRegistry
}

// hostScratch is the core's pooled state; the execMu holder owns it.
type hostScratch struct {
	ctrl ctrlScratch
	tail tailScratch
	// page and oob are the one page writer's render buffers (writePages
	// alone touches them): flash.Device.Program copies what it is handed,
	// so one pair serves every page of every deploy, append and GC step.
	page, oob []byte
}

// rdbEntry is one deployed database's R-DB entry: the global layout plan
// (page format, quantization parameters, filter threshold), the
// mutable-state ledger (R-IVF table among it), the caching tier, and the
// per-device page-stride slices — one of them, the whole layout, on a
// single device.
type rdbEntry struct {
	id int

	lay    *dbLayout
	locals []*Database // locals[s] is device s's page-stride slice
	calib  []recallPoint
	// commits counts the committed mutations and GC steps: a calibration
	// records its point only if none landed during its sweep.
	commits int

	// mut is the geometry-independent mutable-state ledger, evolved by
	// the same code on every topology — which is what makes mutation
	// outcomes bit-identical across device counts.
	mut *mutState

	// cache is the DRAM caching tier (nil unless the config sets
	// CacheDRAMBytes), sized from the single-device-equivalent config.
	// Pinned-cluster scans and result-cache hits are served by the host
	// before any device is asked, so cached work appears only in the
	// aggregate QueryStats, never in a per-device row.
	cache *dbCache
}

// init binds the core to its devices, built from one configuration.
func (c *hostCore) init(devs []*device, perShard bool) {
	cfg := devs[0].SSD.Cfg
	cfg.Geo.Channels *= len(devs)
	c.cfg, c.devs, c.perShard = cfg, devs, perShard
	c.dbs = make(map[int]*rdbEntry)
	c.scr.page = make([]byte, cfg.Geo.PageBytes)
	c.scr.oob = make([]byte, cfg.Geo.OOBBytes)
}

// lock takes the execution lock for a command, refusing once the host
// is closed.
func (c *hostCore) lock() error {
	c.execMu.Lock()
	if c.closed {
		c.execMu.Unlock()
		return fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	return nil
}

// db looks a database up; the caller holds execMu.
func (c *hostCore) db(id int) (*rdbEntry, error) {
	db, ok := c.dbs[id]
	if !ok {
		return nil, fmt.Errorf("reis: unknown database %d", id)
	}
	return db, nil
}

// lockDB is lock followed by db; on success the caller holds execMu.
func (c *hostCore) lockDB(id int) (*rdbEntry, error) {
	if err := c.lock(); err != nil {
		return nil, err
	}
	db, err := c.db(id)
	if err != nil {
		c.execMu.Unlock()
	}
	return db, err
}

// hostDB is db under the execution lock.
func (c *hostCore) hostDB(id int) (*rdbEntry, error) {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	return c.db(id)
}

// NewQueue creates an asynchronous NVMe-style queue pair whose
// dispatcher executes on this host and starts it. The queue must be
// Closed when no longer needed (the host's Close closes any still open).
func (c *hostCore) NewQueue(cfg QueueConfig) (*Queue, error) { return newQueue(c, cfg) }

// Submit executes one host command synchronously: a thin wrapper that
// submits to the host's built-in queue pair and waits for the
// completion. Synchronous and asynchronous submission therefore share
// one execution core, and Submit's results are bit-identical to the
// same command served through SubmitAsync.
func (c *hostCore) Submit(cmd HostCommand) (HostResponse, error) {
	q, err := c.reg.defaultQueue(func() (*Queue, error) { return c.NewQueue(QueueConfig{}) })
	if err != nil {
		return HostResponse{}, err
	}
	id, err := q.submit(context.Background(), cmd, true)
	if err != nil {
		return HostResponse{}, err
	}
	return q.Wait(context.Background(), id)
}

// Ready reports whether the host can accept commands: its queue
// registry is open and so is every device (a closed device refuses every
// scan round). It takes neither the execution lock nor a device lock, so
// it answers while a command runs. Replica routers use it as the health
// probe behind a serving group's liveness endpoint.
func (c *hostCore) Ready() bool {
	if c.reg.isClosed() {
		return false
	}
	for _, d := range c.devs {
		if d.closed.Load() {
			return false
		}
	}
	return true
}

// Close shuts down the host's background goroutines: every queue pair
// created with NewQueue (pending commands complete with ErrQueueClosed),
// then every device's plane workers, for good. Close is idempotent —
// concurrent and repeated calls are safe — and every command after it
// fails with ErrQueueClosed.
func (c *hostCore) Close() error {
	for _, q := range c.reg.closeAll() {
		q.Close()
	}
	c.execMu.Lock()
	defer c.execMu.Unlock()
	c.closed = true
	for _, d := range c.devs {
		d.close()
	}
	return nil
}

// deploy plans the layout globally — exactly as one device with N times
// the channels would (planLayout: same page counts and capacities) — has
// every device reserve its page-stride share (s, N), programs the
// centroid pages, and then places and programs the vectors as the empty
// database's first append, through the tail allocator and the one page
// writer every mutation uses: cluster-sorted, each cluster on a fresh
// page. Only then does the database enter the R-DB (c.dbs): a deploy that
// fails on the way leaves no entry anywhere, so its id stays free for a
// retry (the bump-cursor allocator does not reclaim the stripes it
// reserved). ivf selects IVF_Deploy (cluster-sorted placement plus the
// R-IVF table, which stays in the host's controller DRAM) over DB_Deploy.
// The payload's shape was checked at submission (DeployConfig.validate),
// and its encoding is checked before any region is reserved.
func (c *hostCore) deploy(cfg DeployConfig, ivf bool) error {
	if !ivf {
		cfg.Centroids, cfg.Assign = nil, nil
	}
	if err := c.lock(); err != nil {
		return err
	}
	defer c.execMu.Unlock()
	if _, ok := c.dbs[cfg.ID]; ok {
		return fmt.Errorf("reis: database %d already deployed", cfg.ID)
	}
	lo, err := planLayout(&cfg, c.cfg.Geo, c.cfg.OverprovisionPct)
	if err != nil {
		return err
	}
	rec, err := encodeAppend(lo, &AppendConfig{Vectors: cfg.Vectors, Docs: cfg.Docs, Assign: cfg.Assign, MetaTags: cfg.MetaTags})
	if err != nil {
		return err
	}
	db := &rdbEntry{id: cfg.ID, lay: lo, mut: newMutState(lo, c.devs[0].Opts.FirstFitPlacement)}
	if c.cfg.CacheDRAMBytes > 0 {
		db.cache = newDBCache(c.cfg, &lo.pageFormat, lo.nlist())
	}
	for s, d := range c.devs {
		local, err := d.install(cfg.ID, lo, s, len(c.devs))
		if err != nil {
			return fmt.Errorf("reis: device %d: %w", s, err)
		}
		local.tlc = &db.mut.tlc
		db.locals = append(db.locals, local)
	}
	t := mutTarget{c, db}
	if err := t.writePages(centRegion, 0, lo.centPages, true, func(page, oob []byte, g int) { lo.renderBin(page, oob, g, lo.centSlots) }); err != nil {
		return err
	}
	if _, _, err := mutAppend(db.mut, t, rec); err != nil {
		return err
	}
	// Write amplification counts from the deploy on.
	db.mut.bytesFlash, db.mut.bytesUser = 0, 0
	c.dbs[cfg.ID] = db
	return nil
}

// execCmd serves one validated deploy, append or delete — what a queue
// dispatcher calls for them. The other opcodes never arrive here: the
// queue serves searches through search, a dispatch group at a time, and
// runs OpcodeCompact as a GC flight through gcPlan / gcStep / gcFinish.
func (c *hostCore) execCmd(cmd *HostCommand) (HostResponse, error) {
	switch cmd.Opcode {
	case OpcodeDBDeploy, OpcodeIVFDeploy:
		return HostResponse{}, c.deploy(*cmd.Deploy, cmd.Opcode == OpcodeIVFDeploy)
	case OpcodeAppend, OpcodeDelete:
		db, err := c.lockDB(cmd.DBID)
		if err != nil {
			return HostResponse{}, err
		}
		defer c.execMu.Unlock()
		t := mutTarget{c, db}
		var resp HostResponse
		if cmd.Opcode == OpcodeDelete {
			if err := mutDelete(db.mut, cmd.Del.IDs); err != nil {
				return HostResponse{}, err
			}
			resp.Wear = &WearStats{}
			db.mut.fillWear(resp.Wear, t)
			c.jl.logDelete(cmd.DBID, cmd.Del.IDs)
		} else {
			// A live append is encoded here; a replayed one arrives encoded.
			rec := cmd.Append.rec
			if rec == nil {
				if rec, err = encodeAppend(db.lay, cmd.Append); err != nil {
					return HostResponse{}, err
				}
			}
			if resp.AppendedIDs, resp.Wear, err = mutAppend(db.mut, t, rec); err != nil {
				return HostResponse{}, err
			}
			c.jl.logAppend(cmd.DBID, rec)
		}
		c.committed(db)
		return resp, nil
	default:
		return HostResponse{}, fmt.Errorf("%w %#x", errUnknownOpcode, cmd.Opcode)
	}
}

// committed follows a committed mutation or GC step: recorded nprobe
// calibrations no longer cover the corpus (nor will one whose sweep it
// interrupted), and the caching tier drops every pinned page and cached
// result before the command's completion is visible — a stale hit is
// impossible by construction.
func (c *hostCore) committed(db *rdbEntry) {
	db.calib = nil
	db.commits++
	db.cache.invalidate()
}

// gcPlan, gcStep and gcFinish are the scheduler's view of one background
// compaction (the host side of queue.go's GC flights): plan the victim
// rows once, collect one row per step, then complete the command. Each
// acquires the execution lock on its own, so foreground searches run
// between any two steps; all three evolve the shared mutState, so a
// flight commits the same state and WearStats on every topology.
func (c *hostCore) gcPlan(cmd *HostCommand) ([]int, error) {
	db, err := c.lockDB(cmd.DBID)
	if err != nil {
		return nil, err
	}
	defer c.execMu.Unlock()
	return mutGCVictims(db.mut, cmd.Compact.MinLiveRatio), nil
}

func (c *hostCore) gcStep(cmd *HostCommand, row int, acc *WearStats) error {
	db, err := c.lockDB(cmd.DBID)
	if err != nil {
		return err
	}
	if err = mutGCStep(db.mut, mutTarget{c, db}, row, acc); err == nil {
		c.committed(db)
	}
	hook := c.testGCStepHook
	c.execMu.Unlock()
	if err == nil && hook != nil {
		hook()
	}
	return err
}

func (c *hostCore) gcFinish(cmd *HostCommand, acc *WearStats) (HostResponse, error) {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	db, err := c.db(cmd.DBID)
	if err != nil {
		return HostResponse{}, err
	}
	db.mut.fillWear(acc, mutTarget{c, db})
	c.jl.logCompact(cmd.DBID, cmd.Compact.MinLiveRatio)
	w := *acc
	return HostResponse{Wear: &w}, nil
}

// JournalBytes returns a copy of the mutation journal: the byte-exact
// record of every committed append, delete and compact since the host
// started, in application order. Persist it (at any prefix ending on a
// record boundary) and replay it on a freshly deployed host to
// reconstruct the pre-crash state. The byte stream is
// topology-independent: a journal captured on a sharded host replays on
// a single device and vice versa. The frame format is the journal
// type's (journal.go): a flat sequence of checksummed, versioned frames,
// one record each.
//
// Deploys are not journaled: recovery re-deploys from the immutable
// deploy configuration first, then replays (see ReplayJournal).
func (c *hostCore) JournalBytes() []byte {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	return c.jl.bytes()
}

// CacheStats reports a database's caching tier — what pins and results
// hold of its budget, what pin admission has decided and what the result
// cache has served and evicted since deploy. A database without the tier
// (CacheDRAMBytes == 0) reports zeros.
func (c *hostCore) CacheStats(dbID int) (CacheStats, error) {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	db, err := c.db(dbID)
	if err != nil {
		return CacheStats{}, err
	}
	return db.cache.snapshot(), nil
}

// ReplayJournal re-applies a journal (or any record-aligned prefix of
// one) through the normal command path — the recovery oracle's second
// half: fresh deploy + replay(prefix) ≡ the journaling host's state when
// the prefix was captured. The databases it names must be deployed with
// the same deploy configuration as the journaling host's; replayed
// mutations are journaled again, so the rebuilt host's journal continues
// where the prefix ended.
//
// Every frame is decoded and checked before the first is applied: a
// journal with a bad frame, a record for a database this host lacks, or
// an append that does not fit its database (another dim or other code or
// INT8 widths fail with errQueryDims) changes nothing. Appends are
// applied as the encoded records the journal carries.
func (c *hostCore) ReplayJournal(data []byte) error {
	var cmds []HostCommand
	var offs []int
	for r := (&journalReader{data: data}); r.pos < len(data); {
		cmd, err := r.next()
		if err != nil {
			return err
		}
		db, err := c.hostDB(cmd.DBID)
		if err == nil && cmd.Opcode == OpcodeAppend {
			err = cmd.Append.rec.check(db.lay)
		}
		if err != nil {
			return fmt.Errorf("reis: journal record ending at offset %d: %w", r.pos, err)
		}
		cmds, offs = append(cmds, cmd), append(offs, r.pos)
	}
	for i, cmd := range cmds {
		if _, err := c.Submit(cmd); err != nil {
			return fmt.Errorf("reis: journal replay at offset %d: %w", offs[i], err)
		}
	}
	return nil
}

// search runs one command's queries — its own Q operand, or a coalesced
// dispatch group's concatenation under the head command's parameters —
// through the controller into out, with the result cache consulted when
// useCache is set. out's blocks are reused where they are large enough
// (outBlocks.reset), so out must hold nothing a caller still reads. The
// controller plans from the host's global state only, so every topology
// plans identical rounds and holds identical cache state; out.rows is the
// per-device stats view ([device][query]) of a ShardedEngine (a 1-shard
// one's too), nil on an Engine.
func (c *hostCore) search(ctx context.Context, cmd *HostCommand, queries [][]float32, useCache bool, out *outBlocks) error {
	db, err := c.lockDB(cmd.DBID)
	if err != nil {
		return err
	}
	defer c.execMu.Unlock()
	// The devices' arenas hold a round's entries until they are folded, so
	// every device stays locked for the whole command.
	for _, d := range c.devs {
		d.mu.Lock()
	}
	defer c.unlockDevs()
	ctl := controller{h: c, db: db, scr: &c.scr.ctrl, filter: -1, out: out}
	if c.devs[0].Opts.DistanceFilter {
		ctl.filter = db.lay.filterThreshold
	}
	return ctl.search(ctx, cmd, queries, useCache)
}

func (c *hostCore) unlockDevs() {
	for _, d := range c.devs {
		d.mu.Unlock()
	}
}

// CalibrateNProbe finds the smallest nprobe meeting the Recall@k target
// against ground truth, mirroring the paper's accuracy sweep: nprobe
// grows over one cache-bypassing IVF batch per step, and only the
// queried rows of the ground truth enter the recall denominator. A
// successful calibration is recorded on the database, so later host
// commands can address the operating point by TargetRecall alone (the
// accuracy operand R of Table 1; see resolveSearchOptions). Results are
// bit-identical across topologies, so the calibrated nprobe is too.
func (c *hostCore) CalibrateNProbe(dbID int, queries [][]float32, groundTruth [][]int, k int, target float64) (int, error) {
	db, err := c.lockDB(dbID)
	if err != nil {
		return 0, err
	}
	commits := db.commits
	c.execMu.Unlock()
	if db.lay.flat() {
		return 0, fmt.Errorf("reis: database %d is not IVF-deployed", dbID)
	}
	if len(queries) == 0 {
		return 0, fmt.Errorf("reis: empty query set")
	}
	if len(groundTruth) < len(queries) {
		return 0, fmt.Errorf("reis: %d ground-truth rows for %d queries", len(groundTruth), len(queries))
	}
	if err := checkK(k); err != nil {
		return 0, err
	}
	// The sweep is not a host command: each step runs outside any queue
	// pair and past the result cache. The sweep reads a step's results
	// before it runs the next, so every step reuses the first one's output
	// blocks.
	step := HostCommand{Opcode: OpcodeIVFSearch, DBID: dbID, K: k, Opt: SearchOptions{SkipDocs: true}}
	var out outBlocks
	nprobe, ok, err := calibrateSweep(db.lay.nlist(), groundTruth[:len(queries)], k, target, func(nprobe int) ([][]DocResult, error) {
		step.Opt.NProbe = nprobe
		err := c.search(context.Background(), &step, queries, false, &out)
		if hook := c.testCalibStepHook; hook != nil {
			hook()
		}
		return out.results, err
	})
	if err != nil {
		return 0, err
	}
	// A commit during the sweep changed the corpus under it: the point
	// would cover neither the old corpus nor the new one.
	c.execMu.Lock()
	if ok && db.commits == commits {
		db.calib = append(db.calib, recallPoint{target: target, nprobe: nprobe})
	}
	c.execMu.Unlock()
	return nprobe, nil
}

// mutTarget is the physical half of a mutation: how pages of the
// database's regions are read, programmed, grown and reclaimed. Page
// and row indices are global (single-device-equivalent); each is routed
// to the device that owns it — page g → device g mod N, local page
// g / N, the deploy striping, and the identity on one device — under
// that device's lock. The core's execMu holder owns it. Outcomes are
// bit-identical across device counts because the logical plan
// (mutState) is shared and GC rows are topology-aligned by
// construction: one logical row is block b on every plane of every
// device, so reclaiming row r erases the same block set the
// N-times-channels reference device would.
type mutTarget struct {
	c  *hostCore
	db *rdbEntry
}

// regionOf selects one region of a device's slice of the database.
type regionOf func(*Database) ssd.Region

func embRegion(db *Database) ssd.Region  { return db.rec.Embeddings }
func centRegion(db *Database) ssd.Region { return db.rec.Centroids }
func int8Region(db *Database) ssd.Region { return db.rec.Int8s }
func docRegion(db *Database) ssd.Region  { return db.rec.Documents }

// onAll runs f on every device in turn.
func (t mutTarget) onAll(f func(s int, d *device, local *Database) error) error {
	for s, d := range t.c.devs {
		d.mu.Lock()
		err := f(s, d, t.db.locals[s])
		d.mu.Unlock()
		if err != nil {
			return fmt.Errorf("reis: device %d: %w", s, err)
		}
	}
	return nil
}

// writePages is the one page writer — deploy, append and GC copy-forward
// all program through it. It renders global pages [from, to) of a region
// one at a time into the host's page buffer and programs each on its
// owner. With carryOOB the pages are programmed with the host's OOB
// buffer, zeroed here and then whatever render makes of it; without, with
// no OOB at all (render gets nil). The pages must be erased (out-of-place
// writes only).
func (t mutTarget) writePages(region regionOf, from, to int, carryOOB bool, render func(page, oob []byte, g int)) error {
	page, oob := t.c.scr.page, []byte(nil)
	if carryOOB {
		oob = t.c.scr.oob
		clear(oob)
	}
	for g := from; g < to; g++ {
		render(page, oob, g)
		d, local, l := t.c.owner(t.db, g)
		d.mu.Lock()
		err := d.SSD.WriteRegionPage(region(local), l, page, oob)
		d.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// growBin binds the given physical rows to the next logical rows of the
// binary region's row map and commits the new live extent (global pages)
// — the per-step coarse FTL remap, written to every device's R-DB record.
func (t mutTarget) growBin(binPages int, phys []int) error {
	n := len(t.c.devs)
	return t.onAll(func(s int, d *device, local *Database) error {
		if len(phys) > 0 {
			if err := d.SSD.MapRegionRows(&local.rec.Embeddings, phys); err != nil {
				return err
			}
		}
		return local.rec.Embeddings.SetLive(d.SSD.Cfg.Geo.Planes(), shardPages(binPages, s, n))
	})
}

// growAux commits new live extents (global pages) for the INT8 and
// document regions.
func (t mutTarget) growAux(int8Pages, docPages int) error {
	n := len(t.c.devs)
	return t.onAll(func(s int, d *device, local *Database) error {
		planes := d.SSD.Cfg.Geo.Planes()
		if err := local.rec.Int8s.SetLive(planes, shardPages(int8Pages, s, n)); err != nil {
			return err
		}
		return local.rec.Documents.SetLive(planes, shardPages(docPages, s, n))
	})
}

// reclaimBinRow erases logical GC row row of the binary region (one
// block per plane on every device) and unmaps it, returning the number
// of block erases performed — summed over the devices, equal to the
// reference device's.
func (t mutTarget) reclaimBinRow(row int) (erases int, err error) {
	err = t.onAll(func(_ int, d *device, local *Database) error {
		n, err := d.SSD.ReclaimRegionRow(&local.rec.Embeddings, row)
		erases += n
		return err
	})
	return erases, err
}

// rowWear reports the highest per-block erase count across the blocks
// of physical binary-region row phys — the wear-aware placement key.
func (t mutTarget) rowWear(phys int) int64 {
	ppb := t.c.cfg.Geo.PagesPerBlock
	var m int64
	for s, d := range t.c.devs {
		m = max(m, d.SSD.Dev.BlockMaxErase(t.db.locals[s].rec.Embeddings.StartStripe/ppb+phys))
	}
	return m
}

// maxWear reports the highest per-block erase count on any device.
func (t mutTarget) maxWear() int64 {
	var m int64
	for _, d := range t.c.devs {
		m = max(m, d.SSD.Dev.MaxEraseCount())
	}
	return m
}

// owner resolves global region page g under the page striping: device
// g mod N holds it as local page g / N — the identity on one device.
func (c *hostCore) owner(db *rdbEntry, g int) (d *device, local *Database, l int) {
	n := len(c.devs)
	return c.devs[g%n], db.locals[g%n], g / n
}

// pageAddr resolves one global page of a region to the flash device that
// owns it and the page's address there.
func (c *hostCore) pageAddr(db *rdbEntry, region regionOf, page int) (*flash.Device, flash.Address, error) {
	d, local, l := c.owner(db, page)
	addr, err := region(local).AddressOf(d.SSD.Cfg.Geo, l)
	return d.SSD.Dev, addr, err
}

// readPage reads one global page of a region through the conventional
// path, from the device that owns it, into data/oob (grown as needed).
func (c *hostCore) readPage(db *rdbEntry, region regionOf, page int, data, oob []byte) ([]byte, []byte, error) {
	dev, addr, err := c.pageAddr(db, region, page)
	if err != nil {
		return nil, nil, err
	}
	return dev.ReadPageInto(addr, data, oob)
}

// fetchPin reads a global binary-region page for the hot-cluster cache
// into buf, an arena buffer of the cache's: the page's data, then its
// OOB. The SLC-ESP partition has zero raw bit-error rate, so the pinned
// copy is bit-identical to what the sensing latch would hold — and to
// the reference device's page — and the read changes no latch.
func (c *hostCore) fetchPin(db *rdbEntry, page int, buf []byte) error {
	n := db.lay.pageBytes
	_, _, err := c.readPage(db, embRegion, page, buf[:0:n], buf[n:n])
	return err
}

// readTailSlots reads, for the controller tail, the records of one page
// of the INT8 (rerank) or document region: the run of groups starting at
// gi that shares groups[gi].page — groups is sorted by page — one
// recBytes-wide record each. It returns their read-only views of the
// page in run order, in the tail scratch; a record the page's stored
// bytes end inside is appended to *spill (flash.Device.ReadSlots). The
// page is sensed once, and only the records move.
func (c *hostCore) readTailSlots(db *rdbEntry, region regionOf, groups []pageIdx, gi, recBytes int, spill *[]byte) ([][]byte, error) {
	ts, page := &c.scr.tail, groups[gi].page
	slots := ts.slots[:0]
	for end := gi; end < len(groups) && groups[end].page == page; end++ {
		slots = append(slots, groups[end].slot)
	}
	ts.slots = slots
	dev, addr, err := c.pageAddr(db, region, page)
	if err != nil {
		return nil, err
	}
	ts.views, *spill, err = dev.ReadSlots(addr, recBytes, slots, ts.views[:0], *spill)
	return ts.views, err
}
