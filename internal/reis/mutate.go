package reis

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// This file implements online mutability: OpcodeAppend writes new
// items out-of-place into wear-selected free GC rows (extending the
// layout's page plan through the region row map), OpcodeDelete
// tombstones entries in a controller-DRAM bitmap consulted by the
// controller tail, and OpcodeCompact is the garbage collector — split
// by the queue scheduler into per-GC-row copy-forward steps that
// interleave with foreground searches (see queue.go). Each step copies the victim
// row's live entries forward to the region tail, erases the row via
// flash.EraseBlock, returns its physical row to the append free pool,
// and commits the coarse-grained FTL remap (region bounds plus the
// row map in the R-DB), so a search between any two steps sees a
// fully consistent plan.
//
// GC rows are erase rows: planes_global * PagesPerBlock consecutive
// global binary-region pages — exactly one flash block per plane on
// every device of the topology. That granularity is what lets one
// logical reclaim erase the same block index on a single device and
// on every shard of a sharded deployment, keeping wear accounting
// bit-identical across topologies.
//
// Two-level split, mirroring planLayout/install. The deploy (its first
// append), later appends and copy-forward steps place and program their
// entries through one tail allocator (writeTail / commitTail), and every
// page any of them programs is rendered by the page format's owner
// (layout.go):
//
//   - mutState is the geometry-independent half: per-cluster segment
//     lists (the scan plan), the tombstone bitmap, the id→position
//     map, per-GC-row live/dead counts, the logical→physical row map
//     mirror and the free-row pool. Every decision — append placement,
//     wear-aware row selection, victim detection, each copy-forward
//     step — is a pure function of this state plus the target's wear
//     ledger, so the same mutation history yields the same logical
//     outcome on every topology (single device or any shard count).
//   - mutTarget (host.go) is the physical half: page reads/programs,
//     row-map growth, extent resizes and row reclaims, each global page
//     routed to the device that owns it (page g → device g mod N, local
//     page g / N — the identity on one device), which makes mutation on
//     N devices bit-identical to the N-times-channels reference device
//     by construction.
//
// Scan order under GC. Appends allocate page-aligned slot runs at the
// region tail, per cluster in ascending cluster order. A copy-forward
// step relocates a victim row's live entries to the tail, so the scan
// order within a cluster is no longer globally ascending by id — it is
// the original order with relocated runs moved to the end. Search
// results are position-invariant anyway: candidate-pool membership
// ties break on (Dist, DADR) and final ordering is (Dist, ID), neither
// of which depends on where an entry lives (see search.go, ttlLess).

// AppendConfig is the payload of an OpcodeAppend command: new items
// written out-of-place into the database's reserved free blocks.
type AppendConfig struct {
	// Vectors are the new embeddings (host precision, database dim).
	// INT8 rerank copies are quantized under the scale calibrated at
	// deployment (vecmath.ComputeInt8Params over the deploy corpus):
	// components whose magnitude exceeds the deploy corpus' maximum
	// saturate at ±127, degrading rerank precision for such items —
	// redeploy (or compact into a fresh deployment) when the data
	// distribution shifts beyond the calibrated range.
	Vectors [][]float32
	// Docs are the linked document chunks; Docs[i] belongs to
	// Vectors[i] and must fit the database's doc slot size.
	Docs [][]byte
	// Assign maps each item to an IVF cluster (required for IVF
	// databases, forbidden for flat ones). Appends extend the cluster's
	// posting list; the centroid set itself is immutable.
	Assign []int
	// MetaTags optionally tags each item for metadata filtering.
	MetaTags []uint8

	// rec is the append already encoded, set in place of the fields
	// above: what ReplayJournal submits, decoded from the journal and
	// checked against its database.
	rec *appendRecord
}

// DeleteConfig is the payload of an OpcodeDelete command.
type DeleteConfig struct {
	// IDs are the entry ids to tombstone (as reported by DocResult.ID
	// and HostResponse.AppendedIDs). Deleting an unknown or already-
	// deleted id fails the whole command with errUnknownID; no partial
	// deletion is applied.
	IDs []int
}

// CompactConfig is the payload of an OpcodeCompact command. Submitted
// through a queue, compaction runs as a background activity: the
// scheduler splits it into per-GC-row copy-forward steps whose device
// time is arbitrated against foreground searches by the stride
// weights, and completes the command when the last step lands. No
// quiesce is required anywhere.
type CompactConfig struct {
	// MinLiveRatio is the GC trigger: a GC row is collected when it
	// holds deleted entries and its live/(live+deleted) ratio is below
	// this threshold. 0 means the default of 0.5; values outside [0, 1]
	// are rejected with errBadThreshold.
	MinLiveRatio float64
}

// defaultMinLiveRatio is the GC threshold used when CompactConfig
// leaves MinLiveRatio zero.
const defaultMinLiveRatio = 0.5

// WearStats reports the flash cost of one mutation command: pages
// programmed (appends and GC copy-forward), pages read back by the
// collector, blocks erased, write amplification, and the device's
// resulting wear skew.
type WearStats struct {
	// pagesProgrammed counts flash page programs issued by the command.
	pagesProgrammed int
	// PagesRead counts page reads the collector issued to gather live
	// entries.
	PagesRead int
	// BlockErases counts flash block erases (summed across shards on a
	// sharded host — equal to the single-device reference).
	BlockErases int
	// MaxBlockErase is the highest per-block erase count on the device
	// after the command (the wear-leveling skew figure).
	MaxBlockErase int64
	// CompactedRows is the number of GC rows copied forward and erased
	// (0 means the command collected nothing).
	CompactedRows int
	// copiedEntries is the number of live entries copied forward.
	copiedEntries int
	// freedPages is the net page count returned to the free pool by
	// collection: pages of reclaimed rows minus pages programmed to
	// copy their live entries forward.
	freedPages int
	// bytesProgrammed is the database's cumulative flash traffic since
	// deployment: every page program of every mutation, including GC
	// copy-forward.
	bytesProgrammed int64
	// payloadBytes is the cumulative user payload accepted since
	// deployment (embedding slots, INT8 copies and document bytes of
	// appended items).
	payloadBytes int64
	// WriteAmp is bytesProgrammed / payloadBytes — the write
	// amplification factor (0 until the first append).
	WriteAmp float64
}

// mutState is the geometry-independent mutable metadata of one
// deployed database, the R-IVF table among it. It lives in controller
// DRAM; the execMu holder of the owning host is its single writer.
type mutState struct {
	// lay is the database's layout plan: the page format, the GC row
	// granularity and the cluster count — identical on every topology
	// deployed from the same plan.
	lay *dbLayout

	// buckets is the R-IVF table (Sec 4.2.1): buckets[c] is cluster c's
	// posting list, the binary-region slot ranges scanned for the
	// cluster, in scan order — one range per cluster from the deploy,
	// extended by appends and remapped by GC. Nil for flat databases.
	buckets [][]slotRange

	// radius[c] is cluster c's current binary covering radius (max
	// Hamming distance from its centroid code, lay.centCodes[c], to any
	// member, deployed or appended) — the lower-bound input of threshold
	// pruning. The deploy and later appends only grow it;
	// compaction keeps it (conservative: a stale-large radius weakens
	// pruning but never threatens correctness). Nil for flat databases.
	radius []int

	// flatPlan is the brute-force scan plan: the live slot ranges of
	// the whole binary region in position order — one range per append
	// batch (the deploy's first) or GC relocation (ranges bridge
	// the page-padding gaps between clusters, which scan as skipped
	// invalid-DADR slots). Both flat and IVF databases keep one: a
	// Search command on an IVF database scans everything. flatRounds is
	// the plan cut into a pruned search's rounds (chunkFlatRounds): the
	// first pruned search after the plan changed cuts it (prunedRounds),
	// every later one reuses it, and a mutation that sets the plan drops
	// it (setFlatPlan), so a mutation stream without pruned searches
	// cuts nothing.
	flatPlan   []slotRange
	flatRounds [][]slotRange

	// tailSlots is the first free binary slot; appends and copy-forward
	// steps allocate page-aligned runs from here. binPages is the live
	// logical extent — under churn it may exceed the planned capacity,
	// because logical rows grow monotonically while their physical rows
	// recycle through the free pool.
	tailSlots int
	binPages  int

	// int8Slots/docSlots are the next append positions of the rerank
	// and document regions, each continuing page-aligned after the last
	// batch, and tlc their live extents. Ids continue the document slots;
	// a batch's INT8 copies and documents both follow its binary runs'
	// order.
	int8Slots, docSlots int
	tlc                 tlcExtent

	// docRuns locates documents by RADR: one pair per batch, its first
	// INT8 and document slots — the deploy's (0, 0) — ascending in both.
	// A batch's copy slots and document slots advance together, so the
	// document of RADR r sits at doc + (r − radr) of the last pair with
	// radr ≤ r (docSlot). On a flat database that is the id.
	docRuns []docRun

	// tomb is the tombstone bitmap, indexed by id; posOf maps ids to
	// their binary slot position (-1: never issued or collected away
	// with its tombstone).
	tomb  []uint64
	posOf []int32

	// Per-logical-GC-row accounting (rowPages consecutive global
	// binary-region pages each). rowLive/rowDead count live and
	// tombstoned entries (padding slots count in neither) — the victim
	// detector's input. rowPhys mirrors the region row map: the
	// physical row each logical row occupies, -1 once reclaimed.
	rowLive, rowDead []int
	rowPhys          []int

	// freeRows is the append/GC free pool: physical rows of the binary
	// region's reserved extent that are erased and unmapped. Placement
	// picks the lowest-wear row (see takeFreeRows); reclaimed rows
	// return here.
	freeRows []int

	// firstFit disables wear-aware placement (lowest physical row
	// index wins) — the PR 5 allocator's behaviour, kept for the wear
	// experiment's baseline.
	firstFit bool

	// bytesFlash / bytesUser accumulate flash traffic and user payload
	// since deployment — the write-amplification inputs.
	bytesFlash, bytesUser int64

	live      int // live entries
	deadCount int // tombstoned, not yet collected

	// gcPage is the page-plus-OOB buffer a GC step reads its victim
	// row's pages into, kept from step to step (steps run under the
	// host's execution lock); the first step allocates it.
	gcPage []byte
}

// tlcExtent is the live global extent, in pages, of a database's INT8
// and document regions: the deploy's, grown by appends. mutAppend stores
// it under the execution lock; the timing model reads it through any
// device's Database (Database.tlc) without that lock, so both counts are
// atomics.
type tlcExtent struct{ int8Pages, docPages atomic.Int64 }

// docRun is one batch's first INT8 slot and first document slot.
type docRun struct{ radr, doc int }

// docSlot is the document slot of the entry whose INT8 copy is at radr.
func (m *mutState) docSlot(radr uint32) int {
	i, found := slices.BinarySearchFunc(m.docRuns, int(radr), func(r docRun, radr int) int { return r.radr - radr })
	if !found {
		i-- // the last run starting before radr
	}
	r := m.docRuns[i]
	return r.doc + int(radr) - r.radr
}

// newMutState is an empty database's mutable metadata: no live entries,
// empty posting lists and a free pool holding every physical row of the
// binary region's reserved extent — a pure function of the plan and the
// global geometry, so every topology starts with the same pool. The
// deploy is its first append (hostCore.deploy).
func newMutState(lo *dbLayout, firstFit bool) *mutState {
	m := &mutState{lay: lo, firstFit: firstFit}
	if !lo.flat() {
		m.buckets = make([][]slotRange, lo.nlist())
		m.radius = make([]int, lo.nlist())
	}
	for p := range ceilDiv(lo.embCap, lo.rowPages) {
		m.freeRows = append(m.freeRows, p)
	}
	return m
}

// maxSlotPositions is how many binary slot positions a database hands
// out over its life. A position is held as an int32, in the id map
// (posOf) and in a TTL entry (ttlEntry.Pos), so 2^31 − 1 is the last.
// Logical positions only grow — the deploy's and later appends and
// copy-forward take fresh runs from the tail while GC recycles physical
// rows — so the bound is checked where positions are handed out, by the
// tail allocator (writeTail), and first by planLayout, which counts the
// deploy's positions before any region is reserved.
const maxSlotPositions = math.MaxInt32 + 1

// checkSlotPositions refuses a placement whose positions run up to end
// (exclusive) past maxSlotPositions.
func checkSlotPositions(end int) error {
	if int64(end) > maxSlotPositions {
		return fmt.Errorf("%w (embedding region: slot positions up to %d, past the 2^31 an int32 position addresses)", ssd.ErrRegionFull, end)
	}
	return nil
}

// rowOf returns the GC row of a binary slot position.
func (m *mutState) rowOf(pos int) int { return pos / m.lay.embPerPage / m.lay.rowPages }

func alignUp(x, a int) int { return (x + a - 1) / a * a }

func bitsetGet(b []uint64, i int) bool {
	w := i >> 6
	return w < len(b) && b[w]>>(uint(i)&63)&1 != 0
}

func bitsetSet(b []uint64, i int) []uint64 {
	w := i >> 6
	for w >= len(b) {
		b = append(b, 0)
	}
	b[w] |= 1 << (uint(i) & 63)
	return b
}

func bitsetClear(b []uint64, i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// fillWear completes a command's WearStats with the device wear skew
// and the database's cumulative write-amplification figures.
func (m *mutState) fillWear(w *WearStats, t mutTarget) {
	w.MaxBlockErase = t.maxWear()
	w.bytesProgrammed = m.bytesFlash
	w.payloadBytes = m.bytesUser
	if m.bytesUser > 0 {
		w.WriteAmp = float64(w.bytesProgrammed) / float64(w.payloadBytes)
	}
}

// takeFreeRows removes and returns k physical rows from the free pool.
// Wear-leveled placement picks the row with the lowest wear (ties:
// lowest physical index); firstFit picks the lowest physical index —
// either way the choice is a deterministic function of the pool's
// contents and the wear ledger, independent of the pool's order, so
// every topology picks the same rows.
func (m *mutState) takeFreeRows(t mutTarget, k int) []int {
	sel := make([]int, 0, k)
	for ; k > 0; k-- {
		best := 0
		for i := 1; i < len(m.freeRows); i++ {
			a, b := m.freeRows[i], m.freeRows[best]
			if m.firstFit {
				if a < b {
					best = i
				}
				continue
			}
			wa, wb := t.rowWear(a), t.rowWear(b)
			if wa < wb || (wa == wb && a < b) {
				best = i
			}
		}
		sel = append(sel, m.freeRows[best])
		m.freeRows = append(m.freeRows[:best], m.freeRows[best+1:]...)
	}
	return sel
}

// tailRun is one page-aligned slot run bound for the binary region's
// tail: one bucket's share of an append batch or of a collected row's
// survivors, in scan order.
type tailRun struct {
	bucket  int // cluster; 0 on a flat database
	entries []slotEntry
	start   int // first slot, assigned by writeTail
}

// at is the run as renderBin reads it: padding outside its entries.
func (r *tailRun) at(pos int, code []byte) (slotLink, bool) {
	if i := pos - r.start; i >= 0 && i < len(r.entries) {
		copy(code, r.entries[i].code)
		return r.entries[i].slotLink, true
	}
	return slotLink{}, false
}

// program renders and programs global pages [from, to) of a region
// through the one page writer, charging them to the command's wear stats
// and the database's flash-traffic ledger.
func (m *mutState) program(t mutTarget, wear *WearStats, region regionOf, from, to int, carryOOB bool, render func(page, oob []byte, g int)) error {
	if err := t.writePages(region, from, to, carryOOB, render); err != nil {
		return err
	}
	wear.pagesProgrammed += to - from
	m.bytesFlash += int64(to-from) * int64(m.lay.pageBytes)
	return nil
}

// writeTail is the physical half of the one tail allocator, shared by
// appends and GC copy-forward. It places the runs from cursor on, each
// on a fresh page (so a bucket's scan never senses another bucket's
// slots), binds wear-selected free rows for whatever the new extent
// needs beyond the mapped rows, and programs the runs' pages
// out-of-place. The row gate comes before any physical effect: the
// binary region fills only when the free-row pool — which GC refills —
// runs dry, never while live data fits. It returns the new tail; the
// scan plans describe the old state until commitTail.
func (m *mutState) writeTail(t mutTarget, runs []tailRun, cursor int, wear *WearStats) (int, error) {
	lay := m.lay
	for i := range runs {
		runs[i].start = alignUp(cursor, lay.embPerPage)
		cursor = runs[i].start + len(runs[i].entries)
	}
	if err := checkSlotPositions(cursor); err != nil {
		return 0, err
	}
	binPages := ceilDiv(cursor, lay.embPerPage)
	growth := ceilDiv(binPages, lay.rowPages) - len(m.rowPhys)
	if growth > len(m.freeRows) {
		return 0, fmt.Errorf("%w (embedding region: %d fresh GC rows needed, %d free)", ssd.ErrRegionFull, growth, len(m.freeRows))
	}
	var phys []int
	if growth > 0 {
		phys = m.takeFreeRows(t, growth)
	}
	if err := t.growBin(binPages, phys); err != nil {
		return 0, err
	}
	for _, p := range phys {
		m.rowPhys = append(m.rowPhys, p)
		m.rowLive = append(m.rowLive, 0)
		m.rowDead = append(m.rowDead, 0)
	}
	for i := range runs {
		r := &runs[i]
		last := r.start + len(r.entries) - 1
		err := m.program(t, wear, embRegion, r.start/lay.embPerPage, last/lay.embPerPage+1, true,
			func(page, oob []byte, g int) { lay.renderBin(page, oob, g, r.at) })
		if err != nil {
			return 0, err
		}
	}
	return cursor, nil
}

// commitTail is the allocator's logical half: the programmed runs join
// their buckets' posting lists, the id→position map and the per-row live
// counts, the brute-force plan gains one range bridging the inter-run
// page padding (programmed as padding records), and the tail moves.
func (m *mutState) commitTail(runs []tailRun, newTail int) {
	for _, r := range runs {
		if !m.lay.flat() {
			m.buckets[r.bucket] = append(m.buckets[r.bucket], slotRange{First: r.start, Last: r.start + len(r.entries) - 1})
		}
		for j, e := range r.entries {
			m.posOf[e.dadr] = int32(r.start + j)
			m.rowLive[m.rowOf(r.start+j)]++
		}
	}
	if len(runs) > 0 {
		m.setFlatPlan(append(m.flatPlan, slotRange{First: runs[0].start, Last: newTail - 1}))
	}
	m.tailSlots = newTail
	m.binPages = ceilDiv(newTail, m.lay.embPerPage)
}

// setFlatPlan replaces the brute-force plan and drops its pruned rounds.
func (m *mutState) setFlatPlan(plan []slotRange) {
	m.flatPlan, m.flatRounds = plan, nil
}

// prunedRounds returns the brute-force plan cut into a pruned search's
// rounds, cutting it once per plan.
func (m *mutState) prunedRounds() [][]slotRange {
	if m.flatRounds == nil {
		m.flatRounds = chunkFlatRounds(m.flatPlan, m.lay.embPerPage, m.lay.planes)
	}
	return m.flatRounds
}

// appendRecord is one append in the form the device stores it, with no
// float32 left: what encodeAppend builds from an AppendConfig, what
// mutAppend programs and what the journal logs and replays. Item i's
// packed binary code is codes[i*w:(i+1)*w], w = 8·⌈dim/64⌉ (the
// database's slotBytes), its INT8 rerank copy int8s[i*dim:(i+1)*dim],
// its document docs[i], its cluster assign[i] (none on a flat database)
// and its metadata tag tags[i] (nil: untagged). A record aliases the
// command or journal bytes it came from; mutAppend copies what it
// stores.
type appendRecord struct {
	dim          int
	codes, int8s []byte
	docs         [][]byte
	assign       []int
	tags         []uint8
}

// check refuses a record that does not fit the database: no items,
// another dim or other code or INT8 widths (errQueryDims, as a live
// append of the wrong dim gets), a document larger than its slot, or
// cluster assignments the database cannot take. A live append and a
// replayed one pass the same check before anything is applied.
func (rec *appendRecord) check(lay *dbLayout) error {
	n := len(rec.docs)
	if n == 0 {
		return errNoItems
	}
	if rec.dim != lay.dim || len(rec.codes) != n*lay.slotBytes || len(rec.int8s) != n*lay.int8Bytes {
		return fmt.Errorf("%w (append of %d items of dim %d with %d code and %d INT8 bytes, database dim %d holds %d and %d)",
			errQueryDims, n, rec.dim, len(rec.codes), len(rec.int8s), lay.dim, n*lay.slotBytes, n*lay.int8Bytes)
	}
	for i, d := range rec.docs {
		if len(d) > lay.docBytes {
			return fmt.Errorf("reis: doc %d is %dB > slot %dB", i, len(d), lay.docBytes)
		}
	}
	if lay.flat() {
		if len(rec.assign) != 0 {
			return fmt.Errorf("%w (cluster assignment for a flat database)", errBadAssign)
		}
		return nil
	}
	if len(rec.assign) != n {
		return fmt.Errorf("%w (%d assignments for %d vectors)", errBadAssign, len(rec.assign), n)
	}
	for i, c := range rec.assign {
		if c < 0 || c >= lay.nlist() {
			return fmt.Errorf("%w (item %d assigned to cluster %d of %d)", errBadAssign, i, c, lay.nlist())
		}
	}
	return nil
}

// encodeAppend validates an append against its database and encodes it:
// each vector's packed binary code and its INT8 copy under the
// deployment's quantization parameters — the bytes the device stores.
// Documents, assignments and tags are the command's own slices.
func encodeAppend(lay *dbLayout, cfg *AppendConfig) (*appendRecord, error) {
	for i, v := range cfg.Vectors {
		if len(v) != lay.dim {
			return nil, fmt.Errorf("%w (append vector %d has dim %d, database dim %d)",
				errQueryDims, i, len(v), lay.dim)
		}
	}
	n := len(cfg.Vectors)
	rec := &appendRecord{
		dim:    lay.dim,
		codes:  make([]byte, n*lay.slotBytes),
		int8s:  make([]byte, n*lay.int8Bytes),
		docs:   cfg.Docs,
		assign: cfg.Assign,
		tags:   cfg.MetaTags,
	}
	if err := rec.check(lay); err != nil {
		return nil, err
	}
	var bits []uint64
	var q8 []int8
	for i, v := range cfg.Vectors {
		bits = vecmath.BinaryQuantize(v, bits)
		vecmath.PackBinaryBytes(bits, rec.codes[i*lay.slotBytes:(i+1)*lay.slotBytes])
		q8 = lay.params.Int8Quantize(v, q8)
		vecmath.PackInt8Bytes(q8, rec.int8s[i*lay.int8Bytes:(i+1)*lay.int8Bytes])
	}
	return rec, nil
}

// mutAppend applies one encoded append, which has passed check:
// placement and metadata are computed from the geometry-independent
// state, then the fresh pages are programmed through the target. The
// region capacities are checked before any write, so a failed append
// leaves the database untouched.
func mutAppend(m *mutState, t mutTarget, rec *appendRecord) ([]int, *WearStats, error) {
	lay := m.lay
	n := len(rec.docs)

	// Ids continue the document region's slot addressing, page-aligned
	// so the batch's doc and INT8 slots land on fresh pages. The aux
	// regions are append-only address spaces and gate on their planned
	// (geometry-independent) capacities; the binary region gates on free
	// physical rows instead (writeTail), since GC recycles its extent.
	idStart := alignUp(m.docSlots, lay.docsPerPage)
	newDocPages := ceilDiv(idStart+n, lay.docsPerPage)
	rStart := alignUp(m.int8Slots, lay.int8PerPage)
	newInt8Pages := ceilDiv(rStart+n, lay.int8PerPage)
	switch {
	case newInt8Pages > lay.int8Cap:
		return nil, nil, fmt.Errorf("%w (INT8 region: %d pages of %d planned)", ssd.ErrRegionFull, newInt8Pages, lay.int8Cap)
	case newDocPages > lay.docCap:
		return nil, nil, fmt.Errorf("%w (document region: %d pages of %d planned)", ssd.ErrRegionFull, newDocPages, lay.docCap)
	}

	// Binary entries: one run per cluster present in the batch, clusters
	// ascending, items in batch (= ascending id) order. The INT8 copies
	// and the documents follow the same order without the runs' padding:
	// entry j's copy is int8s[j], at RADR rStart+j, and its document
	// docs[j], at document slot idStart+j. radius[ri] is the largest
	// distance from run ri's centroid code to one of its items.
	ids := make([]int, n)
	order := make([]int, n)
	for i := range ids {
		ids[i], order[i] = idStart+i, i
	}
	if !lay.flat() {
		slices.SortStableFunc(order, func(a, b int) int { return rec.assign[a] - rec.assign[b] })
	}
	entries := make([]slotEntry, n)
	int8s := make([][]byte, n)
	docs := make([][]byte, n)
	var bits []uint64
	var runs []tailRun
	var radius []int
	for j, i := range order {
		int8s[j], docs[j] = rec.int8s[i*lay.int8Bytes:(i+1)*lay.int8Bytes], rec.docs[i]
		e := slotEntry{
			slotLink: slotLink{dadr: uint32(idStart + i), radr: uint32(rStart + j)},
			code:     rec.codes[i*lay.slotBytes : (i+1)*lay.slotBytes],
		}
		if rec.tags != nil {
			e.tag = rec.tags[i]
		}
		entries[j] = e
		c := 0
		if !lay.flat() {
			c = rec.assign[i]
		}
		if len(runs) == 0 || runs[len(runs)-1].bucket != c {
			runs = append(runs, tailRun{bucket: c, entries: entries[j:j]})
			radius = append(radius, 0)
		}
		r := len(runs) - 1
		runs[r].entries = runs[r].entries[:len(runs[r].entries)+1]
		if !lay.flat() {
			bits = vecmath.UnpackBinaryBytes(e.code, bits)
			radius[r] = max(radius[r], vecmath.Hamming(lay.centCodes[c], bits))
		}
	}

	wear := &WearStats{}
	newTail, err := m.writeTail(t, runs, m.tailSlots, wear)
	if err != nil {
		return nil, nil, err
	}
	if err := t.growAux(newInt8Pages, newDocPages); err != nil {
		return nil, nil, err
	}
	// Appended document and INT8 pages are programmed without an OOB.
	err = m.program(t, wear, docRegion, int(m.tlc.docPages.Load()), newDocPages, false,
		func(page, _ []byte, g int) { lay.renderTLC(page, g, lay.docBytes, docs, idStart) })
	if err == nil {
		err = m.program(t, wear, int8Region, int(m.tlc.int8Pages.Load()), newInt8Pages, false,
			func(page, _ []byte, g int) { lay.renderTLC(page, g, lay.int8Bytes, int8s, rStart) })
	}
	if err != nil {
		return nil, nil, err
	}

	// Commit the metadata: the tail, the aux extents and the batch's
	// document run, payload accounting, and the clusters' covering radii,
	// grown so the pruning lower bound stays sound for the appended
	// members.
	for len(m.posOf) < idStart+n {
		m.posOf = append(m.posOf, -1)
	}
	m.commitTail(runs, newTail)
	for r, run := range runs {
		if !lay.flat() && radius[r] > m.radius[run.bucket] {
			m.radius[run.bucket] = radius[r]
		}
	}
	m.int8Slots, m.docSlots = rStart+n, idStart+n
	m.tlc.int8Pages.Store(int64(newInt8Pages))
	m.tlc.docPages.Store(int64(newDocPages))
	m.docRuns = append(m.docRuns, docRun{radr: rStart, doc: idStart})
	m.live += n
	for _, d := range rec.docs {
		m.bytesUser += int64(len(d))
	}
	m.bytesUser += int64(n) * int64(lay.slotBytes+lay.int8Bytes)
	m.fillWear(wear, t)
	return ids, wear, nil
}

// mutDelete tombstones the given ids. The whole batch is validated —
// bounds, known ids, no double or duplicate deletes — before any bit
// is set, so a failed delete changes nothing.
func mutDelete(m *mutState, ids []int) error {
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(m.posOf) || m.posOf[id] < 0 || bitsetGet(m.tomb, id) {
			return fmt.Errorf("%w (%d)", errUnknownID, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w (%d repeated in one command)", errUnknownID, id)
		}
		seen[id] = struct{}{}
	}
	for _, id := range ids {
		m.tomb = bitsetSet(m.tomb, id)
		row := m.rowOf(int(m.posOf[id]))
		m.rowLive[row]--
		m.rowDead[row]++
		m.live--
		m.deadCount++
	}
	return nil
}

// mutGCVictims returns the GC rows whose live ratio is below the
// threshold, in ascending row order — the step plan of one compaction
// command. Pure function of the geometry-independent state.
func mutGCVictims(m *mutState, minLiveRatio float64) []int {
	thr := minLiveRatio
	if thr == 0 {
		thr = defaultMinLiveRatio
	}
	var rows []int
	for r := range m.rowLive {
		if m.rowPhys[r] >= 0 && m.rowDead[r] > 0 && float64(m.rowLive[r]) < thr*float64(m.rowLive[r]+m.rowDead[r]) {
			rows = append(rows, r)
		}
	}
	return rows
}

// trimRanges removes the slot interval [first, last] from a segment
// list, splitting partially overlapping segments.
func trimRanges(segs []slotRange, first, last int) []slotRange {
	var out []slotRange
	for _, sr := range segs {
		if sr.Last < first || sr.First > last {
			out = append(out, sr)
			continue
		}
		if sr.First < first {
			out = append(out, slotRange{First: sr.First, Last: first - 1})
		}
		if sr.Last > last {
			out = append(out, slotRange{First: last + 1, Last: sr.Last})
		}
	}
	return out
}

// mutGCStep collects one GC row: its live entries are copied forward
// into page-aligned runs at the region tail (per cluster, ascending,
// preserving their relative scan order), the row's blocks are erased,
// its physical row returns to the free pool, and the scan plans,
// position map and tombstones are committed — all under the host's
// execMu, so a search before or after the step sees a fully consistent
// state, bit-identical in results to the never-collected one. Rows the
// victim list named that have since become empty are skipped (nil
// error, no stats).
func mutGCStep(m *mutState, t mutTarget, row int, wear *WearStats) error {
	lay := m.lay
	if row < 0 || row >= len(m.rowPhys) || m.rowPhys[row] < 0 || m.rowDead[row] == 0 {
		return nil
	}
	slotsPerRow := lay.embPerPage * lay.rowPages
	rowFirst := row * slotsPerRow
	rowLast := rowFirst + slotsPerRow - 1

	// Gather the row's live entries, bucket by bucket in scan order. A
	// flat database has a single bucket: its brute-force plan. Runs are
	// page-aligned per cluster, so no page is read twice.
	plans := m.buckets
	if lay.flat() {
		plans = [][]slotRange{m.flatPlan}
	}
	var runs []tailRun
	var deadIDs []uint32
	if m.gcPage == nil {
		m.gcPage = make([]byte, lay.pageBytes+lay.oobBytes)
	}
	data, oob := m.gcPage[:0:lay.pageBytes], m.gcPage[lay.pageBytes:lay.pageBytes]
	codes := make([]byte, 0, m.rowLive[row]*lay.slotBytes)
	for b, segs := range plans {
		var es []slotEntry
		for _, sr := range segs {
			if sr.Last < rowFirst || sr.First > rowLast {
				continue
			}
			first, last := max(sr.First, rowFirst), min(sr.Last, rowLast)
			firstPage, lastPage := first/lay.embPerPage, last/lay.embPerPage
			for p := firstPage; p <= lastPage; p++ {
				var err error
				data, oob, err = t.c.readPage(t.db, embRegion, p, data, oob)
				if err != nil {
					return err
				}
				wear.PagesRead++
				lo, hi := 0, lay.embPerPage-1
				if p == firstPage {
					lo = first % lay.embPerPage
				}
				if p == lastPage {
					hi = last % lay.embPerPage
				}
				for s := lo; s <= hi; s++ {
					l, ok := parseLink(oob, s)
					if !ok {
						continue
					}
					if bitsetGet(m.tomb, int(l.dadr)) {
						deadIDs = append(deadIDs, l.dadr)
						continue
					}
					codes = append(codes, lay.code(data, s)...)
					es = append(es, slotEntry{l, codes[len(codes)-lay.slotBytes:]})
				}
			}
		}
		if len(es) > 0 {
			runs = append(runs, tailRun{bucket: b, entries: es})
		}
	}

	// Copy the survivors forward to the tail, then erase and unmap the
	// victim row. If the victim is the tail row itself, the cursor moves
	// past it first: nothing may be programmed into (or subsequently
	// appended to) the row about to be erased.
	cursor := m.tailSlots
	if cursor > rowFirst && cursor <= rowLast+1 {
		cursor = rowLast + 1
	}
	programmed := wear.pagesProgrammed
	newTail, err := m.writeTail(t, runs, cursor, wear)
	if err != nil {
		return err
	}
	erases, err := t.reclaimBinRow(row)
	wear.BlockErases += erases
	if err != nil {
		return err
	}

	// Commit: the relocated runs join the scan plans, the victim interval
	// is trimmed out of every one of them, the collected tombstones drop,
	// and the physical row returns to the free pool.
	m.commitTail(runs, newTail)
	m.setFlatPlan(trimRanges(m.flatPlan, rowFirst, rowLast))
	for b := range m.buckets {
		m.buckets[b] = trimRanges(m.buckets[b], rowFirst, rowLast)
	}
	for _, id := range deadIDs {
		bitsetClear(m.tomb, int(id))
		m.posOf[id] = -1
	}
	m.deadCount -= len(deadIDs)
	m.rowLive[row] = 0
	m.rowDead[row] = 0
	m.freeRows = append(m.freeRows, m.rowPhys[row])
	m.rowPhys[row] = -1
	wear.CompactedRows++
	for _, r := range runs {
		wear.copiedEntries += len(r.entries)
	}
	wear.freedPages += lay.rowPages - (wear.pagesProgrammed - programmed)
	return nil
}
