package reis

import (
	"fmt"

	"reis/internal/flash"
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
// Two-level split, mirroring planLayout/install:
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
}

// DeleteConfig is the payload of an OpcodeDelete command.
type DeleteConfig struct {
	// IDs are the entry ids to tombstone (as reported by DocResult.ID
	// and HostResponse.AppendedIDs). Deleting an unknown or already-
	// deleted id fails the whole command with ErrUnknownID; no partial
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
	// are rejected with ErrBadThreshold.
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
	// PagesProgrammed counts flash page programs issued by the command.
	PagesProgrammed int
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
	// CopiedEntries is the number of live entries copied forward.
	CopiedEntries int
	// FreedPages is the net page count returned to the free pool by
	// collection: pages of reclaimed rows minus pages programmed to
	// copy their live entries forward.
	FreedPages int
	// BytesProgrammed is the database's cumulative flash traffic since
	// deployment: every page program of every mutation, including GC
	// copy-forward.
	BytesProgrammed int64
	// PayloadBytes is the cumulative user payload accepted since
	// deployment (embedding slots, INT8 copies and document bytes of
	// appended items).
	PayloadBytes int64
	// WriteAmp is BytesProgrammed / PayloadBytes — the write
	// amplification factor (0 until the first append).
	WriteAmp float64
}

// mutLayout carries the layout constants mutation logic needs —
// identical on every topology deployed from the same plan.
type mutLayout struct {
	dim         int
	slotBytes   int
	embPerPage  int
	int8Bytes   int
	int8PerPage int
	docBytes    int
	docsPerPage int
	pageBytes   int
	oobBytes    int
	ppb         int // flash pages per block
	rowPages    int // GC row granularity: planes_global * ppb global pages
	nlist       int // 0 for flat
	params      vecmath.Int8Params
}

// mutState is the geometry-independent mutable metadata of one
// deployed database. It lives in controller DRAM next to the R-IVF
// table; the execMu holder of the owning host is its single writer.
type mutState struct {
	lay mutLayout

	// buckets[c] is cluster c's posting list: the binary-region slot
	// ranges scanned for the cluster, in scan order. Nil for flat
	// databases.
	buckets [][]SlotRange

	// centCodes[c] / radius[c] are cluster c's binary centroid code and
	// its current binary covering radius (max Hamming distance from the
	// code to any member, deployed or appended) — the lower-bound input
	// of threshold pruning. Appends only grow a radius; compaction keeps
	// it (conservative: a stale-large radius weakens pruning but never
	// threatens correctness). Nil for flat databases.
	centCodes [][]uint64
	radius    []int

	// flatPlan is the brute-force scan plan: the live slot ranges of
	// the whole binary region in position order — the deployed extent
	// plus one range per append batch or GC relocation (ranges bridge
	// the page-padding gaps between clusters, which scan as skipped
	// invalid-DADR slots). Both flat and IVF databases keep one: a
	// Search command on an IVF database scans everything.
	flatPlan []SlotRange

	// tailSlots is the first free binary slot; appends and copy-forward
	// steps allocate page-aligned runs from here. binPages is the live
	// logical extent — under churn it may exceed the planned capacity,
	// because logical rows grow monotonically while their physical rows
	// recycle through the free pool.
	tailSlots int
	binPages  int

	// int8Slots/docSlots are the next append positions of the rerank
	// and document regions (RADR / DADR address spaces); ids are doc
	// slots, so appended ids continue page-aligned after the last
	// batch.
	int8Slots, int8Pages int
	docSlots, docPages   int

	// Planned capacities (global pages) from the layout. The aux
	// regions gate appends against them (append-only address spaces);
	// the binary region instead gates on free physical rows, since GC
	// recycles its extent.
	capBin, capInt8, capDoc int

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
	// rowGone marks reclaimed rows.
	rowLive, rowDead []int
	rowPhys          []int
	rowGone          []bool

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
}

// newMutState derives the initial mutable metadata from a layout plan.
// geo must be the global (single-device-equivalent) geometry.
func newMutState(lo *dbLayout, geo flash.Geometry, firstFit bool) *mutState {
	rowPages := geo.Planes() * lo.ppb
	m := &mutState{
		lay: mutLayout{
			dim:         lo.dim,
			slotBytes:   lo.slotBytes,
			embPerPage:  lo.embPerPage,
			int8Bytes:   lo.int8Bytes,
			int8PerPage: lo.int8PerPage,
			docBytes:    lo.docBytes,
			docsPerPage: lo.docsPerPage,
			pageBytes:   geo.PageBytes,
			oobBytes:    geo.OOBBytes,
			ppb:         lo.ppb,
			rowPages:    rowPages,
			nlist:       len(lo.rivf),
			params:      lo.params,
		},
		tailSlots: lo.regionSlots,
		binPages:  lo.embPages,
		int8Slots: lo.n,
		int8Pages: lo.int8Pages,
		docSlots:  lo.n,
		docPages:  lo.docPages,
		capBin:    lo.embCap,
		capInt8:   lo.int8Cap,
		capDoc:    lo.docCap,
		firstFit:  firstFit,
		live:      lo.n,
	}
	m.flatPlan = []SlotRange{{First: 0, Last: lo.regionSlots - 1}}
	if m.lay.nlist > 0 {
		m.buckets = make([][]SlotRange, m.lay.nlist)
		for c, ent := range lo.rivf {
			if ent.First >= 0 {
				m.buckets[c] = []SlotRange{{First: ent.First, Last: ent.Last}}
			}
		}
		// The radius ledger is mutable (appends can grow it); the codes
		// are immutable and shared with the layout.
		m.centCodes = lo.centCodes
		m.radius = append([]int(nil), lo.radius...)
	}
	// Deployed rows are identity-mapped; the rest of the reserved
	// extent is the free pool. Both counts are pure functions of the
	// plan and the global geometry, so every topology starts with the
	// same pool.
	initRows := ceilDiv(lo.embPages, rowPages)
	physRows := ceilDiv(lo.embCap, rowPages)
	m.rowLive = make([]int, initRows)
	m.rowDead = make([]int, initRows)
	m.rowGone = make([]bool, initRows)
	m.rowPhys = make([]int, initRows)
	for r := range m.rowPhys {
		m.rowPhys[r] = r
	}
	for p := initRows; p < physRows; p++ {
		m.freeRows = append(m.freeRows, p)
	}
	m.posOf = make([]int32, lo.n)
	for pos, id := range lo.order {
		if id < 0 {
			continue
		}
		m.posOf[id] = int32(pos)
		m.rowLive[m.rowOf(pos)]++
	}
	return m
}

// rowOf returns the GC row of a binary slot position.
func (m *mutState) rowOf(pos int) int { return pos / m.lay.embPerPage / m.lay.rowPages }

// Live returns the number of live (not tombstoned) entries.
func (m *mutState) Live() int { return m.live }

// flat reports whether the database has no IVF structure.
func (m *mutState) flat() bool { return m.lay.nlist == 0 }

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
	w.BytesProgrammed = m.bytesFlash
	w.PayloadBytes = m.bytesUser
	if m.bytesUser > 0 {
		w.WriteAmp = float64(w.BytesProgrammed) / float64(w.PayloadBytes)
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

// mutAppend executes one append: placement and metadata are computed
// from the geometry-independent state, then the fresh pages are
// programmed through the target. The whole command is validated before
// any write, so a failed append leaves the database untouched.
func mutAppend(m *mutState, t mutTarget, cfg *AppendConfig) ([]int, *WearStats, error) {
	lay := &m.lay
	n := len(cfg.Vectors)
	for i, v := range cfg.Vectors {
		if len(v) != lay.dim {
			return nil, nil, fmt.Errorf("%w (append vector %d has dim %d, database dim %d)",
				ErrQueryDims, i, len(v), lay.dim)
		}
	}
	for i, d := range cfg.Docs {
		if len(d) > lay.docBytes {
			return nil, nil, fmt.Errorf("reis: append doc %d is %dB > slot %dB", i, len(d), lay.docBytes)
		}
	}
	if m.flat() {
		if len(cfg.Assign) != 0 {
			return nil, nil, fmt.Errorf("%w (cluster assignment for a flat database)", ErrBadAssign)
		}
	} else {
		if len(cfg.Assign) != n {
			return nil, nil, fmt.Errorf("%w (%d assignments for %d vectors)", ErrBadAssign, len(cfg.Assign), n)
		}
		for i, c := range cfg.Assign {
			if c < 0 || c >= lay.nlist {
				return nil, nil, fmt.Errorf("%w (item %d assigned to cluster %d of %d)", ErrBadAssign, i, c, lay.nlist)
			}
		}
	}

	// Ids continue the document region's slot addressing, page-aligned
	// so the batch's doc and INT8 slots land on fresh pages.
	idStart := alignUp(m.docSlots, lay.docsPerPage)
	newDocSlots := idStart + n
	newDocPages := ceilDiv(newDocSlots, lay.docsPerPage)
	rStart := alignUp(m.int8Slots, lay.int8PerPage)
	newInt8Slots := rStart + n
	newInt8Pages := ceilDiv(newInt8Slots, lay.int8PerPage)

	// Binary placement: one page-aligned slot run per cluster present
	// in the batch, clusters ascending, items in batch (= ascending id)
	// order.
	type group struct {
		cluster int
		items   []int // batch indices
		start   int   // first slot of the run
	}
	var groups []group
	if m.flat() {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		groups = []group{{cluster: 0, items: items}}
	} else {
		byCluster := make(map[int][]int, 8)
		for i, c := range cfg.Assign {
			byCluster[c] = append(byCluster[c], i)
		}
		for c := 0; c < lay.nlist; c++ {
			if items, ok := byCluster[c]; ok {
				groups = append(groups, group{cluster: c, items: items})
			}
		}
	}
	cursor := m.tailSlots
	for gi := range groups {
		groups[gi].start = alignUp(cursor, lay.embPerPage)
		cursor = groups[gi].start + len(groups[gi].items)
	}
	newTail := cursor
	newBinPages := ceilDiv(newTail, lay.embPerPage)

	// Logical capacity gates — before any physical effect. The aux
	// regions check their planned (geometry-independent) capacities;
	// the binary region checks the free-row pool, which GC refills, so
	// sustained churn never spuriously fills the region while live data
	// fits.
	neededRows := ceilDiv(newBinPages, lay.rowPages)
	growth := neededRows - len(m.rowPhys)
	switch {
	case growth > len(m.freeRows):
		return nil, nil, fmt.Errorf("%w (embedding region: %d fresh GC rows needed, %d free)", ssd.ErrRegionFull, growth, len(m.freeRows))
	case newInt8Pages > m.capInt8:
		return nil, nil, fmt.Errorf("%w (INT8 region: %d pages of %d planned)", ssd.ErrRegionFull, newInt8Pages, m.capInt8)
	case newDocPages > m.capDoc:
		return nil, nil, fmt.Errorf("%w (document region: %d pages of %d planned)", ssd.ErrRegionFull, newDocPages, m.capDoc)
	}
	var physSel []int
	if growth > 0 {
		physSel = m.takeFreeRows(t, growth)
	}
	if err := t.growBin(newBinPages, physSel); err != nil {
		return nil, nil, err
	}
	if err := t.growAux(newInt8Pages, newDocPages); err != nil {
		return nil, nil, err
	}
	for _, p := range physSel {
		m.rowPhys = append(m.rowPhys, p)
		m.rowGone = append(m.rowGone, false)
		m.rowLive = append(m.rowLive, 0)
		m.rowDead = append(m.rowDead, 0)
	}

	wear := &WearStats{}
	program := func(write func() error) error {
		if err := write(); err != nil {
			return err
		}
		wear.PagesProgrammed++
		m.bytesFlash += int64(lay.pageBytes)
		return nil
	}
	// Document pages.
	for p := m.docPages; p < newDocPages; p++ {
		page := make([]byte, lay.pageBytes)
		for s := 0; s < lay.docsPerPage; s++ {
			slot := p*lay.docsPerPage + s
			if slot >= idStart && slot < idStart+n {
				copy(page[s*lay.docBytes:(s+1)*lay.docBytes], cfg.Docs[slot-idStart])
			}
		}
		if err := program(func() error { return t.writeDocPage(p, page) }); err != nil {
			return nil, nil, err
		}
	}
	// INT8 rerank pages.
	for p := m.int8Pages; p < newInt8Pages; p++ {
		page := make([]byte, lay.pageBytes)
		for s := 0; s < lay.int8PerPage; s++ {
			slot := p*lay.int8PerPage + s
			if slot >= rStart && slot < rStart+n {
				q8 := lay.params.Int8Quantize(cfg.Vectors[slot-rStart], nil)
				copy(page[s*lay.int8Bytes:(s+1)*lay.int8Bytes], vecmath.PackInt8Bytes(q8, nil))
			}
		}
		if err := program(func() error { return t.writeInt8Page(p, page) }); err != nil {
			return nil, nil, err
		}
	}
	// Binary pages, one run per cluster group.
	for _, g := range groups {
		end := g.start + len(g.items)
		for p := g.start / lay.embPerPage; p <= (end-1)/lay.embPerPage; p++ {
			page := make([]byte, lay.pageBytes)
			oob := make([]byte, lay.oobBytes)
			for s := 0; s < lay.embPerPage; s++ {
				pos := p*lay.embPerPage + s
				link := encodeLinkage(InvalidDADR, 0, 0)
				if pos >= g.start && pos < end {
					i := g.items[pos-g.start]
					code := vecmath.PackBinaryBytes(vecmath.BinaryQuantize(cfg.Vectors[i], nil), nil)
					copy(page[s*lay.slotBytes:(s+1)*lay.slotBytes], code)
					var tag uint8
					if cfg.MetaTags != nil {
						tag = cfg.MetaTags[i]
					}
					link = encodeLinkage(uint32(idStart+i), uint32(rStart+i), tag)
				}
				copy(oob[s*oobBytesPerSlot:(s+1)*oobBytesPerSlot], link)
			}
			if err := program(func() error { return t.writeBinPage(p, page, oob) }); err != nil {
				return nil, nil, err
			}
		}
	}

	// Commit the metadata: posting-list segments, id→position map,
	// per-row live counts, extents, payload accounting.
	for w := len(m.posOf); w < newDocSlots; w++ {
		m.posOf = append(m.posOf, -1)
	}
	ids := make([]int, n)
	for _, g := range groups {
		for j, i := range g.items {
			pos := g.start + j
			ids[i] = idStart + i
			m.posOf[idStart+i] = int32(pos)
			m.rowLive[m.rowOf(pos)]++
		}
		if !m.flat() {
			m.buckets[g.cluster] = append(m.buckets[g.cluster], SlotRange{First: g.start, Last: g.start + len(g.items) - 1})
			// Grow the cluster's covering radius so the pruning lower
			// bound stays sound for the appended members.
			for _, i := range g.items {
				if d := vecmath.Hamming(m.centCodes[g.cluster], vecmath.BinaryQuantize(cfg.Vectors[i], nil)); d > m.radius[g.cluster] {
					m.radius[g.cluster] = d
				}
			}
		}
	}
	// The brute-force plan gains one range per batch, bridging the
	// inter-cluster page padding (written as invalid-DADR slots above).
	m.flatPlan = append(m.flatPlan, SlotRange{First: groups[0].start, Last: newTail - 1})
	m.tailSlots = newTail
	m.binPages = newBinPages
	m.int8Slots = newInt8Slots
	m.int8Pages = newInt8Pages
	m.docSlots = newDocSlots
	m.docPages = newDocPages
	m.live += n
	for _, d := range cfg.Docs {
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
			return fmt.Errorf("%w (%d)", ErrUnknownID, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w (%d repeated in one command)", ErrUnknownID, id)
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

// liveEntry is one live binary-region entry gathered by the collector.
type liveEntry struct {
	code []byte
	id   uint32
	radr uint32
	tag  uint8
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
		if !m.rowGone[r] && m.rowDead[r] > 0 && float64(m.rowLive[r]) < thr*float64(m.rowLive[r]+m.rowDead[r]) {
			rows = append(rows, r)
		}
	}
	return rows
}

// trimRanges removes the slot interval [first, last] from a segment
// list, splitting partially overlapping segments.
func trimRanges(segs []SlotRange, first, last int) []SlotRange {
	var out []SlotRange
	for _, sr := range segs {
		if sr.Last < first || sr.First > last {
			out = append(out, sr)
			continue
		}
		if sr.First < first {
			out = append(out, SlotRange{First: sr.First, Last: first - 1})
		}
		if sr.Last > last {
			out = append(out, SlotRange{First: last + 1, Last: sr.Last})
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
	lay := &m.lay
	if row < 0 || row >= len(m.rowPhys) || m.rowGone[row] || m.rowDead[row] == 0 {
		return nil
	}
	slotsPerRow := lay.embPerPage * lay.rowPages
	rowFirst := row * slotsPerRow
	rowLast := rowFirst + slotsPerRow - 1

	// Gather the row's slots, bucket by bucket in scan order. A flat
	// database has a single bucket: its brute-force plan. Runs are
	// page-aligned per cluster, so no page is read twice.
	plans := m.buckets
	if m.flat() {
		plans = [][]SlotRange{m.flatPlan}
	}
	type gcGroup struct {
		bucket  int
		entries []liveEntry
		start   int
	}
	var groups []gcGroup
	var deadIDs []uint32
	for b, segs := range plans {
		var es []liveEntry
		for _, sr := range segs {
			if sr.Last < rowFirst || sr.First > rowLast {
				continue
			}
			first, last := max(sr.First, rowFirst), min(sr.Last, rowLast)
			firstPage, lastPage := first/lay.embPerPage, last/lay.embPerPage
			for p := firstPage; p <= lastPage; p++ {
				data, oob, err := t.readBinPage(p)
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
					dadr, radr, tag := decodeLinkage(oob[s*oobBytesPerSlot : (s+1)*oobBytesPerSlot])
					if dadr == InvalidDADR {
						continue
					}
					if bitsetGet(m.tomb, int(dadr)) {
						deadIDs = append(deadIDs, dadr)
						continue
					}
					code := make([]byte, lay.slotBytes)
					copy(code, data[s*lay.slotBytes:(s+1)*lay.slotBytes])
					es = append(es, liveEntry{code: code, id: dadr, radr: radr, tag: tag})
				}
			}
		}
		if len(es) > 0 {
			groups = append(groups, gcGroup{bucket: b, entries: es})
		}
	}

	// Copy-forward placement at the tail. If the victim is the tail row
	// itself, move the cursor past it: nothing may be programmed into
	// (or subsequently appended to) the row about to be erased.
	cursor := m.tailSlots
	if cursor > rowFirst && cursor <= rowLast+1 {
		cursor = rowLast + 1
	}
	total := 0
	for gi := range groups {
		groups[gi].start = alignUp(cursor, lay.embPerPage)
		cursor = groups[gi].start + len(groups[gi].entries)
		total += len(groups[gi].entries)
	}
	newTail := cursor
	newBinPages := ceilDiv(newTail, lay.embPerPage)
	neededRows := ceilDiv(newBinPages, lay.rowPages)
	growth := neededRows - len(m.rowPhys)
	var physSel []int
	if growth > 0 {
		if growth > len(m.freeRows) {
			return fmt.Errorf("%w (GC copy-forward needs %d fresh rows, %d free)", ssd.ErrRegionFull, growth, len(m.freeRows))
		}
		physSel = m.takeFreeRows(t, growth)
	}
	if err := t.growBin(newBinPages, physSel); err != nil {
		return err
	}
	for _, p := range physSel {
		m.rowPhys = append(m.rowPhys, p)
		m.rowGone = append(m.rowGone, false)
		m.rowLive = append(m.rowLive, 0)
		m.rowDead = append(m.rowDead, 0)
	}

	// Program the relocated runs (out-of-place: each starts on a fresh
	// page past the old tail), then erase and unmap the victim row.
	stepProgrammed := 0
	for _, g := range groups {
		end := g.start + len(g.entries)
		for p := g.start / lay.embPerPage; p <= (end-1)/lay.embPerPage; p++ {
			page := make([]byte, lay.pageBytes)
			oob := make([]byte, lay.oobBytes)
			for s := 0; s < lay.embPerPage; s++ {
				pos := p*lay.embPerPage + s
				link := encodeLinkage(InvalidDADR, 0, 0)
				if pos >= g.start && pos < end {
					e := g.entries[pos-g.start]
					copy(page[s*lay.slotBytes:(s+1)*lay.slotBytes], e.code)
					link = encodeLinkage(e.id, e.radr, e.tag)
				}
				copy(oob[s*oobBytesPerSlot:(s+1)*oobBytesPerSlot], link)
			}
			if err := t.writeBinPage(p, page, oob); err != nil {
				return err
			}
			wear.PagesProgrammed++
			stepProgrammed++
			m.bytesFlash += int64(lay.pageBytes)
		}
	}
	erases, err := t.reclaimBinRow(row)
	wear.BlockErases += erases
	if err != nil {
		return err
	}

	// Commit: trim the victim interval out of every scan plan, append
	// the relocated runs, rebuild the touched position-map entries,
	// drop the collected tombstones, return the physical row.
	m.flatPlan = trimRanges(m.flatPlan, rowFirst, rowLast)
	if !m.flat() {
		for b := range m.buckets {
			m.buckets[b] = trimRanges(m.buckets[b], rowFirst, rowLast)
		}
	}
	for _, g := range groups {
		if !m.flat() {
			m.buckets[g.bucket] = append(m.buckets[g.bucket], SlotRange{First: g.start, Last: g.start + len(g.entries) - 1})
		}
		for j, e := range g.entries {
			pos := g.start + j
			m.posOf[e.id] = int32(pos)
			m.rowLive[m.rowOf(pos)]++
		}
	}
	if total > 0 {
		m.flatPlan = append(m.flatPlan, SlotRange{First: groups[0].start, Last: newTail - 1})
	}
	for _, id := range deadIDs {
		bitsetClear(m.tomb, int(id))
		m.posOf[id] = -1
	}
	m.deadCount -= len(deadIDs)
	m.rowLive[row] = 0
	m.rowDead[row] = 0
	m.rowGone[row] = true
	m.freeRows = append(m.freeRows, m.rowPhys[row])
	m.rowPhys[row] = -1
	m.tailSlots = newTail
	m.binPages = newBinPages
	wear.CompactedRows++
	wear.CopiedEntries += total
	wear.FreedPages += lay.rowPages - stepProgrammed
	return nil
}
