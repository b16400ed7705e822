package flash

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"reis/internal/vecmath"
)

// Stats accumulates device event counts; the SSD and REIS layers turn
// these into latency and energy using Params. All counters are atomic
// so concurrent per-plane operations (one scan task per plane, as the
// REIS engine dispatches them) can account events without a global
// device lock. Read them with Load(); Reset with ResetStats.
type Stats struct {
	PageReads       atomic.Int64
	PageReadsByMode [3]atomic.Int64
	PagePrograms    atomic.Int64
	BlockErases     atomic.Int64
	LatchXORs       atomic.Int64
	BitCounts       atomic.Int64
	PassFailChecks  atomic.Int64
	// PrunedSlots counts the slots of a GEN_DIST_PAGE wave whose
	// computed distance exceeded the command's pruning bound (top-k
	// threshold propagation): every slot the wave computed, padding and
	// slots the distance or metadata filter drops included — a superset
	// of the transfers the controller skips for the bound.
	PrunedSlots atomic.Int64
	IBCLoads    atomic.Int64
	// BytesOut counts bytes transferred from dies to the controller,
	// per channel.
	BytesOut []atomic.Int64
	// ReadBytesOut is the part of BytesOut the conventional read path
	// moved — whole pages (ReadPageInto) and records of a page
	// (ReadSlots) — per channel; the rest is the scan's TTL entries.
	ReadBytesOut []atomic.Int64
	// BytesIn counts bytes transferred into dies (programs, IBC), per
	// channel.
	BytesIn []atomic.Int64
}

// TotalBytesOut sums the per-channel outbound byte counts.
func (s *Stats) TotalBytesOut() int64 {
	var t int64
	for i := range s.BytesOut {
		t += s.BytesOut[i].Load()
	}
	return t
}

// Device is a functional NAND flash array and the die's command set:
// the conventional page read (ReadPage) and the Table 2 extensions REIS
// issues — IBC (LoadCache, LoadCacheDie), GEN_DIST_PAGE (GenDistPage,
// Table 2's XOR and GEN_DIST fused into one page-granular wave) and
// RD_TTL (ReadTTL). The die control logic is a state machine (Sec
// 4.4.2) with two rules: a page read senses only SLC-ESP blocks, the
// zero-BER cells that computation without ECC needs (Sec 4.1.2), and
// GEN_DIST_PAGE reads two latches an IBC and a page read have filled,
// checked on the plane that holds them. Operations that touch a single
// plane (reads, latch ops, OOB access) are safe to run concurrently on
// *different* planes: each plane carries its own lock, the shared
// counters are atomic, and the device holds no lock of its own.
// Operations on the same plane must be externally ordered — the REIS
// engine guarantees this by dispatching at most one scan task per plane
// at a time.
type Device struct {
	geo Geometry

	planes []*Plane
	// blockMode[planeIdx][block] is the cell mode each block was last
	// programmed in (soft partitioning). Written only during
	// deployment; queries read it concurrently.
	blockMode [][]CellMode
	// eraseCount[planeIdx][block] is the per-block program/erase cycle
	// count — the wear ledger garbage collection reports to the host.
	// Counters are atomic so concurrent erases on different planes need
	// no device lock.
	eraseCount [][]atomic.Int64

	Stats Stats

	// erased is what an erased page senses as (all ones) and zero what a
	// latch holds before its first load (all zeros), stored whole and
	// shared read-only by every plane's latch views — and, through the
	// store programmed pages share, by every device of the same page and
	// OOB sizes. Their user data also stands in for the fill of every
	// programmed page past its stored prefix, which GenDistPage reads at
	// the same offsets.
	erased, zero programmed
}

// Plane models one flash plane: its programmed pages (lazily
// allocated) and the two latches of its page buffer (Sec 2.3 items
// 10-12) that commands read, each PageBytes+OOBBytes wide: a page read
// loads OOB alongside user data (Sec 4.1.3). The simulator holds no
// latch as bytes of its own. The sensing latch is a view of the sensed
// page; the cache latch is the broadcast pattern it holds copies of.
// The third latch, the data latch, receives GEN_DIST_PAGE's XOR, which
// the same command counts and no later one reads, so it is not modeled.
// latches materializes the two latches' bytes.
// The mutex guards the map and the latch state; every Device per-plane
// operation takes it, so concurrent operations on distinct planes never
// share mutable state.
type Plane struct {
	mu  sync.Mutex
	geo Geometry
	// pages maps a page index within the plane to its programmed content,
	// which never changes between the program and the block's erase.
	pages map[int]programmed

	// sensing is the sensing latch: a programmed page's own bytes (read
	// only), or the device's erased or zero page.
	sensing programmed
	// sensed records that a ReadPage has filled the sensing latch; the
	// cache latch's slot > 0 records the same of a broadcast.
	sensed bool
	cache  cacheLatch

	// senses counts the plane's page senses by cell mode; Senses reads it.
	senses [3]int64
	// distWaves counts the plane's GEN_DIST_PAGE waves; DistWaves reads it.
	distWaves int64
}

// Senses is the number of pages the plane has sensed in mode m since the
// last ResetStats: the per-plane side of Stats.PageReadsByMode.
func (p *Plane) Senses(m CellMode) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.senses[m]
}

// DistWaves is the number of page-granular distance waves
// (GEN_DIST_PAGE) the plane has run since the last ResetStats: one per
// query and sensed page, however many queries share the sense.
func (p *Plane) DistWaves() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.distWaves
}

// programmed is the content a page was programmed with: PageBytes of user
// data and OOBBytes of OOB. Each region is held as the prefix that was
// written, data or oob, and the fill byte of the rest, dataFill or
// oobFill: 0xFF (erased cells) or 0x00 (padding the writer left). A
// region that is stored whole has no rest, and its fill byte is moot.
//
// The prefixes are shared by content across every device in the process:
// key is the one canonical copy of those bytes (see intern), so replicas
// that program the same pages hold their bytes once, and each page keeps
// only the pointer and its fill bytes.
type programmed struct {
	key               *pageKey
	dataFill, oobFill byte
}

// data and oob are read-only views of the page's stored prefixes.
func (p programmed) data() []byte { return bytesView(p.key.data) }

func (p programmed) oob() []byte { return bytesView(p.key.oob) }

// pageKey is a programmed page's stored prefixes: the canonical copy of
// some content, shared by every page that holds it.
type pageKey struct{ data, oob string }

// store is the process-wide set of programmed bytes: each distinct
// content once, held weakly and filed under a hash of its bytes. A
// canonical copy lives while some page or latch points at it; once none
// does, a cleanup (drop) removes its entry, and the collector frees its
// bytes once no view read from them is left either. (unique.Make keeps
// such a set too, but in Go 1.24 its cleanup walks every entry with
// weak.Pointer.Value while a collection marks, which revives the dead
// ones, so a dead page's bytes could outlive it by any number of
// cycles; and it hashes the content again for each insert and delete.)
var store = struct {
	sync.Mutex
	seed maphash.Seed
	m    map[uint64][]weak.Pointer[pageKey]
}{seed: maphash.MakeSeed(), m: map[uint64][]weak.Pointer[pageKey]{}}

// storeEntry names one canonical copy's entry for its cleanup.
type storeEntry struct {
	hash uint64
	key  weak.Pointer[pageKey]
}

// intern returns the store's canonical copy of the prefixes data and
// oob. They are copied only when no page in the process holds the same
// bytes yet, both into one allocation; otherwise the caller shares the
// copy that page holds.
func intern(data, oob []byte) *pageKey {
	sum := pageHash(data, oob)
	store.Lock()
	defer store.Unlock()
	for _, w := range store.m[sum] {
		if key := w.Value(); key != nil && key.data == string(data) && key.oob == string(oob) {
			return key
		}
	}
	var b strings.Builder
	b.Grow(len(data) + len(oob))
	b.Write(data)
	b.Write(oob)
	both := b.String()
	key := &pageKey{both[:len(data)], both[len(data):]}
	w := weak.Make(key)
	store.m[sum] = append(store.m[sum], w)
	runtime.AddCleanup(key, drop, storeEntry{sum, w})
	return key
}

// pageHash is the store's hash of the content data, oob: the runtime's
// map hash of both regions, each in one pass.
func pageHash(data, oob []byte) uint64 {
	return maphash.Comparable(store.seed, pageKey{stringView(data), stringView(oob)})
}

// drop removes a canonical copy no page or latch points at any more from
// the store.
func drop(e storeEntry) {
	store.Lock()
	defer store.Unlock()
	if ws := slices.DeleteFunc(store.m[e.hash], func(w weak.Pointer[pageKey]) bool { return w == e.key }); len(ws) > 0 {
		store.m[e.hash] = ws
	} else {
		delete(store.m, e.hash)
	}
}

// stringView and bytesView are the simulator's only unsafe conversions,
// and both rest on one invariant: the bytes of a programmed page are
// never written. stringView lends a caller's bytes to pageHash, which
// only reads them. bytesView turns a canonical copy back into the slice
// every read serves views of; a write through any such view would change
// the page on every device that holds the same content.
func stringView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

func bytesView(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// trimmed is the programmed form of a page written with data and oob:
// each region, padded with 0xFF to its size (PageBytes, OOBBytes), keeps
// only what precedes its trailing run of 0x00 or 0xFF, and that prefix is
// shared with every page of the process that stores the same bytes.
func trimmed(data, oob []byte, geo Geometry) programmed {
	dn, dataFill := trim(data, geo.PageBytes)
	on, oobFill := trim(oob, geo.OOBBytes)
	return programmed{key: intern(data[:dn], oob[:on]), dataFill: dataFill, oobFill: oobFill}
}

// trim takes the size-byte region that b padded with 0xFF makes and
// returns how many of its leading bytes must be stored, and the fill
// byte of the rest: 0x00 if the region ends in 0x00, else 0xFF.
func trim(b []byte, size int) (int, byte) {
	fill := byte(0xFF)
	if len(b) == size && size > 0 && b[size-1] == 0 {
		fill = 0
	}
	n := len(b)
	for n > 0 && b[n-1] == fill {
		n--
	}
	return n, fill
}

// readRegion copies the first len(dst) bytes of a region into dst: the
// stored bytes, then the fill byte.
func readRegion(dst, stored []byte, fill byte) {
	fillWith(dst[copy(dst, stored):], fill)
}

// cacheLatch is the cache latch as a broadcast leaves it: slot-aligned
// copies of pat, each zero-padded to slot bytes, over the whole slots of
// the page; zero in the page's tail and the OOB area, and everywhere
// before the first load (slot 0). pat is the latch's own copy.
type cacheLatch struct {
	pat  []byte
	slot int
}

// load makes c hold copies of pattern in slotBytes-wide slots.
func (c *cacheLatch) load(pattern []byte, slotBytes int) {
	c.pat = append(c.pat[:0], pattern...)
	c.slot = slotBytes
}

// xorCount returns the fail-bit count of data[lo:hi] XOR the latch's
// bytes [lo, hi) of a pageBytes page: each stretch of one pattern slot
// by the pattern kernel, the rest as a plain popcount.
func (c *cacheLatch) xorCount(data []byte, pageBytes, lo, hi int) int {
	filled := 0
	if c.slot > 0 {
		filled = pageBytes - pageBytes%c.slot
	}
	var one [1]int
	n := 0
	for lo < hi {
		end, pat := hi, []byte(nil)
		if lo < filled {
			base := lo - lo%c.slot
			end = min(hi, base+c.slot)
			pat = c.pat[min(lo-base, len(c.pat)):min(end-base, len(c.pat))]
		}
		vecmath.XorPopCountPattern(data[lo:end], pat, end-lo, 0, 1, one[:])
		n += one[0]
		lo = end
	}
	return n
}

// xorCount is the cache latch's fail-bit count against sensing latch
// bytes [lo, hi): the stored prefix's, then tail's (the device's shared
// page of the prefix's fill byte) at the same offsets. Popcounts add
// over bytes, so a slot the prefix ends inside splits there.
func (p *Plane) xorCount(tail []byte, lo, hi int) int {
	data, n := p.sensing.data(), p.geo.PageBytes
	return p.cache.xorCount(data, n, lo, min(hi, len(data))) + p.cache.xorCount(tail, n, max(lo, len(data)), hi)
}

// fill writes the latch's bytes into latch (PageBytes+OOBBytes).
func (c *cacheLatch) fill(latch []byte, pageBytes int) {
	clear(latch)
	if c.slot <= 0 {
		return
	}
	for off := 0; off+c.slot <= pageBytes; off += c.slot {
		copy(latch[off:], c.pat)
	}
}

// latches materializes the plane's sensing and cache latches, fresh
// copies the caller owns.
func (p *Plane) latches() (sensing, cache []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.geo.PageBytes
	sensing, cache = make([]byte, n+p.geo.OOBBytes), make([]byte, n+p.geo.OOBBytes)
	readRegion(sensing[:n], p.sensing.data(), p.sensing.dataFill)
	readRegion(sensing[n:], p.sensing.oob(), p.sensing.oobFill)
	p.cache.fill(cache, n)
	return sensing, cache
}

// NewDevice allocates a device with the given geometry. The device counts
// events and holds no timing: callers price its Stats with Params.
func NewDevice(geo Geometry) (*Device, error) {
	if err := geo.validate(); err != nil {
		return nil, err
	}
	d := &Device{
		geo:    geo,
		planes: make([]*Plane, geo.Planes()),
	}
	d.Stats.BytesOut = make([]atomic.Int64, geo.Channels)
	d.Stats.ReadBytesOut = make([]atomic.Int64, geo.Channels)
	d.Stats.BytesIn = make([]atomic.Int64, geo.Channels)
	page := make([]byte, max(geo.PageBytes, geo.OOBBytes))
	d.zero = programmed{key: intern(page[:geo.PageBytes], page[:geo.OOBBytes])}
	fillWith(page, 0xFF)
	d.erased = programmed{key: intern(page[:geo.PageBytes], page[:geo.OOBBytes]), dataFill: 0xFF, oobFill: 0xFF}
	for i := range d.planes {
		d.planes[i] = &Plane{
			geo:     geo,
			pages:   make(map[int]programmed),
			sensing: d.zero,
		}
	}
	d.blockMode = make([][]CellMode, geo.Planes())
	for i := range d.blockMode {
		d.blockMode[i] = make([]CellMode, geo.BlocksPerPlane)
		for b := range d.blockMode[i] {
			d.blockMode[i][b] = ModeTLC
		}
	}
	d.eraseCount = make([][]atomic.Int64, geo.Planes())
	for i := range d.eraseCount {
		d.eraseCount[i] = make([]atomic.Int64, geo.BlocksPerPlane)
	}
	return d, nil
}

// Plane returns the plane at the global index.
func (d *Device) Plane(idx int) *Plane {
	return d.planes[idx]
}

// SetBlockMode soft-partitions: marks a block's cell mode before
// programming (Sec 4.1.2 hybrid SSD design).
func (d *Device) SetBlockMode(a Address, m CellMode) error {
	if !a.Valid(d.geo) {
		return fmt.Errorf("flash: SetBlockMode invalid address %v", a)
	}
	d.blockMode[a.PlaneIndex(d.geo)][a.Block] = m
	return nil
}

// BlockMode reports the cell mode of the block containing a.
func (d *Device) BlockMode(a Address) CellMode {
	return d.blockMode[a.PlaneIndex(d.geo)][a.Block]
}

// Program writes user data and OOB bytes to a page. Either may be
// shorter than its region; the rest reads back as 0xFF (erased cells).
// The page keeps only the bytes before each region's trailing run of
// 0x00 or 0xFF (see trimmed), and keeps them in the store every device of
// the process shares: a page whose bytes some page already holds adds no
// copy of them. Every read serves the run from its fill byte.
func (d *Device) Program(a Address, data, oob []byte) error {
	if !a.Valid(d.geo) {
		return fmt.Errorf("flash: Program invalid address %v", a)
	}
	if len(data) > d.geo.PageBytes {
		return fmt.Errorf("flash: Program data %d bytes exceeds page size %d", len(data), d.geo.PageBytes)
	}
	if len(oob) > d.geo.OOBBytes {
		return fmt.Errorf("flash: Program OOB %d bytes exceeds OOB size %d", len(oob), d.geo.OOBBytes)
	}
	p := d.planes[a.PlaneIndex(d.geo)]
	idx := a.pageIndex(d.geo)
	page := trimmed(data, oob, d.geo)
	p.mu.Lock()
	p.pages[idx] = page
	p.mu.Unlock()
	d.Stats.PagePrograms.Add(1)
	d.Stats.BytesIn[a.Channel].Add(int64(len(data) + len(oob)))
	return nil
}

// EraseBlock resets every page in the block to the erased state.
func (d *Device) EraseBlock(a Address) error {
	if !a.Valid(d.geo) {
		return fmt.Errorf("flash: EraseBlock invalid address %v", a)
	}
	p := d.planes[a.PlaneIndex(d.geo)]
	base := a.Block * d.geo.PagesPerBlock
	p.mu.Lock()
	for pg := 0; pg < d.geo.PagesPerBlock; pg++ {
		delete(p.pages, base+pg)
	}
	p.mu.Unlock()
	d.Stats.BlockErases.Add(1)
	d.eraseCount[a.PlaneIndex(d.geo)][a.Block].Add(1)
	return nil
}

// BlockMaxErase reports the highest erase count the given block index
// has seen across all planes — the per-row wear figure wear-leveled
// placement consults (a plane-striped region row is block `block` on
// every plane).
func (d *Device) BlockMaxErase(block int) int64 {
	var m int64
	if block < 0 || block >= d.geo.BlocksPerPlane {
		return 0
	}
	for p := range d.eraseCount {
		if n := d.eraseCount[p][block].Load(); n > m {
			m = n
		}
	}
	return m
}

// MaxEraseCount returns the highest per-block erase count on the
// device — the wear-skew figure GC surfaces to the host.
func (d *Device) MaxEraseCount() int64 {
	var m int64
	for p := range d.eraseCount {
		for b := range d.eraseCount[p] {
			if n := d.eraseCount[p][b].Load(); n > m {
				m = n
			}
		}
	}
	return m
}

// ReadPage senses a page (user data + OOB) into the plane's sensing
// latch, for in-plane computation. The latch has no ECC, so the die
// senses only SLC-ESP blocks, whose raw bit error rate is zero (Sec
// 4.1.2): a block in another cell mode is refused before anything is
// counted or latched, and is read through the controller's ECC instead
// (ReadPageInto, ReadSlots). The latch becomes a view of the page's
// programmed bytes, or of the device's erased page: nothing is copied.
func (d *Device) ReadPage(a Address) error {
	if !a.Valid(d.geo) {
		return fmt.Errorf("flash: ReadPage invalid address %v", a)
	}
	if m := d.BlockMode(a); m != ModeSLCESP {
		return fmt.Errorf("flash: ReadPage of %v: a %v block is read through ECC, not sensed for in-plane computation", a, m)
	}
	pl := d.planes[a.PlaneIndex(d.geo)]
	pl.mu.Lock()
	page, ok := pl.pages[a.pageIndex(d.geo)]
	if !ok {
		page = d.erased
	}
	pl.sensing = page
	pl.sensed = true
	d.countRead(a, pl)
	pl.mu.Unlock()
	return nil
}

// countRead counts a sense of a on its plane pl, whose lock the caller
// holds.
func (d *Device) countRead(a Address, pl *Plane) {
	mode := d.BlockMode(a)
	d.Stats.PageReads.Add(1)
	d.Stats.PageReadsByMode[mode].Add(1)
	pl.senses[mode]++
}

// senseCorrected is the array sense of the conventional controller path
// (Sec 2.3): the page streams over the channel and is ECC-corrected with
// its OOB parity, so a block in any cell mode reads back as programmed —
// unlike the in-latch computation path (ReadPage + GEN_DIST_PAGE), which
// has no ECC and so senses only the zero-BER SLC-ESP partition that holds
// the embeddings. It counts the read and returns the programmed content,
// the device's erased page for a page never programmed. What the ECC
// hands over is that content, so the caller reads straight from it; the
// plane's latches are left as they were (in-plane computation always
// senses with ReadPage first, which GenDistPage enforces). The caller
// holds pl.mu. The content's bytes never change, so the caller may keep
// views of them past the lock, read-only: they are shared with every page
// of every device that holds the same content.
func (d *Device) senseCorrected(a Address, pl *Plane) programmed {
	page, ok := pl.pages[a.pageIndex(d.geo)]
	if !ok {
		page = d.erased
	}
	d.countRead(a, pl)
	return page
}

// fillWith sets every byte of b to v.
func fillWith(b []byte, v byte) {
	if v == 0 || len(b) == 0 {
		clear(b)
		return
	}
	b[0] = v
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// ReadPageInto reads a whole page, user data and OOB, through the
// conventional controller path (senseCorrected) into data and oob, grown
// if needed.
func (d *Device) ReadPageInto(a Address, data, oob []byte) ([]byte, []byte, error) {
	if !a.Valid(d.geo) {
		return nil, nil, fmt.Errorf("flash: ReadPage invalid address %v", a)
	}
	n := d.geo.PageBytes
	if cap(data) < n {
		data = make([]byte, n)
	}
	data = data[:n]
	if cap(oob) < d.geo.OOBBytes {
		oob = make([]byte, d.geo.OOBBytes)
	}
	oob = oob[:d.geo.OOBBytes]
	pl := d.planes[a.PlaneIndex(d.geo)]
	pl.mu.Lock()
	page := d.senseCorrected(a, pl)
	readRegion(data, page.data(), page.dataFill)
	readRegion(oob, page.oob(), page.oobFill)
	pl.mu.Unlock()
	d.Stats.BytesOut[a.Channel].Add(int64(n + d.geo.OOBBytes))
	d.Stats.ReadBytesOut[a.Channel].Add(int64(n + d.geo.OOBBytes))
	return data, oob, nil
}

// ReadSlots reads records of a page's user data through the conventional
// controller path (senseCorrected): record i, slot slots[i] of the page
// cut into slotBytes-wide slots, is appended to views. The page is sensed
// once whatever the record count, and only the records cross the channel,
// which is what Stats.BytesOut counts; the simulator copies none of them.
// A programmed page's bytes never change (Program stores new ones,
// EraseBlock only drops them), so each record is a read-only,
// capacity-bounded view that stays valid for as long as anyone holds it,
// past the block's erase too: of the page's stored prefix, of the
// device's shared page of the fill byte past it, or — for the one slot
// the prefix ends inside — of the bytes it is materialized as, appended
// to spill. The first two are shared by every device in the process that
// holds the same bytes, so a write through one would corrupt them all.
// ReadSlots returns views and spill.
func (d *Device) ReadSlots(a Address, slotBytes int, slots []int, views [][]byte, spill []byte) ([][]byte, []byte, error) {
	if !a.Valid(d.geo) {
		return views, spill, fmt.Errorf("flash: ReadSlots invalid address %v", a)
	}
	if slotBytes <= 0 {
		return views, spill, fmt.Errorf("flash: ReadSlots slot width %dB", slotBytes)
	}
	for _, s := range slots {
		if s < 0 || (s+1)*slotBytes > d.geo.PageBytes {
			return views, spill, fmt.Errorf("flash: ReadSlots slot %d of %dB out of page", s, slotBytes)
		}
	}
	pl := d.planes[a.PlaneIndex(d.geo)]
	pl.mu.Lock()
	page := d.senseCorrected(a, pl)
	pl.mu.Unlock()
	fill := d.zero.data()
	if page.dataFill != 0 {
		fill = d.erased.data()
	}
	data := page.data()
	stored := len(data)
	for _, s := range slots {
		lo, hi := s*slotBytes, (s+1)*slotBytes
		switch {
		case hi <= stored:
			views = append(views, data[lo:hi:hi])
		case lo >= stored:
			views = append(views, fill[lo:hi:hi])
		default:
			n := len(spill)
			spill = append(append(spill, data[lo:]...), fill[stored:hi]...)
			views = append(views, spill[n:n+slotBytes:n+slotBytes])
		}
	}
	d.Stats.BytesOut[a.Channel].Add(int64(len(slots) * slotBytes))
	d.Stats.ReadBytesOut[a.Channel].Add(int64(len(slots) * slotBytes))
	return views, spill, nil
}

// LoadCache performs Input Broadcasting (IBC) into one plane: a load of
// its own through the die's I/O port that fills the plane's cache latch
// with repeated copies of pattern, aligned to slot boundaries of
// slotBytes, so the subsequent XOR compares the query against every
// embedding slot in a page (Sec 4.3.2 step 1).
func (d *Device) LoadCache(planeIdx int, pattern []byte, slotBytes int) error {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return fmt.Errorf("flash: LoadCache invalid plane %d", planeIdx)
	}
	if err := d.checkPattern(pattern, slotBytes); err != nil {
		return err
	}
	d.fillCache(planeIdx, pattern, slotBytes)
	d.countIBCLoad(d.geo.channelOf(planeIdx))
	return nil
}

// LoadCacheDie is the multi-plane broadcast (MPIBC, Sec 4.3.4): one load
// through die's I/O port (a global die index, Geometry.DieOf) that every
// plane of the die latches together. The simulator fills only the cache
// latches of the planes named in mask (bit i = plane-in-die i) — the
// ones the caller will XOR against before their next load.
//
// held says the die already received this pattern and nothing else
// since: its planes latched it then, so nothing crosses the port now and
// nothing is counted; the call only materialises the latches of planes
// the earlier load's mask left unfilled.
func (d *Device) LoadCacheDie(die int, mask uint64, pattern []byte, slotBytes int, held bool) error {
	if die < 0 || die >= d.geo.Dies() || mask == 0 || mask>>uint(d.geo.PlanesPerDie) != 0 {
		return fmt.Errorf("flash: LoadCacheDie invalid die %d mask %#x", die, mask)
	}
	if err := d.checkPattern(pattern, slotBytes); err != nil {
		return err
	}
	for m := mask; m != 0; m &= m - 1 {
		d.fillCache(d.geo.DiePlane(die, bits.TrailingZeros64(m)), pattern, slotBytes)
	}
	if !held {
		d.countIBCLoad(d.geo.DieChannel(die))
	}
	return nil
}

func (d *Device) checkPattern(pattern []byte, slotBytes int) error {
	if slotBytes <= 0 || len(pattern) > slotBytes {
		return fmt.Errorf("flash: IBC pattern %dB exceeds slot %dB", len(pattern), slotBytes)
	}
	return nil
}

// countIBCLoad accounts one broadcast load: whatever the pattern's
// length, a full cache latch of query copies crosses the die port
// (Sec 4.3.2) — the bytes the timing model charges per load.
func (d *Device) countIBCLoad(channel int) {
	d.Stats.IBCLoads.Add(1)
	d.Stats.BytesIn[channel].Add(int64(d.geo.PageBytes))
}

// fillCache fills one plane's cache latch with slot-aligned copies of
// pattern: the plane keeps its own copy of the pattern, never the
// caller's buffer.
func (d *Device) fillCache(planeIdx int, pattern []byte, slotBytes int) {
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	pl.cache.load(pattern, slotBytes)
	pl.mu.Unlock()
}

// GenDistPage executes the page-granular distance wave (GEN_DIST_PAGE):
// one XOR of the sensing and cache latches over the user-data region
// fused with the fail-bit counter over nSlots slots starting at
// firstSlot, writing the per-slot popcounts into dists[0:nSlots] and
// counting one latch XOR plus nSlots bit counts (Table 2's XOR and
// GEN_DIST). Only the requested slots are computed: where the cache
// latch's slots are the wave's, each distance is popcount(slot XOR
// pattern); at another width the wave walks the pattern's slots.
//
// bound > 0 carries the controller's current top-k pruning threshold
// into the plane: the distances are computed (and written) exactly as
// without it, but slots strictly above the bound are counted in
// Stats.PrunedSlots — the plane-side accounting of TTL transfers the
// threshold made unnecessary. bound <= 0 disables the comparison.
//
// A plane whose cache latch no IBC has loaded, or whose sensing latch
// no ReadPage has filled, refuses the wave before it counts or writes
// anything.
func (d *Device) GenDistPage(planeIdx, slotBytes, firstSlot, nSlots int, dists []int, bound int) error {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return fmt.Errorf("flash: GenDistPage invalid plane %d", planeIdx)
	}
	lo := firstSlot * slotBytes
	hi := lo + nSlots*slotBytes
	if slotBytes <= 0 || firstSlot < 0 || nSlots <= 0 || hi > d.geo.PageBytes {
		return fmt.Errorf("flash: GenDistPage slots [%d,%d) of %dB out of page", firstSlot, firstSlot+nSlots, slotBytes)
	}
	if len(dists) < nSlots {
		return fmt.Errorf("flash: GenDistPage distance buffer %d short of %d slots", len(dists), nSlots)
	}
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	if pl.cache.slot == 0 || !pl.sensed {
		pl.mu.Unlock()
		return fmt.Errorf("flash: GEN_DIST_PAGE on plane %d needs an IBC and a page read first", planeIdx)
	}
	// The sensed page stores a prefix of its user data; its fill is read
	// at the same offsets of the device's shared page of the fill byte.
	tail := d.zero.data()
	if pl.sensing.dataFill != 0 {
		tail = d.erased.data()
	}
	if sensed := pl.sensing.data(); pl.cache.slot == slotBytes {
		// The slots wholly in the prefix, the one the prefix ends inside,
		// and the slots wholly in the fill.
		stored := len(sensed)
		in := min(nSlots, max(0, stored/slotBytes-firstSlot))
		past := min(nSlots, max(in, (stored+slotBytes-1)/slotBytes-firstSlot))
		if in > 0 {
			vecmath.XorPopCountPattern(sensed, pl.cache.pat, slotBytes, firstSlot, in, dists)
		}
		if past > in {
			dists[in] = pl.xorCount(tail, lo+in*slotBytes, lo+past*slotBytes)
		}
		if past < nSlots {
			vecmath.XorPopCountPattern(tail, pl.cache.pat, slotBytes, firstSlot+past, nSlots-past, dists[past:])
		}
	} else {
		for s := range nSlots {
			dists[s] = pl.xorCount(tail, lo+s*slotBytes, lo+(s+1)*slotBytes)
		}
	}
	pl.distWaves++
	pl.mu.Unlock()
	d.Stats.LatchXORs.Add(1)
	d.Stats.BitCounts.Add(int64(nSlots))
	if bound > 0 {
		pruned := 0
		for _, dv := range dists[:nSlots] {
			if dv > bound {
				pruned++
			}
		}
		if pruned > 0 {
			d.Stats.PrunedSlots.Add(int64(pruned))
		}
	}
	return nil
}

// CountPassFail records n applications of the pass/fail comparator
// (Sec 4.3.3 distance filtering: a slot passes when its distance is at
// or below the threshold). A scan compares a page's slots in place and
// records them once per page, so die workers do not meet on the counter
// slot by slot.
func (d *Device) CountPassFail(n int) {
	d.Stats.PassFailChecks.Add(int64(n))
}

// ReadOOB copies the whole OOB region currently in the plane's
// sensing latch into buf (grown if needed) — one latch access per
// page instead of one per slot when the engine walks a page's linkage
// records.
func (d *Device) ReadOOB(planeIdx int, buf []byte) ([]byte, error) {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return nil, fmt.Errorf("flash: ReadOOB invalid plane %d", planeIdx)
	}
	if cap(buf) < d.geo.OOBBytes {
		buf = make([]byte, d.geo.OOBBytes)
	}
	buf = buf[:d.geo.OOBBytes]
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	readRegion(buf, pl.sensing.oob(), pl.sensing.oobFill)
	pl.mu.Unlock()
	return buf, nil
}

// ReadTTL transfers n TTL entries of entryBytes each from the plane's
// die to controller DRAM (Table 2: "RD_TTL EADR"), counted in BytesOut
// on the plane's channel: a scan issues it once per page, for the
// page's surviving entries.
func (d *Device) ReadTTL(planeIdx, entryBytes, n int) error {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return fmt.Errorf("flash: RD_TTL invalid plane %d", planeIdx)
	}
	if entryBytes <= 0 || n < 0 {
		return fmt.Errorf("flash: RD_TTL of %d entries of %dB", n, entryBytes)
	}
	d.Stats.BytesOut[d.geo.channelOf(planeIdx)].Add(int64(n * entryBytes))
	return nil
}

// ResetStats zeroes all counters.
func (d *Device) ResetStats() {
	d.Stats.PageReads.Store(0)
	for i := range d.Stats.PageReadsByMode {
		d.Stats.PageReadsByMode[i].Store(0)
	}
	d.Stats.PagePrograms.Store(0)
	d.Stats.BlockErases.Store(0)
	d.Stats.LatchXORs.Store(0)
	d.Stats.BitCounts.Store(0)
	d.Stats.PassFailChecks.Store(0)
	d.Stats.PrunedSlots.Store(0)
	d.Stats.IBCLoads.Store(0)
	for i := range d.Stats.BytesOut {
		d.Stats.BytesOut[i].Store(0)
		d.Stats.ReadBytesOut[i].Store(0)
	}
	for i := range d.Stats.BytesIn {
		d.Stats.BytesIn[i].Store(0)
	}
	for _, pl := range d.planes {
		pl.mu.Lock()
		pl.senses = [3]int64{}
		pl.distWaves = 0
		pl.mu.Unlock()
	}
}
