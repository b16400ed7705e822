package flash

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"reis/internal/vecmath"
	"reis/internal/xrand"
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
	// BitErrorsInjected counts raw bit flips applied on non-ESP reads
	// without ECC.
	BitErrorsInjected atomic.Int64
	// ECCCorrections counts raw flips fixed by the controller ECC on
	// the conventional read path.
	ECCCorrections atomic.Int64
}

// TotalBytesOut sums the per-channel outbound byte counts.
func (s *Stats) TotalBytesOut() int64 {
	var t int64
	for i := range s.BytesOut {
		t += s.BytesOut[i].Load()
	}
	return t
}

// Device is a functional NAND flash array. Operations that touch a
// single plane (reads, latch ops, OOB access) are safe to run
// concurrently on *different* planes: each plane carries its own lock,
// and the shared counters are atomic. Operations on the same plane
// must be externally ordered — the REIS engine guarantees this by
// dispatching at most one scan task per plane at a time.
type Device struct {
	Geo    Geometry
	Params Params

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

	// ECCBypass disables error injection entirely; REIS relies on
	// SLC-ESP having zero raw BER instead, so this stays false in the
	// evaluated configurations.
	ECCBypass bool

	Stats Stats
	// rng drives raw-bit-error injection; rngMu serializes draws so
	// concurrent TLC reads on different planes stay race-free. flipSet (one
	// bit per latch bit, all clear between senses) and flipBits (the
	// positions drawn) are injectErrors' pooled scratch, guarded by the
	// same mutex.
	rng      *xrand.RNG
	rngMu    sync.Mutex
	flipSet  []uint64
	flipBits []int
}

// Plane models one flash plane: its programmed pages (lazily
// allocated) and the three page-buffer latches. The mutex guards the
// map and the latch contents; every Device per-plane operation takes
// it, so concurrent operations on distinct planes never share mutable
// state.
type Plane struct {
	mu  sync.Mutex
	geo Geometry
	// pages maps a page index within the plane to its programmed content,
	// which never changes between the program and the block's erase.
	pages map[int]programmed

	// Sensing, Data and Cache latches (Sec 2.3 items 10-12). Sized
	// PageBytes+OOBBytes: a page read loads OOB alongside user data
	// (Sec 4.1.3).
	Sensing []byte
	Data    []byte
	Cache   []byte

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
// data and OOBBytes of OOB, padded with the erased state. (Two
// allocations, not one: the allocator rounds a 16 KiB + 2208 B object up
// by 480 bytes, which is 2 % of a deployed corpus.)
type programmed struct {
	data, oob []byte
}

// NewDevice allocates a device with the given geometry and parameters.
func NewDevice(geo Geometry, params Params) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Geo:    geo,
		Params: params,
		planes: make([]*Plane, geo.Planes()),
		rng:    xrand.New(0xf1a5),
	}
	d.Stats.BytesOut = make([]atomic.Int64, geo.Channels)
	d.Stats.ReadBytesOut = make([]atomic.Int64, geo.Channels)
	d.Stats.BytesIn = make([]atomic.Int64, geo.Channels)
	latchLen := geo.PageBytes + geo.OOBBytes
	d.flipSet = make([]uint64, (latchLen*8+63)/64)
	for i := range d.planes {
		d.planes[i] = &Plane{
			geo:     geo,
			pages:   make(map[int]programmed),
			Sensing: make([]byte, latchLen),
			Data:    make([]byte, latchLen),
			Cache:   make([]byte, latchLen),
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
	if !a.Valid(d.Geo) {
		return fmt.Errorf("flash: SetBlockMode invalid address %v", a)
	}
	d.blockMode[a.PlaneIndex(d.Geo)][a.Block] = m
	return nil
}

// BlockMode reports the cell mode of the block containing a.
func (d *Device) BlockMode(a Address) CellMode {
	return d.blockMode[a.PlaneIndex(d.Geo)][a.Block]
}

// Program writes user data and OOB bytes to a page. data may be
// shorter than the page; the rest reads back as 0xFF (erased cells).
func (d *Device) Program(a Address, data, oob []byte) error {
	if !a.Valid(d.Geo) {
		return fmt.Errorf("flash: Program invalid address %v", a)
	}
	if len(data) > d.Geo.PageBytes {
		return fmt.Errorf("flash: Program data %d bytes exceeds page size %d", len(data), d.Geo.PageBytes)
	}
	if len(oob) > d.Geo.OOBBytes {
		return fmt.Errorf("flash: Program OOB %d bytes exceeds OOB size %d", len(oob), d.Geo.OOBBytes)
	}
	p := d.planes[a.PlaneIndex(d.Geo)]
	idx := a.PageIndex(d.Geo)
	page := programmed{data: make([]byte, d.Geo.PageBytes), oob: make([]byte, d.Geo.OOBBytes)}
	fillErased(page.data)
	copy(page.data, data)
	fillErased(page.oob)
	copy(page.oob, oob)
	p.mu.Lock()
	p.pages[idx] = page
	p.mu.Unlock()
	d.Stats.PagePrograms.Add(1)
	d.Stats.BytesIn[a.Channel].Add(int64(len(data) + len(oob)))
	return nil
}

// EraseBlock resets every page in the block to the erased state.
func (d *Device) EraseBlock(a Address) error {
	if !a.Valid(d.Geo) {
		return fmt.Errorf("flash: EraseBlock invalid address %v", a)
	}
	p := d.planes[a.PlaneIndex(d.Geo)]
	base := a.Block * d.Geo.PagesPerBlock
	p.mu.Lock()
	for pg := 0; pg < d.Geo.PagesPerBlock; pg++ {
		delete(p.pages, base+pg)
	}
	p.mu.Unlock()
	d.Stats.BlockErases.Add(1)
	d.eraseCount[a.PlaneIndex(d.Geo)][a.Block].Add(1)
	return nil
}

// BlockMaxErase reports the highest erase count the given block index
// has seen across all planes — the per-row wear figure wear-leveled
// placement consults (a plane-striped region row is block `block` on
// every plane).
func (d *Device) BlockMaxErase(block int) int64 {
	var m int64
	if block < 0 || block >= d.Geo.BlocksPerPlane {
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
// latch. If the block's cell mode has a nonzero raw BER and ECCBypass
// is false, errors are injected into the latch contents, modeling what
// in-plane computation would see without controller ECC.
func (d *Device) ReadPage(a Address) error {
	if !a.Valid(d.Geo) {
		return fmt.Errorf("flash: ReadPage invalid address %v", a)
	}
	pl := d.planes[a.PlaneIndex(d.Geo)]
	pl.mu.Lock()
	if page, ok := pl.pages[a.PageIndex(d.Geo)]; ok {
		copy(pl.Sensing, page.data)
		copy(pl.Sensing[d.Geo.PageBytes:], page.oob)
		d.rawErrors(a, pl.Sensing)
	} else {
		fillErased(pl.Sensing)
	}
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

// rawErrors draws the raw bit errors of one sense of a programmed page
// in a's block, if its cell mode has any, and returns how many latch
// bits they leave wrong (see injectErrors for latch).
func (d *Device) rawErrors(a Address, latch []byte) int {
	ber := d.Params.RawBER(d.BlockMode(a))
	if ber <= 0 || d.ECCBypass {
		return 0
	}
	return d.injectErrors(latch, ber)
}

// injectErrors draws one sense's raw bit errors: ⌊λ⌋ flips plus one
// Bernoulli draw for λ's fraction, λ = ber × latch bits, each at a
// uniform position of the latch. It returns the number of bits that end
// up differing from the programmed content — a bit hit an even number
// of times cancels physically — counted by toggling a pooled bitset
// that is then cleared through the position list. A non-nil latch (the
// sensing latch, for in-plane computation) has the flips applied; the
// conventional path passes nil, because its ECC restores the programmed
// content and needs only the count.
func (d *Device) injectErrors(latch []byte, ber float64) int {
	bitsTotal := (d.Geo.PageBytes + d.Geo.OOBBytes) * 8
	expected := ber * float64(bitsTotal)
	d.rngMu.Lock()
	n := int(expected)
	if d.rng.Float64() < expected-float64(n) {
		n++
	}
	pos, set := d.flipBits[:0], d.flipSet
	flipped := 0
	for i := 0; i < n; i++ {
		bit := d.rng.Intn(bitsTotal)
		pos = append(pos, bit)
		w, m := bit>>6, uint64(1)<<uint(bit&63)
		set[w] ^= m
		if set[w]&m != 0 {
			flipped++
		} else {
			flipped--
		}
		if latch != nil {
			latch[bit>>3] ^= 1 << uint(bit&7)
		}
	}
	for _, bit := range pos {
		set[bit>>6] = 0
	}
	d.flipBits = pos
	d.rngMu.Unlock()
	d.Stats.BitErrorsInjected.Add(int64(n))
	return flipped
}

// senseCorrected is the array sense of the conventional controller path
// (Sec 2.3): the page streams over the channel and is ECC-corrected with
// its OOB parity, so raw bit errors never reach the caller — unlike the
// in-latch computation path (ReadPage + latch ops), which is why REIS
// needs the zero-BER SLC-ESP partition for embeddings. It counts the read
// and the flips the decoder fixed (Stats.ECCCorrections) and returns the
// programmed content, or false for an erased page. What the ECC hands
// over is that content, so the caller copies straight from it; the
// plane's latches are left as they were (in-plane computation always
// senses with ReadPage first, which DieFSM enforces). The caller holds
// pl.mu and must not keep the slices past it.
func (d *Device) senseCorrected(a Address, pl *Plane) (programmed, bool) {
	page, ok := pl.pages[a.PageIndex(d.Geo)]
	if ok {
		if flips := d.rawErrors(a, nil); flips > 0 {
			d.Stats.ECCCorrections.Add(int64(flips))
		}
	}
	d.countRead(a, pl)
	return page, ok
}

// fillErased sets b to the erased state: all ones.
func fillErased(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

// ReadPageInto reads a whole page, user data and OOB, through the
// conventional controller path (senseCorrected) into data and oob, grown
// if needed.
func (d *Device) ReadPageInto(a Address, data, oob []byte) ([]byte, []byte, error) {
	if !a.Valid(d.Geo) {
		return nil, nil, fmt.Errorf("flash: ReadPage invalid address %v", a)
	}
	n := d.Geo.PageBytes
	if cap(data) < n {
		data = make([]byte, n)
	}
	data = data[:n]
	if cap(oob) < d.Geo.OOBBytes {
		oob = make([]byte, d.Geo.OOBBytes)
	}
	oob = oob[:d.Geo.OOBBytes]
	pl := d.planes[a.PlaneIndex(d.Geo)]
	pl.mu.Lock()
	if page, ok := d.senseCorrected(a, pl); ok {
		copy(data, page.data)
		copy(oob, page.oob)
	} else {
		fillErased(data)
		fillErased(oob)
	}
	pl.mu.Unlock()
	d.Stats.BytesOut[a.Channel].Add(int64(n + d.Geo.OOBBytes))
	d.Stats.ReadBytesOut[a.Channel].Add(int64(n + d.Geo.OOBBytes))
	return data, oob, nil
}

// ReadSlots reads records of a page's user data through the conventional
// controller path (senseCorrected): record i is slot slots[i] of the page
// cut into slotBytes-wide slots, copied to dst[i*slotBytes:]. The page is
// sensed once whatever the record count, and only the records cross the
// channel — what a controller that wants a few INT8 embeddings or
// document chunks of a page moves, and what Stats.BytesOut counts.
func (d *Device) ReadSlots(a Address, slotBytes int, slots []int, dst []byte) error {
	if !a.Valid(d.Geo) {
		return fmt.Errorf("flash: ReadSlots invalid address %v", a)
	}
	if slotBytes <= 0 || len(dst) < len(slots)*slotBytes {
		return fmt.Errorf("flash: ReadSlots buffer %dB short of %d slots of %dB", len(dst), len(slots), slotBytes)
	}
	for _, s := range slots {
		if s < 0 || (s+1)*slotBytes > d.Geo.PageBytes {
			return fmt.Errorf("flash: ReadSlots slot %d of %dB out of page", s, slotBytes)
		}
	}
	pl := d.planes[a.PlaneIndex(d.Geo)]
	pl.mu.Lock()
	page, ok := d.senseCorrected(a, pl)
	for i, s := range slots {
		rec := dst[i*slotBytes : (i+1)*slotBytes]
		if ok {
			copy(rec, page.data[s*slotBytes:])
		} else {
			fillErased(rec)
		}
	}
	pl.mu.Unlock()
	d.Stats.BytesOut[a.Channel].Add(int64(len(slots) * slotBytes))
	d.Stats.ReadBytesOut[a.Channel].Add(int64(len(slots) * slotBytes))
	return nil
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
	d.countIBCLoad(d.Geo.ChannelOf(planeIdx))
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
	if die < 0 || die >= d.Geo.Dies() || mask == 0 || mask>>uint(d.Geo.PlanesPerDie) != 0 {
		return fmt.Errorf("flash: LoadCacheDie invalid die %d mask %#x", die, mask)
	}
	if err := d.checkPattern(pattern, slotBytes); err != nil {
		return err
	}
	for m := mask; m != 0; m &= m - 1 {
		d.fillCache(d.Geo.DiePlane(die, bits.TrailingZeros64(m)), pattern, slotBytes)
	}
	if !held {
		d.countIBCLoad(d.Geo.DieChannel(die))
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
	d.Stats.BytesIn[channel].Add(int64(d.Geo.PageBytes))
}

// fillCache fills one plane's cache latch with slot-aligned copies of
// pattern.
func (d *Device) fillCache(planeIdx int, pattern []byte, slotBytes int) {
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	// The slot fill overwrites [0, filled); only the page tail and the
	// OOB area of the latch need explicit zeroing.
	filled := d.Geo.PageBytes - d.Geo.PageBytes%slotBytes
	clear(pl.Cache[filled:])
	if len(pattern) < slotBytes {
		// Pattern shorter than the slot: the copy below leaves slot
		// padding untouched, so clear the filled area first.
		clear(pl.Cache[:filled])
	}
	// One copy fills the first slot; each further copy doubles the filled
	// prefix, so a page of slots takes log2(slots) copies, not one per
	// slot. The prefix is whole slots, and so is what the last copy takes.
	if filled > 0 {
		copy(pl.Cache[:slotBytes], pattern)
		for n := slotBytes; n < filled; n *= 2 {
			copy(pl.Cache[n:filled], pl.Cache[:n])
		}
	}
	pl.mu.Unlock()
}

// XORLatches computes Data = Sensing XOR Cache over the user-data
// region of the plane's latches (Table 2 "XOR"). OOB bytes are copied
// through unchanged so linkage metadata stays readable.
func (d *Device) XORLatches(planeIdx int) error {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return fmt.Errorf("flash: XORLatches invalid plane %d", planeIdx)
	}
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	n := d.Geo.PageBytes
	vecmath.XorBytes(pl.Data[:n], pl.Sensing[:n], pl.Cache[:n])
	copy(pl.Data[n:], pl.Sensing[n:])
	pl.mu.Unlock()
	d.Stats.LatchXORs.Add(1)
	return nil
}

// CountSlotBits runs the fail-bit counter over one slot of the data
// latch, returning the popcount — the Hamming distance when the cache
// held the query and the sensing latch held database embeddings
// (Table 2 "GEN_DIST").
func (d *Device) CountSlotBits(planeIdx, slotBytes, slot int) (int, error) {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return 0, fmt.Errorf("flash: CountSlotBits invalid plane %d", planeIdx)
	}
	lo := slot * slotBytes
	hi := lo + slotBytes
	if lo < 0 || hi > d.Geo.PageBytes {
		return 0, fmt.Errorf("flash: CountSlotBits slot %d out of page", slot)
	}
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	n := vecmath.PopCountBytes(pl.Data[lo:hi])
	pl.mu.Unlock()
	d.Stats.BitCounts.Add(1)
	return n, nil
}

// GenDistPage executes the page-granular distance wave (GEN_DIST_PAGE):
// one latch-to-latch XOR over the user-data region fused with the
// fail-bit counter over nSlots slots starting at firstSlot, writing the
// per-slot popcounts into dists[0:nSlots]. The data latch ends up with
// exactly the contents XORLatches would leave (OOB copied through), and
// the stats accounting — one latch XOR plus nSlots bit counts — is
// identical to XORLatches followed by nSlots CountSlotBits calls.
//
// bound > 0 carries the controller's current top-k pruning threshold
// into the plane: the distances are computed (and written) exactly as
// without it, but slots strictly above the bound are counted in
// Stats.PrunedSlots — the plane-side accounting of TTL transfers the
// threshold made unnecessary. bound <= 0 disables the comparison.
func (d *Device) GenDistPage(planeIdx, slotBytes, firstSlot, nSlots int, dists []int, bound int) error {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return fmt.Errorf("flash: GenDistPage invalid plane %d", planeIdx)
	}
	lo := firstSlot * slotBytes
	hi := lo + nSlots*slotBytes
	if slotBytes <= 0 || firstSlot < 0 || nSlots <= 0 || hi > d.Geo.PageBytes {
		return fmt.Errorf("flash: GenDistPage slots [%d,%d) of %dB out of page", firstSlot, firstSlot+nSlots, slotBytes)
	}
	if len(dists) < nSlots {
		return fmt.Errorf("flash: GenDistPage distance buffer %d short of %d slots", len(dists), nSlots)
	}
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	n := d.Geo.PageBytes
	vecmath.XorPopCountSlots(pl.Data[:n], pl.Sensing[:n], pl.Cache[:n], slotBytes, firstSlot, nSlots, dists)
	copy(pl.Data[n:], pl.Sensing[n:])
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

// PassFail applies the pass/fail comparator: it reports whether value
// is at or below threshold (Sec 4.3.3 distance filtering).
func (d *Device) PassFail(value, threshold int) bool {
	d.Stats.PassFailChecks.Add(1)
	return value <= threshold
}

// ReadOOB copies the whole OOB region currently in the plane's
// sensing latch into buf (grown if needed) — one latch access per
// page instead of one per slot when the engine walks a page's linkage
// records.
func (d *Device) ReadOOB(planeIdx int, buf []byte) ([]byte, error) {
	if planeIdx < 0 || planeIdx >= len(d.planes) {
		return nil, fmt.Errorf("flash: ReadOOB invalid plane %d", planeIdx)
	}
	if cap(buf) < d.Geo.OOBBytes {
		buf = make([]byte, d.Geo.OOBBytes)
	}
	buf = buf[:d.Geo.OOBBytes]
	pl := d.planes[planeIdx]
	pl.mu.Lock()
	copy(buf, pl.Sensing[d.Geo.PageBytes:])
	pl.mu.Unlock()
	return buf, nil
}

// TransferOut accounts an outbound transfer of n bytes on the
// channel serving planeIdx (TTL entries moving to controller DRAM).
func (d *Device) TransferOut(planeIdx, n int) {
	d.Stats.BytesOut[d.Geo.ChannelOf(planeIdx)].Add(int64(n))
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
	d.Stats.BitErrorsInjected.Store(0)
	d.Stats.ECCCorrections.Store(0)
}
