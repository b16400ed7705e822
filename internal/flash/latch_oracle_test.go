package flash

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"

	"reis/internal/xrand"
)

// refDevice is the reference latch model: every plane holds its three
// latches as eager PageBytes+OOBBytes buffers, and every command reads
// and writes those bytes in full — a wave XORs the sensing and cache
// latches into the data latch, OOB copied through, and counts the bits
// of each slot there. It keeps the die's protocol state apart from the
// latches, one loaded and one sensed flag per plane, and refuses a wave
// on a plane missing either, and a sense of a block that is not
// SLC-ESP. It keeps its counters in a Stats of its own, so a
// differential run can hold the device to it byte for byte and count for
// count.
type refDevice struct {
	geo                  Geometry
	mode                 [][]CellMode     // [plane][block]
	pages                []map[int][]byte // [plane][page]: data, then OOB
	sensing, data, cache [][]byte         // [plane]
	loaded, sensed       []bool           // [plane]: an IBC, a ReadPage has filled the latch
	senses               [][3]int64
	distWaves            []int64
	stats                Stats
}

func newRefDevice(geo Geometry) *refDevice {
	n := geo.Planes()
	r := &refDevice{
		geo:  geo,
		mode: make([][]CellMode, n), pages: make([]map[int][]byte, n),
		sensing: make([][]byte, n), data: make([][]byte, n), cache: make([][]byte, n),
		loaded: make([]bool, n), sensed: make([]bool, n),
		senses: make([][3]int64, n), distWaves: make([]int64, n),
	}
	r.stats.BytesOut = make([]atomic.Int64, geo.Channels)
	r.stats.ReadBytesOut = make([]atomic.Int64, geo.Channels)
	r.stats.BytesIn = make([]atomic.Int64, geo.Channels)
	for p := range n {
		r.mode[p] = make([]CellMode, geo.BlocksPerPlane)
		for b := range r.mode[p] {
			r.mode[p][b] = ModeTLC
		}
		r.pages[p] = map[int][]byte{}
		r.sensing[p] = make([]byte, r.latchLen())
		r.data[p] = make([]byte, r.latchLen())
		r.cache[p] = make([]byte, r.latchLen())
	}
	return r
}

func (r *refDevice) latchLen() int { return r.geo.PageBytes + r.geo.OOBBytes }

func (r *refDevice) setBlockMode(a Address, m CellMode) {
	r.mode[a.PlaneIndex(r.geo)][a.Block] = m
}

func (r *refDevice) program(a Address, data, oob []byte) error {
	if !a.Valid(r.geo) || len(data) > r.geo.PageBytes || len(oob) > r.geo.OOBBytes {
		return fmt.Errorf("bad program")
	}
	page := make([]byte, r.latchLen())
	fillWith(page, 0xFF)
	copy(page, data)
	copy(page[r.geo.PageBytes:], oob)
	r.pages[a.PlaneIndex(r.geo)][a.pageIndex(r.geo)] = page
	r.stats.PagePrograms.Add(1)
	r.stats.BytesIn[a.Channel].Add(int64(len(data) + len(oob)))
	return nil
}

func (r *refDevice) eraseBlock(a Address) error {
	if !a.Valid(r.geo) {
		return fmt.Errorf("bad erase")
	}
	for pg := range r.geo.PagesPerBlock {
		delete(r.pages[a.PlaneIndex(r.geo)], a.Block*r.geo.PagesPerBlock+pg)
	}
	r.stats.BlockErases.Add(1)
	return nil
}

// readPage senses a into the plane's sensing latch: a copy of the page,
// or all ones for an erased one. A block that is not SLC-ESP is refused
// and nothing changes.
func (r *refDevice) readPage(a Address) error {
	if !a.Valid(r.geo) {
		return fmt.Errorf("bad read")
	}
	p := a.PlaneIndex(r.geo)
	if r.mode[p][a.Block] != ModeSLCESP {
		return fmt.Errorf("sense of a non-ESP block")
	}
	if page, ok := r.pages[p][a.pageIndex(r.geo)]; ok {
		copy(r.sensing[p], page)
	} else {
		fillWith(r.sensing[p], 0xFF)
	}
	r.stats.PageReads.Add(1)
	r.stats.PageReadsByMode[ModeSLCESP].Add(1)
	r.senses[p][ModeSLCESP]++
	r.sensed[p] = true
	return nil
}

// conventional is the sense of the conventional controller path, in any
// cell mode: the programmed page, or all ones for an erased one.
func (r *refDevice) conventional(a Address) []byte {
	p, m := a.PlaneIndex(r.geo), r.mode[a.PlaneIndex(r.geo)][a.Block]
	page, ok := r.pages[p][a.pageIndex(r.geo)]
	if !ok {
		page = make([]byte, r.latchLen())
		fillWith(page, 0xFF)
	}
	r.stats.PageReads.Add(1)
	r.stats.PageReadsByMode[m].Add(1)
	r.senses[p][m]++
	return page
}

func (r *refDevice) readPageInto(a Address) (data, oob []byte) {
	page := r.conventional(a)
	r.stats.BytesOut[a.Channel].Add(int64(len(page)))
	r.stats.ReadBytesOut[a.Channel].Add(int64(len(page)))
	return page[:r.geo.PageBytes], page[r.geo.PageBytes:]
}

func (r *refDevice) readSlots(a Address, slotBytes int, slots []int) []byte {
	page := r.conventional(a)
	var recs []byte
	for _, s := range slots {
		recs = append(recs, page[s*slotBytes:(s+1)*slotBytes]...)
	}
	r.stats.BytesOut[a.Channel].Add(int64(len(recs)))
	r.stats.ReadBytesOut[a.Channel].Add(int64(len(recs)))
	return recs
}

func (r *refDevice) validPattern(pattern []byte, slotBytes int) bool {
	return slotBytes > 0 && len(pattern) <= slotBytes
}

// fillCache writes pattern, zero-padded, into each whole slot of the
// page, and zeros everywhere else.
func (r *refDevice) fillCache(p int, pattern []byte, slotBytes int) {
	r.loaded[p] = true
	clear(r.cache[p])
	for off := 0; off+slotBytes <= r.geo.PageBytes; off += slotBytes {
		copy(r.cache[p][off:off+slotBytes], pattern)
	}
}

func (r *refDevice) loadCache(p int, pattern []byte, slotBytes int) error {
	if p < 0 || p >= r.geo.Planes() || !r.validPattern(pattern, slotBytes) {
		return fmt.Errorf("bad IBC")
	}
	r.fillCache(p, pattern, slotBytes)
	r.stats.IBCLoads.Add(1)
	r.stats.BytesIn[r.geo.channelOf(p)].Add(int64(r.geo.PageBytes))
	return nil
}

func (r *refDevice) loadCacheDie(die int, mask uint64, pattern []byte, slotBytes int, held bool) error {
	if die < 0 || die >= r.geo.Dies() || mask == 0 || mask>>uint(r.geo.PlanesPerDie) != 0 || !r.validPattern(pattern, slotBytes) {
		return fmt.Errorf("bad MPIBC")
	}
	for m := mask; m != 0; m &= m - 1 {
		r.fillCache(r.geo.DiePlane(die, bits.TrailingZeros64(m)), pattern, slotBytes)
	}
	if !held {
		r.stats.IBCLoads.Add(1)
		r.stats.BytesIn[r.geo.DieChannel(die)].Add(int64(r.geo.PageBytes))
	}
	return nil
}

// xor makes the data latch Sensing XOR Cache over the user data and
// copies the sensing latch's OOB through.
func (r *refDevice) xor(p int) {
	n := r.geo.PageBytes
	for i := range n {
		r.data[p][i] = r.sensing[p][i] ^ r.cache[p][i]
	}
	copy(r.data[p][n:], r.sensing[p][n:])
	r.stats.LatchXORs.Add(1)
}

func (r *refDevice) genDistPage(p, slotBytes, firstSlot, nSlots int, dists []int, bound int) error {
	hi := (firstSlot + nSlots) * slotBytes
	if p < 0 || p >= r.geo.Planes() || slotBytes <= 0 || firstSlot < 0 || nSlots <= 0 || hi > r.geo.PageBytes || len(dists) < nSlots {
		return fmt.Errorf("bad GEN_DIST_PAGE")
	}
	if !r.loaded[p] || !r.sensed[p] {
		return fmt.Errorf("GEN_DIST_PAGE before IBC and page read")
	}
	r.xor(p)
	for s := range nSlots {
		lo := (firstSlot + s) * slotBytes
		dists[s] = 0
		for _, b := range r.data[p][lo : lo+slotBytes] {
			dists[s] += bits.OnesCount8(b)
		}
		if bound > 0 && dists[s] > bound {
			r.stats.PrunedSlots.Add(1)
		}
	}
	r.stats.BitCounts.Add(int64(nSlots))
	r.distWaves[p]++
	return nil
}

func (r *refDevice) readOOB(p int) ([]byte, error) {
	if p < 0 || p >= r.geo.Planes() {
		return nil, fmt.Errorf("bad OOB read")
	}
	return bytes.Clone(r.sensing[p][r.geo.PageBytes:]), nil
}

// latchRun drives a device and the reference with one seeded command
// sequence.
type latchRun struct {
	t    *testing.T
	rng  *xrand.RNG
	dev  *Device
	ref  *refDevice
	step int
	what string
	// pattern is the one buffer every broadcast is drawn into, so a
	// latch that aliased the caller's bytes would change under it.
	pattern []byte
	dists   [2][]int
	// waves counts the wave steps run, refused those the device refused;
	// senses the sense steps run, unsensed those it refused.
	waves, refused, senses, unsensed int
}

// newLatchRun sets up a run on the default blocks — block 0 SLC-ESP, 1
// and 3 TLC, 2 SLC, on every plane, so that most senses are refused — or
// with esp set, on SLC-ESP blocks only.
func newLatchRun(t *testing.T, seed uint64, esp bool) *latchRun {
	geo := testGeo()
	dev, err := NewDevice(geo)
	if err != nil {
		t.Fatal(err)
	}
	lr := &latchRun{
		t: t, rng: xrand.New(seed), dev: dev, ref: newRefDevice(geo),
		pattern: make([]byte, 0, 128),
		dists:   [2][]int{make([]int, geo.PageBytes), make([]int, geo.PageBytes)},
	}
	modes := []CellMode{ModeSLCESP, ModeTLC, ModeSLC, ModeTLC}
	if esp {
		modes = []CellMode{ModeSLCESP, ModeSLCESP, ModeSLCESP, ModeSLCESP}
	}
	for p := range geo.Planes() {
		a := AddressFromLinear(geo, p*geo.BlocksPerPlane*geo.PagesPerBlock)
		for b, m := range modes {
			a.Block = b
			if err := dev.SetBlockMode(a, m); err != nil {
				t.Fatal(err)
			}
			lr.ref.setBlockMode(a, m)
		}
	}
	return lr
}

// slotWidths are the slot widths commands draw: word-aligned, ragged,
// and widths that leave a page remainder (2048 % 24 = 8, % 96 = 32,
// % 100 = 48).
var slotWidths = []int{8, 16, 24, 32, 64, 96, 100}

func (lr *latchRun) addr() Address {
	g := lr.dev.geo
	return AddressFromLinear(g, lr.rng.Intn(g.Planes()*g.BlocksPerPlane*g.PagesPerBlock))
}

func (lr *latchRun) randBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(lr.rng.Uint64())
	}
	return b
}

// drawPattern redraws lr.pattern for a slotBytes-wide broadcast: a
// whole slot, or a shorter prefix of one.
func (lr *latchRun) drawPattern(slotBytes int) []byte {
	n := slotBytes
	if lr.rng.Intn(3) == 0 {
		n = lr.rng.Intn(slotBytes + 1)
	}
	lr.pattern = lr.pattern[:0]
	for range n {
		lr.pattern = append(lr.pattern, byte(lr.rng.Uint64()))
	}
	return lr.pattern
}

func (lr *latchRun) sameErr(got, want error) {
	if (got == nil) != (want == nil) {
		lr.t.Fatalf("step %d %s: error %v, reference %v", lr.step, lr.what, got, want)
	}
}

// do runs one random command on both sides and compares what it
// returns.
func (lr *latchRun) do() {
	g, r := lr.dev.geo, lr.rng
	plane := r.Intn(g.Planes())
	switch op := r.Intn(10); op {
	case 0, 1: // program a page, some of it, with some OOB
		a := lr.addr()
		data, oob := lr.randBytes(r.Intn(g.PageBytes+1)), lr.randBytes(r.Intn(g.OOBBytes+1))
		lr.what = fmt.Sprintf("Program(%v, %dB, %dB OOB)", a, len(data), len(oob))
		lr.sameErr(lr.dev.Program(a, data, oob), lr.ref.program(a, data, oob))
	case 2: // erase a block, then reprogram one of its pages
		a := lr.addr()
		lr.what = fmt.Sprintf("EraseBlock(%v)+Program", a)
		lr.sameErr(lr.dev.EraseBlock(a), lr.ref.eraseBlock(a))
		data := lr.randBytes(g.PageBytes)
		lr.sameErr(lr.dev.Program(a, data, nil), lr.ref.program(a, data, nil))
	case 3, 4: // sense: SLC-ESP or erased, or a TLC or SLC block, refused
		a := lr.addr()
		lr.what = fmt.Sprintf("ReadPage(%v)", a)
		err := lr.dev.ReadPage(a)
		lr.sameErr(err, lr.ref.readPage(a))
		lr.senses++
		if err != nil {
			lr.unsensed++
		}
	case 5: // IBC into one plane
		sb := slotWidths[r.Intn(len(slotWidths))]
		pat := lr.drawPattern(sb)
		lr.what = fmt.Sprintf("LoadCache(%d, %dB, %d)", plane, len(pat), sb)
		lr.sameErr(lr.dev.LoadCache(plane, pat, sb), lr.ref.loadCache(plane, pat, sb))
	case 6: // MPIBC, held or not, to a partial or full mask
		die, mask, held := r.Intn(g.Dies()), uint64(1+r.Intn(1<<g.PlanesPerDie-1)), r.Intn(2) == 0
		sb := slotWidths[r.Intn(len(slotWidths))]
		pat := lr.drawPattern(sb)
		lr.what = fmt.Sprintf("LoadCacheDie(%d, %#b, %dB, %d, held %v)", die, mask, len(pat), sb, held)
		lr.sameErr(lr.dev.LoadCacheDie(die, mask, pat, sb, held), lr.ref.loadCacheDie(die, mask, pat, sb, held))
	case 7, 8: // a wave over a slot range, at the cache's width or another
		sb := slotWidths[r.Intn(len(slotWidths))]
		if c := lr.dev.planes[plane].cache.slot; c > 0 && r.Intn(2) == 0 {
			sb = c
		}
		slots := g.PageBytes / sb
		first := r.Intn(slots)
		n := 1 + r.Intn(slots-first)
		if r.Intn(16) == 0 {
			n++ // one slot past the page
		}
		bound := 0
		if r.Intn(2) == 0 {
			bound = 1 + r.Intn(8*sb)
		}
		lr.what = fmt.Sprintf("GenDistPage(%d, %d, %d, %d, bound %d)", plane, sb, first, n, bound)
		got, want := lr.dists[0][:n], lr.dists[1][:n]
		clear(got)
		clear(want)
		err := lr.dev.GenDistPage(plane, sb, first, n, got, bound)
		lr.sameErr(err, lr.ref.genDistPage(plane, sb, first, n, want, bound))
		if !slices.Equal(got, want) {
			lr.t.Fatalf("step %d %s: distances %v, reference %v", lr.step, lr.what, got, want)
		}
		lr.waves++
		if err != nil {
			lr.refused++
		}
	case 9:
		lr.what = fmt.Sprintf("ReadOOB(%d)", plane)
		got, err := lr.dev.ReadOOB(plane, nil)
		want, wantErr := lr.ref.readOOB(plane)
		lr.sameErr(err, wantErr)
		if !bytes.Equal(got, want) {
			lr.t.Fatalf("step %d %s differs from the reference", lr.step, lr.what)
		}
	}
	lr.check()
}

// check holds every plane's materialized sensing and cache latches and
// per-plane counters, and every device counter, to the reference. The
// reference's data latch is held only through the distances a wave
// counts from it: no command of the device reads it.
func (lr *latchRun) check() {
	for p := range lr.dev.geo.Planes() {
		pl := lr.dev.Plane(p)
		sensing, cache := pl.latches()
		for _, l := range []struct {
			name      string
			got, want []byte
		}{{"sensing", sensing, lr.ref.sensing[p]}, {"cache", cache, lr.ref.cache[p]}} {
			if !bytes.Equal(l.got, l.want) {
				i := 0
				for l.got[i] == l.want[i] {
					i++
				}
				lr.t.Fatalf("step %d %s: plane %d's %s latch differs from the reference at byte %d (%#x, want %#x)",
					lr.step, lr.what, p, l.name, i, l.got[i], l.want[i])
			}
		}
		for m := range lr.ref.senses[p] {
			if got := pl.Senses(CellMode(m)); got != lr.ref.senses[p][m] {
				lr.t.Fatalf("step %d %s: plane %d senses[%d] = %d, reference %d", lr.step, lr.what, p, m, got, lr.ref.senses[p][m])
			}
		}
		if got := pl.DistWaves(); got != lr.ref.distWaves[p] {
			lr.t.Fatalf("step %d %s: plane %d distance waves = %d, reference %d", lr.step, lr.what, p, got, lr.ref.distWaves[p])
		}
	}
	want := map[string]int64{}
	statsCounters(lr.t, &lr.ref.stats, func(name string, c *atomic.Int64) { want[name] = c.Load() })
	statsCounters(lr.t, &lr.dev.Stats, func(name string, c *atomic.Int64) {
		if got := c.Load(); got != want[name] {
			lr.t.Fatalf("step %d %s: Stats.%s = %d, reference %d", lr.step, lr.what, name, got, want[name])
		}
	})
}

func (lr *latchRun) run(steps int) {
	for lr.step = 0; lr.step < steps; lr.step++ {
		lr.do()
	}
}

// TestLatchesMatchEagerReference is the differential latch oracle: the
// device, whose latches hold no page buffers, and the eager
// three-buffer reference run the same seeded random command sequences —
// programs, erases with a reprogram, senses of SLC-ESP and erased pages
// and of TLC and SLC pages, single-plane and die broadcasts (held or
// not, partial masks) from one reused pattern buffer, waves at the
// broadcast's slot width and others, pruned or not, and OOB reads — and
// after every step every plane's materialized latches, the returned
// distances and OOB, and every counter must equal the reference's. A
// sense of a TLC or SLC block must be refused by both, and so must a
// wave on a plane no broadcast or sense has filled, or one past the
// page; the log reports the refused shares. One sequence runs on SLC-ESP
// blocks only, where no sense is refused.
func TestLatchesMatchEagerReference(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		esp  bool
	}{{1, false}, {2, false}, {3, false}, {4, true}} {
		t.Run(fmt.Sprintf("seed=%d/esp=%v", c.seed, c.esp), func(t *testing.T) {
			lr := newLatchRun(t, c.seed, c.esp)
			lr.run(1500)
			t.Logf("%d of %d wave steps refused, %d of %d sense steps", lr.refused, lr.waves, lr.unsensed, lr.senses)
			if lr.dev.Stats.LatchXORs.Load() == 0 || lr.dev.Stats.PrunedSlots.Load() == 0 || lr.dev.Stats.PagePrograms.Load() == 0 {
				t.Fatal("the sequence ran no wave, pruned nothing or programmed nothing")
			}
			if (lr.unsensed > 0) == c.esp || lr.unsensed == lr.senses {
				t.Fatalf("esp %v: %d of %d senses refused", c.esp, lr.unsensed, lr.senses)
			}
		})
	}
}

// FuzzLatchesMatchEagerReference runs the differential latch oracle on a
// fuzzed command seed: 300 steps a seed, on the default blocks.
func FuzzLatchesMatchEagerReference(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Fuzz(func(t *testing.T, seed uint64) {
		newLatchRun(t, seed, false).run(300)
	})
}

// writeWithRun draws an n-byte write whose last run bytes (at most n)
// are fill and the byte before them something else, so the write ends
// in a run of exactly that length.
func (lr *latchRun) writeWithRun(n, run int, fill byte) []byte {
	b := lr.randBytes(n)
	run = min(run, n)
	fillWith(b[n-run:], fill)
	if n > run {
		b[n-run-1] = 0x5A
	}
	return b
}

// equal fails the run if got and want differ, naming what was read.
func (lr *latchRun) equal(what string, got, want []byte) {
	lr.what = what
	if !bytes.Equal(got, want) {
		lr.t.Fatalf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
}

// viewsEqual reads slots of the page at a into views and spill, which
// have room for them, and holds every record to the reference's bytes
// and each view to where it must point — a slot the page's stored prefix
// ends inside to the bytes appended after spill's; a read then allocates
// nothing.
func (lr *latchRun) viewsEqual(a Address, sb int, slots []int, views [][]byte, spill []byte) {
	what := fmt.Sprintf("ReadSlots(%v, %d, %d slots)", a, sb, len(slots))
	got, sp, err := lr.dev.ReadSlots(a, sb, slots, views, spill)
	if err != nil {
		lr.t.Fatal(err)
	}
	want := lr.ref.readSlots(a, sb, slots)
	pl := lr.dev.planes[a.PlaneIndex(lr.dev.geo)]
	page, ok := pl.pages[a.pageIndex(lr.dev.geo)]
	if !ok {
		page = lr.dev.erased
	}
	fill := lr.dev.zero.data()
	if page.dataFill != 0 {
		fill = lr.dev.erased.data()
	}
	data := page.data()
	for i, s := range slots {
		v, lo, hi := got[i], s*sb, (s+1)*sb
		lr.equal(fmt.Sprintf("%s record %d (slot %d)", what, i, s), v, want[i*sb:(i+1)*sb])
		var at *byte
		switch {
		case hi <= len(data):
			at = &data[lo]
		case lo >= len(data):
			at = &fill[lo]
		default:
			at = &sp[len(spill)]
		}
		if cap(v) != sb || &v[0] != at {
			lr.t.Fatalf("%s: record %d (slot %d of a %dB prefix) is not a %dB view of its bytes (cap %d)", what, i, s, len(data), sb, cap(v))
		}
	}
	if len(sp) > len(spill)+sb {
		lr.t.Fatalf("%s: %d bytes spilled, more than one slot", what, len(sp)-len(spill))
	}
	n := 0
	if allocs := testing.AllocsPerRun(2, func() {
		n++
		if _, _, err := lr.dev.ReadSlots(a, sb, slots, views, spill); err != nil {
			lr.t.Fatal(err)
		}
	}); allocs != 0 {
		lr.t.Fatalf("%s into buffers with room: %.0f allocations", what, allocs)
	}
	for range n {
		lr.ref.readSlots(a, sb, slots)
	}
	lr.what = what
}

// FuzzTrimmedPageReads programs one page whose data and OOB end in runs
// of 0x00 or 0xFF — lengths, run lengths and fill bytes fuzzed — on an
// SLC-ESP block and on a TLC block, and holds every read of it to the
// eager full-page reference byte for byte and count for count. On the
// SLC-ESP block: the sensing latch after a sense, distances over every
// slot at the broadcast's width (fuzzed) and at another, and the OOB in
// the latch. On the TLC block, the sense is refused and leaves the
// latches as they were. On both: a whole-page read and a read of every
// slot record, each record a view one slot wide of the stored prefix, of
// the device's shared page of the fill byte, or — for the one slot the
// prefix ends inside — of the spill; a read into buffers with room
// allocates nothing. A second device programs the same page, so the two
// share its bytes; the first device's block is then erased, and every
// read of both devices is held to its own reference again: the second
// still reads the page as programmed, the first reads it erased.
// The committed seeds cover empty writes, all-zero and all-ones pages,
// pages that end in no run, and prefixes that end inside a slot of a
// width that does not divide the page, before a run of either fill byte.
func FuzzTrimmedPageReads(f *testing.F) {
	// seed, data length and run, OOB length and run, fills (bit 0: the
	// data run is 0xFF, bit 1: the OOB run), slot width - 1
	f.Add(uint64(1), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(23))
	f.Add(uint64(2), uint16(2048), uint16(2048), uint16(128), uint16(128), uint8(0), uint8(31))
	f.Add(uint64(3), uint16(2048), uint16(2048), uint16(128), uint16(128), uint8(3), uint8(31))
	f.Add(uint64(4), uint16(2048), uint16(0), uint16(128), uint16(0), uint8(1), uint8(63))
	f.Add(uint64(5), uint16(2048), uint16(1000), uint16(128), uint16(40), uint8(2), uint8(99))
	f.Add(uint64(6), uint16(1500), uint16(300), uint16(60), uint16(60), uint8(1), uint8(23))
	f.Add(uint64(7), uint16(1500), uint16(300), uint16(60), uint16(60), uint8(1), uint8(63))
	f.Fuzz(func(t *testing.T, seed uint64, dataLen, dataRun, oobLen, oobRun uint16, fills, slot uint8) {
		lr, twin := newLatchRun(t, seed, false), newLatchRun(t, seed, false)
		g := lr.dev.geo
		fill := func(bit uint8) byte { return -(fills >> bit & 1) } // 0xFF where the bit is set
		data := lr.writeWithRun(int(dataLen)%(g.PageBytes+1), int(dataRun), fill(0))
		oob := lr.writeWithRun(int(oobLen)%(g.OOBBytes+1), int(oobRun), fill(1))
		sb := 1 + int(slot)
		other := slotWidths[int(seed%uint64(len(slotWidths)))]
		if other == sb {
			other++
		}
		all := make([]int, g.PageBytes/sb)
		for s := range all {
			all[s] = s
		}
		views, spill := make([][]byte, 0, len(all)), make([]byte, 1, 1+sb)
		// reads runs every read of the page at a on lr's device and its
		// reference.
		reads := func(lr *latchRun, a Address) {
			plane := a.PlaneIndex(g)
			lr.what = fmt.Sprintf("ReadPage(%v)", a)
			err := lr.dev.ReadPage(a)
			lr.sameErr(err, lr.ref.readPage(a))
			if (err == nil) != (a.Block == 0) {
				t.Fatalf("%s: error %v on block %d", lr.what, err, a.Block)
			}
			lr.check()

			if a.Block == 0 {
				pat := lr.drawPattern(sb)
				lr.sameErr(lr.dev.LoadCache(plane, pat, sb), lr.ref.loadCache(plane, pat, sb))
				for _, w := range []int{sb, other} {
					n := g.PageBytes / w
					got, want := lr.dists[0][:n], lr.dists[1][:n]
					lr.what = fmt.Sprintf("GenDistPage(%d, %d, 0, %d) over %v", plane, w, n, a)
					lr.sameErr(lr.dev.GenDistPage(plane, w, 0, n, got, 0), lr.ref.genDistPage(plane, w, 0, n, want, 0))
					if !slices.Equal(got, want) {
						t.Fatalf("%s: distances %v, reference %v", lr.what, got, want)
					}
				}
				gotOOB, err := lr.dev.ReadOOB(plane, nil)
				wantOOB, wantErr := lr.ref.readOOB(plane)
				lr.sameErr(err, wantErr)
				lr.equal(fmt.Sprintf("ReadOOB(%d) of %v", plane, a), gotOOB, wantOOB)
			}

			gotData, gotOOB, err := lr.dev.ReadPageInto(a, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantData, wantOOB := lr.ref.readPageInto(a)
			lr.equal(fmt.Sprintf("ReadPageInto(%v) data", a), gotData, wantData)
			lr.equal(fmt.Sprintf("ReadPageInto(%v) OOB", a), gotOOB, wantOOB)

			lr.viewsEqual(a, sb, all, views[:0], spill)
			lr.check()
		}
		for _, block := range []int{0, 1} { // SLC-ESP, then TLC
			a := AddressFromLinear(g, int(seed%uint64(g.Planes()*g.BlocksPerPlane*g.PagesPerBlock)))
			a.Block = block
			for _, r := range []*latchRun{lr, twin} {
				r.what = fmt.Sprintf("Program(%v, %dB, %dB OOB)", a, len(data), len(oob))
				r.sameErr(r.dev.Program(a, data, oob), r.ref.program(a, data, oob))
			}
			reads(lr, a)
			lr.what = fmt.Sprintf("EraseBlock(%v)", a)
			lr.sameErr(lr.dev.EraseBlock(a), lr.ref.eraseBlock(a))
			reads(twin, a)
			reads(lr, a)
		}
	})
}
