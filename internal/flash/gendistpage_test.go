package flash

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"reis/internal/xrand"
)

// pageEquivSetup builds a device with deterministic slot data in page
// (block 0, page 0) of plane 0 and runs IBC + page read on it, returning
// the device and the page's address, programmed data and OOB.
func pageEquivSetup(t *testing.T, slotBytes int, pattern []byte) (*Device, Address, []byte, []byte) {
	t.Helper()
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	rng := xrand.New(0xabcdef)
	data := make([]byte, d.geo.PageBytes)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	oob := make([]byte, d.geo.OOBBytes)
	for i := range oob {
		oob[i] = byte(rng.Intn(256))
	}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(a, data, oob); err != nil {
		t.Fatal(err)
	}
	must(t, d.LoadCache(a.PlaneIndex(d.geo), pattern, slotBytes))
	must(t, d.ReadPage(a))
	return d, a, data, oob
}

// statsSnapshot captures every scan-relevant counter.
type statsSnapshot struct {
	pageReads, latchXORs, bitCounts, ibcLoads, passFail int64
	bytesIn, bytesOut                                   int64
}

func snapshot(d *Device) statsSnapshot {
	return statsSnapshot{
		pageReads: d.Stats.PageReads.Load(),
		latchXORs: d.Stats.LatchXORs.Load(),
		bitCounts: d.Stats.BitCounts.Load(),
		ibcLoads:  d.Stats.IBCLoads.Load(),
		passFail:  d.Stats.PassFailChecks.Load(),
		bytesIn:   d.Stats.BytesIn[0].Load(),
		bytesOut:  d.Stats.TotalBytesOut(),
	}
}

// since is the counter change from before to s.
func (s statsSnapshot) since(before statsSnapshot) statsSnapshot {
	return statsSnapshot{
		s.pageReads - before.pageReads, s.latchXORs - before.latchXORs, s.bitCounts - before.bitCounts,
		s.ibcLoads - before.ibcLoads, s.passFail - before.passFail,
		s.bytesIn - before.bytesIn, s.bytesOut - before.bytesOut,
	}
}

// energyOf prices a snapshot with the per-event energy constants — the
// same accounting identity the reis timing model relies on, so equal
// counters mean equal modeled energy.
func energyOf(s statsSnapshot, p Params) float64 {
	return float64(s.pageReads)*p.EnergyReadPage +
		float64(s.latchXORs)*p.EnergyLatchXOR +
		float64(s.bitCounts)*p.EnergyBitCount +
		float64(s.bytesIn+s.bytesOut)*p.EnergyXferPerByte
}

// TestGenDistPageMatchesPerSlot pins the page-granular command to what
// Table 2's XOR followed by one GEN_DIST per slot computes and costs:
// each distance is popcount(slot XOR pattern) of the programmed page, the
// wave counts exactly one latch XOR and one bit count per slot and
// nothing else, so its energy is one XOR's plus N counts'. The wave
// leaves the sensing latch — page and OOB — as the sense left it, so a
// second wave on the same sense computes the same distances.
func TestGenDistPageMatchesPerSlot(t *testing.T) {
	const slotBytes = 64
	pattern := bytes.Repeat([]byte{0xA5, 0x3C}, slotBytes/2)
	d, a, data, oob := pageEquivSetup(t, slotBytes, pattern)
	plane := a.PlaneIndex(d.geo)
	slots := d.geo.PageBytes / slotBytes
	firstSlot, nSlots := 2, slots-5 // partial range, like a boundary page

	want := make([]int, nSlots)
	for s := range want {
		lo := (firstSlot + s) * slotBytes
		for i, b := range data[lo : lo+slotBytes] {
			want[s] += bits.OnesCount8(b ^ pattern[i])
		}
	}
	before := snapshot(d)
	got := make([]int, nSlots)
	must(t, d.GenDistPage(plane, slotBytes, firstSlot, nSlots, got, 0))
	if !slices.Equal(got, want) {
		t.Fatalf("GEN_DIST_PAGE distances %v, want popcount(slot XOR pattern) %v", got, want)
	}

	delta := snapshot(d).since(before)
	if w := (statsSnapshot{latchXORs: 1, bitCounts: int64(nSlots)}); delta != w {
		t.Fatalf("one wave counted %+v, want %+v", delta, w)
	}
	p := DefaultParams()
	if e, w := energyOf(delta, p), p.EnergyLatchXOR+float64(nSlots)*p.EnergyBitCount; e != w {
		t.Fatalf("one wave costs %g J, want one latch XOR and %d bit counts, %g J", e, nSlots, w)
	}

	sensing, _ := d.Plane(plane).latches()
	if !bytes.Equal(sensing, append(slices.Clone(data), oob...)) {
		t.Fatal("the wave changed the sensing latch")
	}
	again := make([]int, nSlots)
	must(t, d.GenDistPage(plane, slotBytes, firstSlot, nSlots, again, 0))
	if !slices.Equal(again, want) {
		t.Fatalf("a second wave on the same sense computed %v, want %v", again, want)
	}
}

// TestGenDistPageProtocol checks the preconditions of the page command:
// it needs both an IBC and a page read, and rejects slot ranges past the
// page and distance buffers short of the range. A refused wave counts no
// latch XOR, bit count, pruned slot or plane wave and leaves the
// distance buffer as it was.
func TestGenDistPageProtocol(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	must(t, d.SetBlockMode(a, ModeSLCESP))
	plane := a.PlaneIndex(d.geo)
	dists := make([]int, 8)
	refused := func(what string, nSlots int) {
		t.Helper()
		for i := range dists {
			dists[i] = -1
		}
		if err := d.GenDistPage(plane, 64, 0, nSlots, dists, 1); err == nil {
			t.Fatalf("%s accepted", what)
		}
		x, b, p, w := d.Stats.LatchXORs.Load(), d.Stats.BitCounts.Load(), d.Stats.PrunedSlots.Load(), d.Plane(plane).DistWaves()
		if x != 0 || b != 0 || p != 0 || w != 0 || slices.ContainsFunc(dists, func(v int) bool { return v != -1 }) {
			t.Fatalf("refused %s counted %d XORs, %d bit counts, %d pruned slots, %d waves; distances %v", what, x, b, p, w, dists)
		}
	}

	refused("GEN_DIST_PAGE before IBC", 1)
	must(t, d.LoadCache(plane, []byte{1}, 64))
	refused("GEN_DIST_PAGE before page read", 1)
	must(t, d.ReadPage(a))
	refused("out-of-page slot range", d.geo.PageBytes)
	refused("short distance buffer", 9)
	if err := d.GenDistPage(plane, 64, 0, 8, dists, 0); err != nil {
		t.Fatalf("valid GEN_DIST_PAGE rejected: %v", err)
	}
}

// TestGenDistPageNeedsItsPlaneSensed: the page read a wave needs is a
// ReadPage on the wave's own plane. A conventional read of that plane's
// page (ReadPageInto, ReadSlots) leaves the sensing latch as it was, and
// a ReadPage on another plane fills that plane's latch only, so neither
// lets the wave run.
func TestGenDistPageNeedsItsPlaneSensed(t *testing.T) {
	d := testDevice(t)
	a, b := Address{Channel: 0}, Address{Channel: 1}
	pa, pb := a.PlaneIndex(d.geo), b.PlaneIndex(d.geo)
	if pa == pb {
		t.Fatalf("addresses %v and %v share plane %d", a, b, pa)
	}
	for _, x := range []Address{a, b} {
		must(t, d.SetBlockMode(x, ModeSLCESP))
		must(t, d.LoadCache(x.PlaneIndex(d.geo), []byte{0xFF, 0xFF, 0xFF, 0xFF}, 4))
	}
	dists := make([]int, 1)
	wave := func(p int) error { return d.GenDistPage(p, 4, 0, 1, dists, 0) }

	if _, _, err := d.ReadPageInto(a, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadSlots(a, 4, []int{0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := wave(pa); err == nil {
		t.Fatal("GEN_DIST_PAGE accepted after only conventional reads of its plane")
	}
	must(t, d.ReadPage(b))
	if err := wave(pa); err == nil {
		t.Fatal("GEN_DIST_PAGE accepted on a plane another plane's ReadPage sensed")
	}
	if w := d.Plane(pa).DistWaves(); w != 0 {
		t.Fatalf("refused waves counted %d on plane %d", w, pa)
	}
	must(t, wave(pb))
	must(t, d.ReadPage(a))
	must(t, wave(pa))
	// An erased page reads all ones: the all-ones slot is 0 bits from it.
	if dists[0] != 0 {
		t.Fatalf("distance of an erased slot to all ones = %d, want 0", dists[0])
	}
}

// BenchmarkGenDistPage times one GEN_DIST_PAGE wave on a programmed
// SLC-ESP page of the REIS-SSD page geometry (16 KiB) with 32-byte slots
// (256-dimensional binary codes): over all 512 slots, and over a
// 128-slot cluster, about what a cluster fills of a page.
func BenchmarkGenDistPage(b *testing.B) {
	geo := testGeo()
	geo.PageBytes, geo.OOBBytes = 16384, 2208
	d, err := NewDevice(geo)
	if err != nil {
		b.Fatal(err)
	}
	a := Address{Block: 1, Page: 2}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		b.Fatal(err)
	}
	randomPage(b, d, xrand.New(1), a)
	const slotBytes = 32
	plane := a.PlaneIndex(geo)
	if err := d.LoadCache(plane, bytes.Repeat([]byte{0x5A}, slotBytes), slotBytes); err != nil {
		b.Fatal(err)
	}
	if err := d.ReadPage(a); err != nil {
		b.Fatal(err)
	}
	dists := make([]int, geo.PageBytes/slotBytes)
	for _, c := range []struct {
		name         string
		first, slots int
	}{{"page", 0, len(dists)}, {"cluster", 200, 128}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := d.GenDistPage(plane, slotBytes, c.first, c.slots, dists, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
