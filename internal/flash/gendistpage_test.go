package flash

import (
	"bytes"
	"testing"

	"reis/internal/xrand"
)

// pageEquivSetup builds a device with deterministic slot data in page
// (block 0, page 0) of plane 0 and runs IBC + page read through a FSM,
// returning both.
func pageEquivSetup(t *testing.T, slotBytes int, pattern []byte) (*Device, *DieFSM, Address) {
	t.Helper()
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	rng := xrand.New(0xabcdef)
	data := make([]byte, d.Geo.PageBytes)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	oob := make([]byte, d.Geo.OOBBytes)
	for i := range oob {
		oob[i] = byte(rng.Intn(256))
	}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(a, data, oob); err != nil {
		t.Fatal(err)
	}
	f := NewDieFSM(d)
	plane := a.PlaneIndex(d.Geo)
	if _, err := f.Execute(Command{Op: OpIBC, Plane: plane, Query: pattern, SlotBytes: slotBytes}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Execute(Command{Op: OpReadPage, Addr: a}); err != nil {
		t.Fatal(err)
	}
	return d, f, a
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

// energyOf prices a snapshot with the per-event energy constants — the
// same accounting identity the reis timing model relies on, so equal
// counters mean equal modeled energy.
func energyOf(s statsSnapshot, p Params) float64 {
	return float64(s.pageReads)*p.EnergyReadPage +
		float64(s.latchXORs)*p.EnergyLatchXOR +
		float64(s.bitCounts)*p.EnergyBitCount +
		float64(s.bytesIn+s.bytesOut)*p.EnergyXferPerByte
}

// TestGenDistPageMatchesPerSlot pins the page-granular command against
// the per-slot sequence it replaces: identical distances, identical
// data-latch contents, and identical stats/energy accounting to an
// opXOR followed by one opGenDist per slot.
func TestGenDistPageMatchesPerSlot(t *testing.T) {
	const slotBytes = 64
	pattern := bytes.Repeat([]byte{0xA5, 0x3C}, slotBytes/2)

	dSlot, fSlot, a := pageEquivSetup(t, slotBytes, pattern)
	dPage, fPage, _ := pageEquivSetup(t, slotBytes, pattern)
	plane := a.PlaneIndex(dSlot.Geo)
	slots := dSlot.Geo.PageBytes / slotBytes
	firstSlot, nSlots := 2, slots-5 // partial range, like a boundary page

	// Per-slot reference path: XOR then N GEN_DISTs.
	if _, err := fSlot.Execute(Command{Op: opXOR, Plane: plane}); err != nil {
		t.Fatal(err)
	}
	want := make([]int, nSlots)
	for s := 0; s < nSlots; s++ {
		d, err := fSlot.Execute(Command{
			Op: opGenDist, Plane: plane, SlotBytes: slotBytes,
			Mini: MiniPage{Page: a, Slot: firstSlot + s},
		})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = d
	}

	// Page-granular path: one command.
	got := make([]int, nSlots)
	n, err := fPage.Execute(Command{
		Op: OpGenDistPage, Plane: plane, SlotBytes: slotBytes,
		Mini: MiniPage{Page: a, Slot: firstSlot}, Slots: nSlots, Dists: got,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != nSlots {
		t.Fatalf("GEN_DIST_PAGE computed %d slots, want %d", n, nSlots)
	}
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("slot %d: page dist %d != per-slot dist %d", firstSlot+s, got[s], want[s])
		}
	}

	// The data latch must hold exactly what the XOR path produced
	// (full-page XOR, OOB copied through).
	_, dataPage, _ := dPage.Plane(plane).latches()
	_, dataSlot, _ := dSlot.Plane(plane).latches()
	if !bytes.Equal(dataPage, dataSlot) {
		t.Fatal("data latch contents diverge between page and per-slot paths")
	}

	// Stats accounting must be bit-identical, and therefore the
	// per-event energy too.
	sSlot, sPage := snapshot(dSlot), snapshot(dPage)
	if sSlot != sPage {
		t.Fatalf("stats diverge:\nper-slot %+v\npage     %+v", sSlot, sPage)
	}
	if eS, eP := energyOf(sSlot, dSlot.Params), energyOf(sPage, dPage.Params); eS != eP {
		t.Fatalf("energy diverges: per-slot %g J, page %g J", eS, eP)
	}

	// The page command leaves the plane in the post-XOR state: a
	// follow-up per-slot GEN_DIST must be legal and agree.
	d1, err := fPage.Execute(Command{
		Op: opGenDist, Plane: plane, SlotBytes: slotBytes,
		Mini: MiniPage{Page: a, Slot: firstSlot},
	})
	if err != nil {
		t.Fatalf("GEN_DIST after GEN_DIST_PAGE: %v", err)
	}
	if d1 != want[0] {
		t.Fatalf("GEN_DIST after page command returned %d, want %d", d1, want[0])
	}
}

// TestGenDistPageProtocol checks the FSM preconditions: the page
// command needs both an IBC and a page read, and rejects bad ranges.
func TestGenDistPageProtocol(t *testing.T) {
	d := testDevice(t)
	f := NewDieFSM(d)
	a := Address{Block: 0, Page: 0}
	plane := a.PlaneIndex(d.Geo)
	dists := make([]int, 8)

	if _, err := f.Execute(Command{Op: OpGenDistPage, Plane: plane, SlotBytes: 64, Slots: 1, Dists: dists}); err == nil {
		t.Fatal("GEN_DIST_PAGE before IBC accepted")
	}
	if _, err := f.Execute(Command{Op: OpIBC, Plane: plane, Query: []byte{1}, SlotBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Execute(Command{Op: OpGenDistPage, Plane: plane, SlotBytes: 64, Slots: 1, Dists: dists}); err == nil {
		t.Fatal("GEN_DIST_PAGE before page read accepted")
	}
	if _, err := f.Execute(Command{Op: OpReadPage, Addr: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Execute(Command{Op: OpGenDistPage, Plane: plane, SlotBytes: 64, Slots: d.Geo.PageBytes, Dists: dists}); err == nil {
		t.Fatal("out-of-page slot range accepted")
	}
	if _, err := f.Execute(Command{Op: OpGenDistPage, Plane: plane, SlotBytes: 64, Slots: 9, Dists: dists}); err == nil {
		t.Fatal("short distance buffer accepted")
	}
	if _, err := f.Execute(Command{Op: OpGenDistPage, Plane: plane, SlotBytes: 64, Slots: 8, Dists: dists}); err != nil {
		t.Fatalf("valid GEN_DIST_PAGE rejected: %v", err)
	}
}

// BenchmarkGenDistPage times one GEN_DIST_PAGE wave on a programmed
// SLC-ESP page of the REIS-SSD page geometry (16 KiB) with 32-byte slots
// (256-dimensional binary codes): over all 512 slots, and over a
// 128-slot cluster, about what a cluster fills of a page.
func BenchmarkGenDistPage(b *testing.B) {
	geo := testGeo()
	geo.PageBytes, geo.OOBBytes = 16384, 2208
	d, err := NewDevice(geo, DefaultParams())
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
