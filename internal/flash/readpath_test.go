package flash

import (
	"bytes"
	"slices"
	"testing"

	"reis/internal/xrand"
)

// randomPage programs a at random data and OOB and returns the content
// as a latch would hold it: data, then OOB.
func randomPage(t testing.TB, d *Device, r *xrand.RNG, a Address) []byte {
	t.Helper()
	page := make([]byte, d.geo.PageBytes+d.geo.OOBBytes)
	for i := range page {
		page[i] = byte(r.Uint64())
	}
	if err := d.Program(a, page[:d.geo.PageBytes], page[d.geo.PageBytes:]); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestReadPageSensesOnlySLCESP: the sensing latch has no ECC, so the die
// refuses to sense a TLC or an SLC block into it. The refusal counts no
// read, leaves the plane's sensing latch and its sensed flag as an
// SLC-ESP sense left them, and lets no GEN_DIST_PAGE run on a plane it
// was the only sense of; the conventional reads of the same pages return
// the programmed bytes.
func TestReadPageSensesOnlySLCESP(t *testing.T) {
	d := testDevice(t)
	r := xrand.New(3)
	esp := Address{Channel: 1, Die: 0, Plane: 1, Block: 0, Page: 2}
	fresh := Address{Channel: 0, Die: 1, Plane: 0, Block: 2, Page: 6} // a plane nothing sensed
	must(t, d.SetBlockMode(esp, ModeSLCESP))
	randomPage(t, d, r, esp)
	must(t, d.ReadPage(esp))
	for _, c := range []struct {
		mode CellMode
		a    Address
	}{
		{ModeTLC, Address{Channel: 1, Die: 0, Plane: 1, Block: 1, Page: 4}},
		{ModeSLC, Address{Channel: 1, Die: 0, Plane: 1, Block: 2, Page: 7}},
		{ModeTLC, fresh},
	} {
		if c.mode != ModeTLC {
			must(t, d.SetBlockMode(c.a, c.mode))
		}
		page := randomPage(t, d, r, c.a)
		pl := d.Plane(c.a.PlaneIndex(d.geo))
		sensing, _ := pl.latches()
		sensed, reads := pl.sensed, d.Stats.PageReads.Load()
		if err := d.ReadPage(c.a); err == nil {
			t.Fatalf("%v: ReadPage of a %v block accepted", c.a, c.mode)
		}
		if got := d.Stats.PageReads.Load(); got != reads || pl.Senses(c.mode) != 0 {
			t.Fatalf("%v: a refused sense counted: PageReads %d → %d, %v senses %d", c.a, reads, got, c.mode, pl.Senses(c.mode))
		}
		if after, _ := pl.latches(); !bytes.Equal(after, sensing) || pl.sensed != sensed {
			t.Fatalf("%v: a refused sense changed the sensing latch or its flag (sensed %v → %v)", c.a, sensed, pl.sensed)
		}
		must(t, d.LoadCache(c.a.PlaneIndex(d.geo), []byte{1}, 8))
		if err := d.GenDistPage(c.a.PlaneIndex(d.geo), 8, 0, 1, make([]int, 1), 0); (err == nil) != sensed {
			t.Fatalf("%v: GEN_DIST_PAGE after a refused sense: %v, plane sensed before %v", c.a, err, sensed)
		}

		data, oob, err := d.ReadPageInto(c.a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, page[:d.geo.PageBytes]) || !bytes.Equal(oob, page[d.geo.PageBytes:]) {
			t.Fatalf("%v: ReadPageInto of a %v page is not the programmed bytes", c.a, c.mode)
		}
		rec, _, err := d.ReadSlots(c.a, 64, []int{31, 4}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec[0], page[31*64:32*64]) || !bytes.Equal(rec[1], page[4*64:5*64]) {
			t.Fatalf("%v: ReadSlots of a %v page is not the programmed bytes", c.a, c.mode)
		}
		if got := pl.Senses(c.mode); got != 2 {
			t.Fatalf("%v: %d %v senses after two conventional reads", c.a, got, c.mode)
		}
	}
	if got := d.Stats.PageReadsByMode[ModeSLCESP].Load(); got != 1 {
		t.Fatalf("%d SLC-ESP senses, want the one accepted", got)
	}
}

// TestReadPathGolden pins which reads the device counts, in which cell
// mode and with how many bytes moved, after a fixed script of 1 000 reads
// — read i is of addrs[i%5], a sense for i%3 = 0, a whole-page read for
// 1 and a read of three 64-byte slots for 2 — over a programmed SLC-ESP
// page, two TLC pages, an SLC page and an erased SLC-ESP page. Each
// address is read 200 times; its senses are the i < 1000 with i ≡ r (mod
// 15) for one r, 67 of them for r < 10 and 66 for r ≥ 10 (the second TLC
// page, r = 12). So the SLC-ESP addresses sense 134 times, the TLC and
// SLC ones are refused 200 times, and every one of the 333 whole-page
// and 333 slot reads is counted.
func TestReadPathGolden(t *testing.T) {
	d := testDevice(t)
	r := xrand.New(7)
	addrs := []Address{
		{Channel: 0, Die: 0, Plane: 0, Block: 0, Page: 0}, // SLC-ESP
		{Channel: 1, Die: 1, Plane: 1, Block: 1, Page: 3}, // TLC
		{Channel: 0, Die: 1, Plane: 0, Block: 2, Page: 5}, // TLC
		{Channel: 1, Die: 0, Plane: 1, Block: 3, Page: 7}, // SLC
		{Channel: 0, Die: 0, Plane: 1, Block: 3, Page: 1}, // SLC-ESP, erased
	}
	for a, m := range map[Address]CellMode{addrs[0]: ModeSLCESP, addrs[3]: ModeSLC, addrs[4]: ModeSLCESP} {
		must(t, d.SetBlockMode(a, m))
	}
	for _, a := range addrs[:4] {
		randomPage(t, d, r, a)
	}
	var data, oob, spill []byte
	var rec [][]byte
	var err error
	refused := 0
	for i := 0; i < 1000; i++ {
		a := addrs[i%len(addrs)]
		switch i % 3 {
		case 0:
			if d.ReadPage(a) != nil {
				refused++
			}
		case 1:
			data, oob, err = d.ReadPageInto(a, data, oob)
		case 2:
			rec, spill, err = d.ReadSlots(a, 64, []int{i % 32, 5, 31}, rec[:0], spill[:0])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	pageOut := int64(d.geo.PageBytes + d.geo.OOBBytes)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"refused senses", int64(refused), 67 + 66 + 67},
		{"PageReads", d.Stats.PageReads.Load(), 134 + 333 + 333},
		{"PageReadsByMode[SLC-ESP]", d.Stats.PageReadsByMode[ModeSLCESP].Load(), 200 + 200},
		{"PageReadsByMode[SLC]", d.Stats.PageReadsByMode[ModeSLC].Load(), 200 - 67},
		{"PageReadsByMode[TLC]", d.Stats.PageReadsByMode[ModeTLC].Load(), 200 - 67 + 200 - 66},
		{"TotalBytesOut", d.Stats.TotalBytesOut(), 333*pageOut + 333*3*64},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d after the script, want %d", c.name, c.got, c.want)
		}
	}
}

// TestConventionalReadsLeaveLatches: the controller's ECC path and the
// sensing latch are apart. Between a sense of an SLC-ESP page and its
// wave, whole-page and slot reads of a TLC, an SLC and another SLC-ESP
// page on the same plane, and a refused sense of the TLC one, leave the
// sensing latch, its OOB and the wave's distances as they were.
func TestConventionalReadsLeaveLatches(t *testing.T) {
	d := testDevice(t)
	r := xrand.New(9)
	esp := Address{Channel: 1, Die: 1, Plane: 0, Block: 0, Page: 3}
	others := []Address{
		{Channel: 1, Die: 1, Plane: 0, Block: 1, Page: 2}, // TLC
		{Channel: 1, Die: 1, Plane: 0, Block: 2, Page: 6}, // SLC
		{Channel: 1, Die: 1, Plane: 0, Block: 0, Page: 5}, // SLC-ESP
	}
	must(t, d.SetBlockMode(esp, ModeSLCESP))
	must(t, d.SetBlockMode(others[1], ModeSLC))
	page := randomPage(t, d, r, esp)
	for _, a := range others {
		randomPage(t, d, r, a)
	}
	plane := esp.PlaneIndex(d.geo)
	nSlots := d.geo.PageBytes / 64
	must(t, d.ReadPage(esp))
	must(t, d.LoadCache(plane, page[64:128], 64))
	want := make([]int, nSlots)
	must(t, d.GenDistPage(plane, 64, 0, nSlots, want, 0))

	for _, a := range others {
		if _, _, err := d.ReadPageInto(a, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.ReadSlots(a, 64, []int{1, 30}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadPage(others[0]); err == nil {
		t.Fatalf("ReadPage of TLC %v accepted", others[0])
	}
	if sensing, _ := d.Plane(plane).latches(); !bytes.Equal(sensing, page) {
		t.Fatal("conventional reads changed the sensing latch")
	}
	oob, err := d.ReadOOB(plane, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oob, page[d.geo.PageBytes:]) {
		t.Fatal("the latch's OOB is not the sensed page's after conventional reads")
	}
	got := make([]int, nSlots)
	must(t, d.GenDistPage(plane, 64, 0, nSlots, got, 0))
	if !slices.Equal(got, want) {
		t.Fatalf("wave after conventional reads %v, before %v", got, want)
	}
	if want[1] != 0 {
		t.Fatalf("slot 1 against its own bytes has distance %d", want[1])
	}
}

// TestReadSlotsReturnsProgrammedBytes: a slot read hands back exactly the
// programmed bytes, each record a view one slot wide — for every slot of
// a TLC page and of an SLC-ESP page, read one at a time and all at once
// in scrambled order, and for an erased page (all ones) — counts one page
// read and only the record bytes as moved, and rejects slots outside the
// page and a slot width of zero.
func TestReadSlotsReturnsProgrammedBytes(t *testing.T) {
	const slotBytes = 96 // 21 slots and a 32-byte remainder in a 2048-byte page
	for _, mode := range []CellMode{ModeTLC, ModeSLCESP} {
		d := testDevice(t)
		a := Address{Channel: 1, Die: 1, Plane: 0, Block: 2, Page: 4}
		if err := d.SetBlockMode(a, mode); err != nil {
			t.Fatal(err)
		}
		page := randomPage(t, d, xrand.New(5), a)
		nSlots := d.geo.PageBytes / slotBytes
		for s := 0; s < nSlots; s++ {
			rec, _, err := d.ReadSlots(a, slotBytes, []int{s}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec) != 1 || cap(rec[0]) != slotBytes || !bytes.Equal(rec[0], page[s*slotBytes:(s+1)*slotBytes]) {
				t.Fatalf("%v: slot %d is not a %dB view of the programmed bytes", mode, s, slotBytes)
			}
		}
		slots := make([]int, 0, nSlots)
		for s := 0; s < nSlots; s++ {
			slots = append(slots, (s*8)%nSlots) // a permutation: 8 and 21 are coprime
		}
		d.ResetStats()
		all, _, err := d.ReadSlots(a, slotBytes, slots, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range slots {
			if !bytes.Equal(all[i], page[s*slotBytes:(s+1)*slotBytes]) {
				t.Fatalf("%v: record %d (slot %d) is not the programmed bytes", mode, i, s)
			}
		}
		if reads, out := d.Stats.PageReads.Load(), d.Stats.TotalBytesOut(); reads != 1 || out != int64(nSlots*slotBytes) {
			t.Fatalf("%v: %d page reads and %d bytes out for one read of %d record bytes", mode, reads, out, nSlots*slotBytes)
		}

		erased := Address{Block: 3, Page: 1}
		all, _, err = d.ReadSlots(erased, slotBytes, []int{0, nSlots - 1}, all[:0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 || !bytes.Equal(all[0], bytes.Repeat([]byte{0xFF}, slotBytes)) || !bytes.Equal(all[1], all[0]) {
			t.Fatal("erased page's slots not all-ones")
		}

		readErr := func(a Address, slotBytes int, slots []int) error {
			_, _, err := d.ReadSlots(a, slotBytes, slots, nil, nil)
			return err
		}
		for name, err := range map[string]error{
			"slot past the page": readErr(a, slotBytes, []int{nSlots}),
			"negative slot":      readErr(a, slotBytes, []int{-1}),
			"zero slot width":    readErr(a, 0, []int{0}),
			"invalid address":    readErr(Address{Channel: 99}, slotBytes, []int{0}),
		} {
			if err == nil {
				t.Errorf("%s accepted", name)
			}
		}
	}
}

// benchTLCPage programs one TLC page of the REIS-SSD page geometry (16 KiB
// + 2208 B OOB) and returns its address.
func benchTLCPage(b *testing.B) (*Device, Address) {
	geo := testGeo()
	geo.PageBytes, geo.OOBBytes = 16384, 2208
	d, err := NewDevice(geo)
	if err != nil {
		b.Fatal(err)
	}
	a := Address{Block: 1, Page: 2}
	randomPage(b, d, xrand.New(1), a)
	return d, a
}

// BenchmarkReadPageIntoTLC is the conventional whole-page read of a TLC
// page: the sense counted, and one copy of page and OOB to the caller.
func BenchmarkReadPageIntoTLC(b *testing.B) {
	d, a := benchTLCPage(b)
	var data, oob []byte
	var err error
	b.SetBytes(int64(d.geo.PageBytes + d.geo.OOBBytes))
	b.ReportAllocs()
	for b.Loop() {
		if data, oob, err = d.ReadPageInto(a, data, oob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTailPageRead is the controller tail's read of a TLC page: the
// same sense, and a view of each record wanted — here two INT8
// embeddings of 128 B (rag_uniform reranks 100 candidates off 70 pages).
func BenchmarkTailPageRead(b *testing.B) {
	d, a := benchTLCPage(b)
	slots := []int{17, 100}
	var views [][]byte
	var spill []byte
	var err error
	b.ReportAllocs()
	for b.Loop() {
		if views, spill, err = d.ReadSlots(a, 128, slots, views[:0], spill[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
