package flash

import (
	"bytes"
	"math/bits"
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

// TestFlipCountIsLatchDiff: the flip count a sense reports — kept by
// toggling a bitset as the positions are drawn — is the number of latch
// bits that differ from the programmed page, over random pages and bit
// error rates up to one that hits most positions several times over.
func TestFlipCountIsLatchDiff(t *testing.T) {
	d := testDevice(t)
	r := xrand.New(11)
	latch := make([]byte, d.geo.PageBytes+d.geo.OOBBytes)
	repeats := false
	for _, ber := range []float64{1e-9, 1e-5, 5e-4, 1e-2, 0.3, 1, 3.7} {
		for iter := 0; iter < 20; iter++ {
			page := randomPage(t, d, r, Address{Block: 1, Page: iter % d.geo.PagesPerBlock})
			copy(latch, page)
			before := d.Stats.BitErrorsInjected.Load()
			got := d.injectErrors(latch, ber)
			drawn := int(d.Stats.BitErrorsInjected.Load() - before)
			diff := 0
			for i := range latch {
				diff += bits.OnesCount8(latch[i] ^ page[i])
			}
			if got != diff {
				t.Fatalf("ber %g: sense reported %d flipped bits, latch differs from the page in %d", ber, got, diff)
			}
			if got > drawn || (drawn-got)%2 != 0 {
				t.Fatalf("ber %g: %d bits flipped by %d draws", ber, got, drawn)
			}
			repeats = repeats || got < drawn
			// The conventional path draws the same way without a latch.
			if n := d.injectErrors(nil, ber); n < 0 || n > len(latch)*8 {
				t.Fatalf("ber %g: latchless sense reported %d flipped bits", ber, n)
			}
			for _, w := range d.flipSet {
				if w != 0 {
					t.Fatalf("ber %g: flip bitset not cleared after a sense", ber)
				}
			}
		}
	}
	if !repeats {
		t.Fatal("no bit error rate repeated a position: the cancellation case went untested")
	}
}

// TestReadPathGolden pins the error-injection draw sequence: after a fixed
// script of 1 000 reads — in-latch senses, whole-page reads and slot
// reads over three TLC pages, an SLC page and an erased one, at a raw BER
// high enough (87 flips a sense) that positions repeat — the counters are
// the ones the sort-and-count implementation before this one produced,
// with ReadPageInto where the script now calls ReadSlots. A change to the
// draw order, the count of draws per sense, or which reads draw at all
// fails here by name.
func TestReadPathGolden(t *testing.T) {
	p := DefaultParams()
	p.rawBERTLC = 5e-3
	d, err := NewDevice(testGeo(), p)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	addrs := []Address{
		{Channel: 0, Die: 0, Plane: 0, Block: 0, Page: 0},
		{Channel: 1, Die: 1, Plane: 1, Block: 1, Page: 3},
		{Channel: 0, Die: 1, Plane: 0, Block: 2, Page: 5},
		{Channel: 1, Die: 0, Plane: 1, Block: 3, Page: 7}, // SLC
		{Channel: 0, Die: 0, Plane: 1, Block: 3, Page: 1}, // erased
	}
	if err := d.SetBlockMode(addrs[3], ModeSLC); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs[:4] {
		randomPage(t, d, r, a)
	}
	var data, oob []byte
	rec := make([]byte, 3*64)
	for i := 0; i < 1000; i++ {
		a := addrs[i%len(addrs)]
		switch i % 3 {
		case 0:
			err = d.ReadPage(a)
		case 1:
			data, oob, err = d.ReadPageInto(a, data, oob)
		case 2:
			err = d.ReadSlots(a, 64, []int{i % 32, 5, 31}, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"BitErrorsInjected", d.Stats.BitErrorsInjected.Load(), 52223},
		{"ECCCorrections", d.Stats.ECCCorrections.Load(), 34645},
		{"PageReads", d.Stats.PageReads.Load(), 1000},
		{"PageReadsByMode[SLC-ESP]", d.Stats.PageReadsByMode[ModeSLCESP].Load(), 0},
		{"PageReadsByMode[SLC]", d.Stats.PageReadsByMode[ModeSLC].Load(), 200},
		{"PageReadsByMode[TLC]", d.Stats.PageReadsByMode[ModeTLC].Load(), 800},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d after the script, %d before the sort-free count", c.name, c.got, c.want)
		}
	}
}

// TestReadSlotsReturnsProgrammedBytes: a slot read hands back exactly the
// programmed bytes — for every slot of a TLC page, whose raw errors the
// ECC corrects, and of an SLC-ESP page, which has none, read one at a
// time and all at once in scrambled order, and for an erased page (all
// ones) — counts one page read and only the record bytes as moved, and
// rejects slots outside the page and short buffers.
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
		rec := make([]byte, slotBytes)
		for s := 0; s < nSlots; s++ {
			if err := d.ReadSlots(a, slotBytes, []int{s}, rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, page[s*slotBytes:(s+1)*slotBytes]) {
				t.Fatalf("%v: slot %d is not the programmed bytes", mode, s)
			}
		}
		slots := make([]int, 0, nSlots)
		for s := 0; s < nSlots; s++ {
			slots = append(slots, (s*8)%nSlots) // a permutation: 8 and 21 are coprime
		}
		all := make([]byte, nSlots*slotBytes)
		d.ResetStats()
		if err := d.ReadSlots(a, slotBytes, slots, all); err != nil {
			t.Fatal(err)
		}
		for i, s := range slots {
			if !bytes.Equal(all[i*slotBytes:(i+1)*slotBytes], page[s*slotBytes:(s+1)*slotBytes]) {
				t.Fatalf("%v: record %d (slot %d) is not the programmed bytes", mode, i, s)
			}
		}
		if reads, out := d.Stats.PageReads.Load(), d.Stats.TotalBytesOut(); reads != 1 || out != int64(len(all)) {
			t.Fatalf("%v: %d page reads and %d bytes out for one read of %d record bytes", mode, reads, out, len(all))
		}
		if corrected := d.Stats.ECCCorrections.Load() > 0; corrected != (mode == ModeTLC) {
			t.Fatalf("%v: ECCCorrections = %d", mode, d.Stats.ECCCorrections.Load())
		}

		erased := Address{Block: 3, Page: 1}
		if err := d.ReadSlots(erased, slotBytes, []int{0, nSlots - 1}, all); err != nil {
			t.Fatal(err)
		}
		for _, b := range all[:2*slotBytes] {
			if b != 0xFF {
				t.Fatal("erased page's slots not all-ones")
			}
		}

		for name, err := range map[string]error{
			"slot past the page": d.ReadSlots(a, slotBytes, []int{nSlots}, all),
			"negative slot":      d.ReadSlots(a, slotBytes, []int{-1}, all),
			"short buffer":       d.ReadSlots(a, slotBytes, []int{0, 1}, all[:slotBytes]),
			"zero slot width":    d.ReadSlots(a, 0, []int{0}, all),
			"invalid address":    d.ReadSlots(Address{Channel: 99}, slotBytes, []int{0}, all),
		} {
			if err == nil {
				t.Errorf("%s accepted", name)
			}
		}
	}
}

// benchTLCPage programs one TLC page of the REIS-SSD page geometry (16 KiB
// + 2208 B OOB: 74 raw flips a sense at the default BER) and returns its
// address.
func benchTLCPage(b *testing.B) (*Device, Address) {
	geo := testGeo()
	geo.PageBytes, geo.OOBBytes = 16384, 2208
	d, err := NewDevice(geo, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	a := Address{Block: 1, Page: 2}
	randomPage(b, d, xrand.New(1), a)
	return d, a
}

// BenchmarkReadPageIntoTLC is the conventional whole-page read of a TLC
// page: the raw-error draw with its flip count, and one copy of page and
// OOB to the caller.
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
// same sense, and only the records wanted copied out — here two INT8
// embeddings of 128 B (rag_uniform reranks 100 candidates off 70 pages).
func BenchmarkTailPageRead(b *testing.B) {
	d, a := benchTLCPage(b)
	slots := []int{17, 100}
	rec := make([]byte, len(slots)*128)
	b.ReportAllocs()
	for b.Loop() {
		if err := d.ReadSlots(a, 128, slots, rec); err != nil {
			b.Fatal(err)
		}
	}
}
