package flash

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"reis/internal/xrand"
)

// TestDevicesShareProgrammedPages: programmed bytes are stored once per
// process, whichever device holds them. Two devices of one geometry
// share their erased and zero pages; a second device programmed with the
// pages a first holds reads every record as a view of the first's copy,
// and holds no more than its page map adds: under 128 B a page, where a
// copy of its own would cost the stored 4,128 B and more.
func TestDevicesShareProgrammedPages(t *testing.T) {
	const pages, prefix, oobBytes, slotBytes = 512, 4096, 32, 128
	geo := Geometry{
		Channels: 1, DiesPerChannel: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 16,
		PageBytes: 16 * 1024, OOBBytes: 2208, ChannelBandwidth: 1.2e9,
	}
	devs := [2]*Device{}
	for i := range devs {
		d, err := NewDevice(geo)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	if &devs[0].erased.data()[0] != &devs[1].erased.data()[0] || &devs[0].zero.oob()[0] != &devs[1].zero.oob()[0] {
		t.Fatal("two devices of one geometry hold erased and zero pages of their own")
	}
	data, oob := make([]byte, geo.PageBytes), make([]byte, oobBytes)
	for i := range prefix {
		data[i] = byte(i%251 + 1)
	}
	for i := range oob {
		oob[i] = byte(i + 1)
	}
	program := func(d *Device) {
		for i := range pages {
			binary.LittleEndian.PutUint32(data, uint32(i))
			if err := d.Program(AddressFromLinear(geo, i), data, oob); err != nil {
				t.Fatal(err)
			}
		}
	}
	program(devs[0])
	before := liveHeap()
	program(devs[1])
	grew := int64(liveHeap()) - int64(before)
	if limit := int64(pages * 128); grew > limit {
		t.Fatalf("a second device of %d shared pages holds %d bytes of live heap (%d a page), limit %d", pages, grew, grew/pages, limit)
	}
	t.Logf("a second device of %d shared pages holds %d bytes of live heap, %d a page", pages, grew, grew/pages)

	slots := []int{0, prefix/slotBytes - 1, geo.PageBytes/slotBytes - 1} // first, last stored, fill
	var views [2][][]byte
	for i := range pages {
		a := AddressFromLinear(geo, i)
		for k, d := range devs {
			var err error
			if views[k], _, err = d.ReadSlots(a, slotBytes, slots, views[k][:0], nil); err != nil {
				t.Fatal(err)
			}
		}
		for j, s := range slots {
			if &views[0][j][0] != &views[1][j][0] {
				t.Fatalf("page %d slot %d: the devices read views of two copies", i, s)
			}
		}
		if binary.LittleEndian.Uint32(views[1][0]) != uint32(i) {
			t.Fatalf("page %d reads another page's bytes", i)
		}
	}
	runtime.KeepAlive(devs)
}

// TestEraseLeavesOtherDevicesPages: sharing is invisible to readers. Two
// devices program one SLC-ESP block with the same pages, and the second
// senses one of them; the first then erases the block and reprograms it
// with other bytes. Every read of the second device — ReadPageInto,
// ReadSlots, the sensing latch, ReadOOB, a fresh sense — still returns
// the pages as programmed, records the first device read before its
// erase still hold the old bytes, and the first device reads its new
// ones.
func TestEraseLeavesOtherDevicesPages(t *testing.T) {
	const slotBytes = 64
	d1, d2 := testDevice(t), testDevice(t)
	g := d1.geo
	block := Address{Channel: 1, Die: 0, Plane: 1, Block: 2}
	r := xrand.New(3)
	old := make([][]byte, g.PagesPerBlock)
	for pg := range old {
		a := block
		a.Page = pg
		for _, d := range []*Device{d1, d2} {
			if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
				t.Fatal(err)
			}
		}
		old[pg] = randomPage(t, d1, r, a)
		if err := d2.Program(a, old[pg][:g.PageBytes], old[pg][g.PageBytes:]); err != nil {
			t.Fatal(err)
		}
	}
	sensed := block
	sensed.Page = 3
	if err := d2.ReadPage(sensed); err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.PageBytes/slotBytes)
	for s := range all {
		all[s] = s
	}
	before, _, err := d1.ReadSlots(sensed, slotBytes, all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := d1.EraseBlock(block); err != nil {
		t.Fatal(err)
	}
	fresh := make([][]byte, g.PagesPerBlock)
	for pg := range fresh {
		a := block
		a.Page = pg
		fresh[pg] = randomPage(t, d1, r, a)
	}
	runtime.GC()
	runtime.GC()

	plane := sensed.PlaneIndex(g)
	if sensing, _ := d2.Plane(plane).latches(); !bytes.Equal(sensing, old[sensed.Page]) {
		t.Fatal("the second device's sensing latch changed with the first device's erase")
	}
	if got, err := d2.ReadOOB(plane, nil); err != nil || !bytes.Equal(got, old[sensed.Page][g.PageBytes:]) {
		t.Fatalf("the second device's latched OOB changed with the first device's erase (%v)", err)
	}
	for i, s := range all {
		if !bytes.Equal(before[i], old[sensed.Page][s*slotBytes:(s+1)*slotBytes]) {
			t.Fatalf("a record read before the erase changed: slot %d", s)
		}
	}
	for pg := range old {
		a := block
		a.Page = pg
		for k, c := range []struct {
			d    *Device
			want []byte
		}{{d2, old[pg]}, {d1, fresh[pg]}} {
			data, oob, err := c.d.ReadPageInto(a, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, c.want[:g.PageBytes]) || !bytes.Equal(oob, c.want[g.PageBytes:]) {
				t.Fatalf("device %d: ReadPageInto(%v) is not the page it programmed", k+1, a)
			}
			recs, _, err := c.d.ReadSlots(a, slotBytes, all, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytes.Join(recs, nil), c.want[:len(all)*slotBytes]) {
				t.Fatalf("device %d: ReadSlots(%v) is not the page it programmed", k+1, a)
			}
			if err := c.d.ReadPage(a); err != nil {
				t.Fatal(err)
			}
			if sensing, _ := c.d.Plane(plane).latches(); !bytes.Equal(sensing, c.want) {
				t.Fatalf("device %d: a sense of %v does not latch the page it programmed", k+1, a)
			}
		}
	}
}

// TestStoreDropsErasedPages: the store holds a page's bytes no longer
// than some page or latch does. One device programs a block with bytes
// no other page holds and erases it; after a collection or two, the
// store has no entry left for any of them (its cleanup ran), so the
// collector is free to take their bytes.
func TestStoreDropsErasedPages(t *testing.T) {
	d := testDevice(t)
	block := Address{Channel: 1, Die: 1, Plane: 0, Block: 3}
	r := xrand.New(11)
	hashes := make([]uint64, d.geo.PagesPerBlock)
	for pg := range hashes {
		a := block
		a.Page = pg
		page := randomPage(t, d, r, a)
		hashes[pg] = pageHash(page[:d.geo.PageBytes], page[d.geo.PageBytes:])
	}
	held := func() (n int) {
		store.Lock()
		defer store.Unlock()
		for _, h := range hashes {
			n += len(store.m[h])
		}
		return n
	}
	if n := held(); n != len(hashes) {
		t.Fatalf("the store holds %d of %d programmed pages", n, len(hashes))
	}
	if err := d.EraseBlock(block); err != nil {
		t.Fatal(err)
	}
	gcs := 0
	for ; gcs < 10 && held() > 0; gcs++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the cleanups run meanwhile
	}
	if n := held(); n > 0 {
		t.Fatalf("%d collections after the erase the store still holds %d of its %d pages", gcs, n, len(hashes))
	}
	t.Logf("the store dropped the erased block's %d pages after %d collections", len(hashes), gcs)
	runtime.KeepAlive(d)
}

// programStamp numbers BenchmarkProgram's fresh pages across runs.
var programStamp uint64

// BenchmarkProgram times a program of one page of the REIS-SSD page
// geometry (16 KiB of random data, 2208 B of random OOB) over the page
// the last op programmed: fresh, bytes no page in the process holds,
// which the store hashes, finds absent and copies (and the page it
// replaces is dropped by a cleanup); shared, bytes another device
// already holds, which it hashes, finds and compares, and copies not at
// all.
func BenchmarkProgram(b *testing.B) {
	geo := testGeo()
	geo.PageBytes, geo.OOBBytes = 16384, 2208
	a := Address{Block: 1, Page: 2}
	newDevice := func() *Device {
		d, err := NewDevice(geo)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	page := make([]byte, geo.PageBytes+geo.OOBBytes)
	r := xrand.New(1)
	for i := range page {
		page[i] = byte(r.Uint64())
	}
	data, oob := page[:geo.PageBytes], page[geo.PageBytes:]
	b.Run("fresh", func(b *testing.B) {
		d := newDevice()
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		for b.Loop() {
			programStamp++
			binary.LittleEndian.PutUint64(data, programStamp) // bytes no page holds yet
			if err := d.Program(a, data, oob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		holder, d := newDevice(), newDevice()
		if err := holder.Program(a, data, oob); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		for b.Loop() {
			if err := d.Program(a, data, oob); err != nil {
				b.Fatal(err)
			}
		}
		runtime.KeepAlive(holder)
	})
}
