package flash

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"
)

// liveHeap is the live heap once collections stop freeing anything. The
// store programmed pages share drops a dead page's entry in the
// background after a collection, and a later collection frees its bytes,
// so a single collection can leave the pages of an earlier test counted
// and free them inside the next measurement instead.
func liveHeap() uint64 {
	var m runtime.MemStats
	last := uint64(math.MaxUint64)
	for i := range 10 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if i >= 2 && m.HeapAlloc >= last {
			break
		}
		last = m.HeapAlloc
		time.Sleep(time.Millisecond) // the store's cleanup runs meanwhile
	}
	return m.HeapAlloc
}

// TestDeviceResidentMemory guards what a device keeps resident before it
// holds data: an empty device of the REIS-SSD1 plane geometry (256
// planes of 16 KiB pages, 8 blocks of 16 pages each) must stay under
// 1 MiB of live heap, and still after one GEN_DIST_PAGE wave on every
// plane — a broadcast, a sense of an erased SLC-ESP page and a whole-page
// wave. A latch that is a page buffer of its own costs 4.5 MiB a latch
// across these planes.
func TestDeviceResidentMemory(t *testing.T) {
	const limit = 1 << 20
	geo := Geometry{
		Channels: 8, DiesPerChannel: 16, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 16,
		PageBytes: 16 * 1024, OOBBytes: 2208, ChannelBandwidth: 1.2e9,
	}
	before := liveHeap()
	d, err := NewDevice(geo)
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(liveHeap()) - int64(before); grew >= limit {
		t.Fatalf("an empty %d-plane device holds %d bytes of live heap, limit %d", geo.Planes(), grew, limit)
	}

	const slotBytes = 32
	pattern := make([]byte, slotBytes)
	dists := make([]int, geo.PageBytes/slotBytes)
	for p := range geo.Planes() {
		a := AddressFromLinear(geo, p*geo.BlocksPerPlane*geo.PagesPerBlock)
		if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
			t.Fatal(err)
		}
		pattern[0] = byte(p)
		if err := d.LoadCache(p, pattern, slotBytes); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPage(a); err != nil {
			t.Fatal(err)
		}
		if err := d.GenDistPage(p, slotBytes, 0, len(dists), dists, 0); err != nil {
			t.Fatal(err)
		}
	}
	if waves := d.Stats.LatchXORs.Load(); waves != int64(geo.Planes()) {
		t.Fatalf("%d waves ran on %d planes", waves, geo.Planes())
	}
	if grew := int64(liveHeap()) - int64(before); grew >= limit {
		t.Fatalf("after a wave on each of its %d planes the device holds %d bytes of live heap, limit %d", geo.Planes(), grew, limit)
	}
	t.Logf("live heap of the device after the waves: %d bytes", int64(liveHeap())-int64(before))
	runtime.KeepAlive(d)
}

// TestProgrammedPageMemory guards what a programmed page keeps: pages
// written as a 4 KiB prefix of data zero-padded to the 16 KiB page, with
// 32 B of OOB, must hold their 4,128 stored bytes and no more than size
// classes and the page map add. The bound per page is the stored bytes
// plus a quarter (Go's size classes round a 4,128-byte object up to
// 4,864 B) plus 256 B for the page's map entry and its place in the
// store of programmed bytes: 5,416 B, where a page that kept whole page
// buffers would hold 18,688 B. Each page's index is stamped into its
// prefix, so no two pages hold the same bytes and none shares another's.
func TestProgrammedPageMemory(t *testing.T) {
	const pages, prefix, oobBytes = 512, 4096, 32
	geo := Geometry{
		Channels: 1, DiesPerChannel: 1, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 16,
		PageBytes: 16 * 1024, OOBBytes: 2208, ChannelBandwidth: 1.2e9,
	}
	d, err := NewDevice(geo)
	if err != nil {
		t.Fatal(err)
	}
	data, oob := make([]byte, geo.PageBytes), make([]byte, oobBytes)
	for i := range prefix {
		data[i] = byte(i%251 + 1)
	}
	for i := range oob {
		oob[i] = byte(i + 1)
	}
	before := liveHeap()
	for i := range pages {
		binary.LittleEndian.PutUint32(data, uint32(i))
		if err := d.Program(AddressFromLinear(geo, i), data, oob); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(liveHeap()) - int64(before)
	const stored = prefix + oobBytes
	if limit := int64(pages * (stored + stored/4 + 256)); grew > limit {
		t.Fatalf("%d pages of %d stored bytes each hold %d bytes of live heap (%d a page), limit %d", pages, stored, grew, grew/pages, limit)
	}
	t.Logf("%d programmed pages hold %d bytes of live heap, %d a page", pages, grew, grew/pages)
	runtime.KeepAlive(d)
}
