package flash

import (
	"runtime"
	"testing"
)

// liveHeap is the live heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
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
	d, err := NewDevice(geo, DefaultParams())
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
