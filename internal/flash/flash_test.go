package flash

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

func testGeo() Geometry {
	return Geometry{
		Channels:         2,
		DiesPerChannel:   2,
		PlanesPerDie:     2,
		BlocksPerPlane:   4,
		PagesPerBlock:    8,
		PageBytes:        2048,
		OOBBytes:         128,
		ChannelBandwidth: 1.2e9,
	}
}

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testGeo())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryValidate(t *testing.T) {
	g := testGeo()
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.Channels = 0
	if err := bad.validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeo()
	if g.Planes() != 8 {
		t.Fatalf("Planes = %d", g.Planes())
	}
	if g.Dies() != 4 {
		t.Fatalf("Dies = %d", g.Dies())
	}
	if g.PagesPerPlane() != 32 {
		t.Fatalf("PagesPerPlane = %d", g.PagesPerPlane())
	}
	if g.totalPages() != 256 {
		t.Fatalf("totalPages = %d", g.totalPages())
	}
	if g.Capacity() != 256*2048 {
		t.Fatalf("Capacity = %d", g.Capacity())
	}
	if g.InternalBandwidth() != 2.4e9 {
		t.Fatalf("InternalBandwidth = %v", g.InternalBandwidth())
	}
}

func TestAddressLinearRoundTrip(t *testing.T) {
	g := testGeo()
	f := func(raw uint32) bool {
		idx := int(raw) % g.totalPages()
		a := AddressFromLinear(g, idx)
		return a.Valid(g) && a.LinearIndex(g) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressPlaneMajorContiguity(t *testing.T) {
	// Consecutive linear indices within a plane must be consecutive
	// pages of that plane — what coarse-grained access relies on.
	g := testGeo()
	a := AddressFromLinear(g, 0)
	b := AddressFromLinear(g, 1)
	if a.PlaneIndex(g) != b.PlaneIndex(g) {
		t.Fatal("adjacent linear indices crossed planes")
	}
	if b.pageIndex(g) != a.pageIndex(g)+1 {
		t.Fatal("adjacent linear indices not adjacent pages")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	a := Address{Channel: 1, Die: 0, Plane: 1, Block: 2, Page: 3}
	data := bytes.Repeat([]byte{0xAB}, 100)
	oob := []byte{1, 2, 3, 4}
	if err := d.Program(a, data, oob); err != nil {
		t.Fatal(err)
	}
	gotData, gotOOB, err := d.ReadPageInto(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData[:100], data) {
		t.Fatal("data mismatch")
	}
	if gotData[100] != 0xFF {
		t.Fatal("unwritten data bytes not erased-state")
	}
	if !bytes.Equal(gotOOB[:4], oob) {
		t.Fatal("OOB mismatch")
	}
}

func TestProgramRejectsOversize(t *testing.T) {
	d := testDevice(t)
	a := Address{}
	if err := d.Program(a, make([]byte, 4096), nil); err == nil {
		t.Fatal("oversized data accepted")
	}
	if err := d.Program(a, nil, make([]byte, 4096)); err == nil {
		t.Fatal("oversized OOB accepted")
	}
	if err := d.Program(Address{Channel: 99}, nil, nil); err == nil {
		t.Fatal("invalid address accepted")
	}
}

func TestEraseBlock(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 1, Page: 0}
	if err := d.Program(a, []byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(a); err != nil {
		t.Fatal(err)
	}
	data, _, err := d.ReadPageInto(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xFF {
		t.Fatal("page not erased")
	}
	if d.Stats.BlockErases.Load() != 1 {
		t.Fatalf("BlockErases = %d", d.Stats.BlockErases.Load())
	}
}

func TestEraseWearAccounting(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 1}
	b := Address{Block: 2}
	for i := 0; i < 3; i++ {
		if err := d.EraseBlock(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EraseBlock(b); err != nil {
		t.Fatal(err)
	}
	if got := d.BlockMaxErase(a.Block); got != 3 {
		t.Fatalf("BlockMaxErase(%d) = %d, want 3", a.Block, got)
	}
	if got := d.BlockMaxErase(b.Block); got != 1 {
		t.Fatalf("BlockMaxErase(%d) = %d, want 1", b.Block, got)
	}
	if got := d.BlockMaxErase(3); got != 0 {
		t.Fatalf("BlockMaxErase(untouched) = %d, want 0", got)
	}
	if got := d.MaxEraseCount(); got != 3 {
		t.Fatalf("MaxEraseCount = %d, want 3", got)
	}
	// Wear is a lifetime ledger: ResetStats clears event counters but
	// not per-block cycle counts.
	d.ResetStats()
	if got := d.MaxEraseCount(); got != 3 {
		t.Fatalf("MaxEraseCount after ResetStats = %d, want 3", got)
	}
}

func TestCellModePartitioning(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0}
	if d.BlockMode(a) != ModeTLC {
		t.Fatal("default mode not TLC")
	}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if d.BlockMode(a) != ModeSLCESP {
		t.Fatal("mode not updated")
	}
	// Other blocks unaffected.
	if d.BlockMode(Address{Block: 1}) != ModeTLC {
		t.Fatal("other block mode changed")
	}
}

func TestSLCESPReadsAreErrorFree(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2048)
	r := xrand.New(1)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	if err := d.Program(a, payload, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		data, _, err := d.ReadPageInto(a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payload) {
			t.Fatalf("SLC-ESP read %d corrupted", i)
		}
	}
}

func TestTLCControllerPathIsECCCorrected(t *testing.T) {
	// The conventional read path must return exactly the programmed
	// bytes (controller ECC).
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	payload := bytes.Repeat([]byte{0x5A}, 2048)
	if err := d.Program(a, payload, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		data, _, err := d.ReadPageInto(a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payload) {
			t.Fatalf("read %d: controller path returned corrupted data", i)
		}
	}
}

func TestIBCFillsAllSlots(t *testing.T) {
	d := testDevice(t)
	pattern := []byte{0xDE, 0xAD}
	if err := d.LoadCache(3, pattern, 4); err != nil {
		t.Fatal(err)
	}
	_, cache := d.Plane(3).latches()
	for off := 0; off+4 <= d.geo.PageBytes; off += 4 {
		if cache[off] != 0xDE || cache[off+1] != 0xAD {
			t.Fatalf("slot at %d not filled", off)
		}
		if cache[off+2] != 0 || cache[off+3] != 0 {
			t.Fatalf("slot padding at %d not zero", off)
		}
	}
	if d.Stats.IBCLoads.Load() != 1 {
		t.Fatalf("IBCLoads = %d", d.Stats.IBCLoads.Load())
	}
}

func TestXORComputesHammingDistance(t *testing.T) {
	// End-to-end latch flow through the die's commands: program two binary
	// embeddings into a page, IBC a query, sense, and one GEN_DIST_PAGE
	// wave (XOR and fail-bit count of each slot) — each distance must
	// equal vecmath.Hamming.
	d := testDevice(t)
	r := xrand.New(2)
	dim := 256 // 32 bytes per embedding
	slotBytes := 32
	q := make([]float32, dim)
	e0 := make([]float32, dim)
	e1 := make([]float32, dim)
	for i := 0; i < dim; i++ {
		q[i] = float32(r.NormFloat64())
		e0[i] = float32(r.NormFloat64())
		e1[i] = float32(r.NormFloat64())
	}
	qc := vecmath.BinaryQuantize(q, nil)
	c0 := vecmath.BinaryQuantize(e0, nil)
	c1 := vecmath.BinaryQuantize(e1, nil)

	page := make([]byte, 0, 64)
	page = append(page, vecmath.PackBinaryBytes(c0, nil)...)
	page = append(page, vecmath.PackBinaryBytes(c1, nil)...)
	a := Address{Block: 0, Page: 0}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(a, page, nil); err != nil {
		t.Fatal(err)
	}

	plane := a.PlaneIndex(d.geo)
	must(t, d.LoadCache(plane, vecmath.PackBinaryBytes(qc, nil), slotBytes))
	must(t, d.ReadPage(a))
	dists := make([]int, 2)
	must(t, d.GenDistPage(plane, slotBytes, 0, 2, dists, 0))
	if d0 := dists[0]; d0 != vecmath.Hamming(qc, c0) {
		t.Fatalf("slot 0 distance %d != %d", d0, vecmath.Hamming(qc, c0))
	}
	if d1 := dists[1]; d1 != vecmath.Hamming(qc, c1) {
		t.Fatalf("slot 1 distance %d != %d", d1, vecmath.Hamming(qc, c1))
	}
}

func TestXORPreservesOOB(t *testing.T) {
	// GEN_DIST_PAGE's latch XOR reads the sensing latch without writing
	// it: the page's OOB bytes still read back as programmed after a
	// wave.
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	must(t, d.SetBlockMode(a, ModeSLCESP))
	if err := d.Program(a, []byte{0xFF}, []byte{0x42, 0x43}); err != nil {
		t.Fatal(err)
	}
	plane := a.PlaneIndex(d.geo)
	must(t, d.LoadCache(plane, []byte{0xFF}, 1))
	must(t, d.ReadPage(a))
	must(t, d.GenDistPage(plane, 1, 0, 4, make([]int, 4), 0))
	oob, err := d.ReadOOB(plane, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oob[0] != 0x42 || oob[1] != 0x43 {
		t.Fatalf("OOB corrupted by XOR: %v", oob)
	}
}

func TestPassFail(t *testing.T) {
	d := testDevice(t)
	d.CountPassFail(2)
	d.CountPassFail(0)
	if d.Stats.PassFailChecks.Load() != 2 {
		t.Fatalf("PassFailChecks = %d", d.Stats.PassFailChecks.Load())
	}
}

func TestStatsCounting(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(a, []byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadPageInto(a, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d.Stats.PageReads.Load() != 1 || d.Stats.PageReadsByMode[ModeSLCESP].Load() != 1 {
		t.Fatalf("read counters wrong: reads=%d byMode=%d",
			d.Stats.PageReads.Load(), d.Stats.PageReadsByMode[ModeSLCESP].Load())
	}
	if d.Stats.BytesOut[0].Load() == 0 || d.Stats.ReadBytesOut[0].Load() != d.Stats.BytesOut[0].Load() {
		t.Fatal("BytesOut not counted")
	}
	// RD_TTL of n entries of e bytes moves n·e bytes on its plane's
	// channel, none of them a conventional read.
	out0, plane := d.Stats.BytesOut[0].Load(), (Address{Channel: 1}).PlaneIndex(d.geo)
	must(t, d.ReadTTL(plane, 25, 4))
	must(t, d.ReadTTL(plane, 25, 0))
	if out, out1, read1 := d.Stats.BytesOut[0].Load(), d.Stats.BytesOut[1].Load(), d.Stats.ReadBytesOut[1].Load(); out != out0 || out1 != 100 || read1 != 0 {
		t.Fatalf("RD_TTL of 4 × 25B on channel 1: BytesOut [%d %d], ReadBytesOut[1] %d; want [%d 100], 0", out, out1, read1, out0)
	}
	d.ResetStats()
	if d.Stats.PageReads.Load() != 0 || d.Stats.TotalBytesOut() != 0 || d.Stats.ReadBytesOut[0].Load() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestParamsLatencies(t *testing.T) {
	p := DefaultParams()
	if p.ReadLatency(ModeSLCESP) >= p.ReadLatency(ModeTLC) {
		t.Fatal("SLC-ESP read not faster than TLC")
	}
	if p.ReadLatency(ModeSLCESP).Microseconds() != 22 { // 22.5us truncated
		t.Fatalf("tR(ESP) = %v, want 22.5us", p.ReadLatency(ModeSLCESP))
	}
	if p.ProgramLatency(ModeTLC) <= p.ProgramLatency(ModeSLC) {
		t.Fatal("TLC program not slower")
	}
}

func TestCommandSetProtocolOrdering(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	query := []byte{1, 2, 3, 4}
	must(t, d.SetBlockMode(a, ModeSLCESP))
	if err := d.Program(a, query, nil); err != nil {
		t.Fatal(err)
	}
	plane := a.PlaneIndex(d.geo)
	dists := make([]int, 1)

	// GEN_DIST_PAGE before IBC must fail.
	if err := d.GenDistPage(plane, 4, 0, 1, dists, 0); err == nil {
		t.Fatal("GEN_DIST_PAGE before IBC accepted")
	}
	must(t, d.LoadCache(plane, query, 4))
	// GEN_DIST_PAGE before a page read must fail.
	if err := d.GenDistPage(plane, 4, 0, 1, dists, 0); err == nil {
		t.Fatal("GEN_DIST_PAGE before page read accepted")
	}
	// Proper sequence.
	must(t, d.ReadPage(a))
	must(t, d.GenDistPage(plane, 4, 0, 1, dists, 0))
	if dists[0] != 0 { // page data equals query -> zero distance
		t.Fatalf("self distance = %d", dists[0])
	}
	must(t, d.ReadTTL(plane, 16, 1))
	if out := d.Stats.TotalBytesOut(); out != 16 {
		t.Fatalf("RD_TTL moved %d bytes, want 16", out)
	}
}

func TestCommandSetReadInvalidatesXOR(t *testing.T) {
	// A new page read replaces what the next wave XORs against: the
	// distances after it are the new page's, not the old sense's.
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	b := Address{Block: 0, Page: 1}
	if err := d.SetBlockMode(a, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(a, []byte{0xF0, 0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(b, []byte{0x0F, 0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	plane := a.PlaneIndex(d.geo)
	dists := make([]int, 1)
	must(t, d.LoadCache(plane, []byte{0xF0}, 4))
	must(t, d.ReadPage(a))
	must(t, d.GenDistPage(plane, 4, 0, 1, dists, 0))
	if dists[0] != 0 {
		t.Fatalf("distance to page a = %d, want 0", dists[0])
	}
	must(t, d.ReadPage(b))
	must(t, d.GenDistPage(plane, 4, 0, 1, dists, 0))
	if dists[0] != 8 {
		t.Fatalf("distance after re-read = %d, want page b's 8", dists[0])
	}
}

// must fails t on a command's error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommandSetRejectsUnknown(t *testing.T) {
	d := testDevice(t)
	if err := d.ReadTTL(0, 0, 1); err == nil {
		t.Fatal("RD_TTL with zero entry accepted")
	}
	if err := d.ReadTTL(0, 16, -1); err == nil {
		t.Fatal("RD_TTL of a negative entry count accepted")
	}
	if out := d.Stats.TotalBytesOut(); out != 0 {
		t.Fatalf("refused RD_TTLs moved %d bytes", out)
	}
}

func TestCommandSetRejectsPlaneOutOfRange(t *testing.T) {
	d := testDevice(t)
	before := d.Stats.TotalBytesOut()
	for _, plane := range []int{-1, d.geo.Planes()} {
		if err := d.GenDistPage(plane, 4, 0, 1, make([]int, 1), 0); err == nil {
			t.Errorf("GEN_DIST_PAGE on plane %d accepted", plane)
		}
		if err := d.ReadTTL(plane, 16, 1); err == nil {
			t.Errorf("RD_TTL on plane %d accepted", plane)
		}
	}
	if out := d.Stats.TotalBytesOut(); out != before {
		t.Fatalf("refused RD_TTLs moved %d bytes", out-before)
	}
}

func TestReadErasedPage(t *testing.T) {
	d := testDevice(t)
	data, oob, err := d.ReadPageInto(Address{Block: 3, Page: 7}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0xFF {
			t.Fatal("erased page not all-ones")
		}
	}
	for _, b := range oob {
		if b != 0xFF {
			t.Fatal("erased OOB not all-ones")
		}
	}
}

func TestReadPageFillsSensingLatch(t *testing.T) {
	d := testDevice(t)
	a := Address{Block: 0, Page: 0}
	page := append(bytes.Repeat([]byte{0x11}, 8), bytes.Repeat([]byte{0x22}, 8)...)
	must(t, d.SetBlockMode(a, ModeSLCESP))
	if err := d.Program(a, page, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(a); err != nil {
		t.Fatal(err)
	}
	sensing, _ := d.planes[a.PlaneIndex(d.geo)].latches()
	if s1 := sensing[8:16]; !bytes.Equal(s1, page[8:]) {
		t.Fatalf("slot 1 = %x", s1)
	}
}

// TestIBCLoadCountsALatch: a broadcast load moves a full cache latch of
// query copies through the die port, whatever the pattern's length —
// the bytes the timing model charges per load — on the plane's channel.
func TestIBCLoadCountsALatch(t *testing.T) {
	d := testDevice(t)
	g := d.geo
	plane := (Address{Channel: 1, Die: 1, Plane: 0}).PlaneIndex(g)
	if err := d.LoadCache(plane, []byte{0xDE, 0xAD}, 4); err != nil {
		t.Fatal(err)
	}
	if in0, in1 := d.Stats.BytesIn[0].Load(), d.Stats.BytesIn[1].Load(); in0 != 0 || in1 != int64(g.PageBytes) {
		t.Fatalf("BytesIn = [%d %d], want [0 %d]", in0, in1, g.PageBytes)
	}
}

// TestIBCDieBroadcast: the multi-plane broadcast is one load on the
// die's channel that fills the cache latches of the planes it names and
// no others — an unnamed plane keeps the different pattern it held
// before; a held broadcast fills without counting; only the named planes
// go on to GEN_DIST_PAGE.
func TestIBCDieBroadcast(t *testing.T) {
	d := testDevice(t)
	g := d.geo
	die := g.DieOf((Address{Channel: 1, Die: 1}).PlaneIndex(g))
	p0, p1 := g.DiePlane(die, 0), g.DiePlane(die, 1)
	if g.channelOf(p0) != 1 || g.channelOf(p1) != 1 || g.DieOf(p1) != die || p0 == p1 {
		t.Fatalf("die %d planes %d, %d", die, p0, p1)
	}
	cacheOf := func(p int) []byte { _, c := d.Plane(p).latches(); return c }
	for _, p := range []int{p0, p1} {
		must(t, d.LoadCache(p, []byte{0xFF, 0xFF}, 2))
	}
	d.ResetStats()
	must(t, d.LoadCacheDie(die, 0b10, []byte{0xA5}, 2, false))
	if c := cacheOf(p1); c[0] != 0xA5 || c[1] != 0 || c[2] != 0xA5 {
		t.Fatalf("named plane's cache latch = % x", c[:4])
	}
	if c := cacheOf(p0); c[0] != 0xFF || c[1] != 0xFF {
		t.Fatalf("unnamed plane's cache latch was filled: % x", c[:4])
	}
	if n, in := d.Stats.IBCLoads.Load(), d.Stats.BytesIn[1].Load(); n != 1 || in != int64(g.PageBytes) || d.Stats.BytesIn[0].Load() != 0 {
		t.Fatalf("one die load counted %d loads, %d bytes in on its channel", n, in)
	}

	// The die still holds the broadcast: latching its other plane moves
	// nothing through the port.
	must(t, d.LoadCacheDie(die, 0b01, []byte{0xA5}, 2, true))
	if c := cacheOf(p0); c[0] != 0xA5 || c[1] != 0 {
		t.Fatalf("held broadcast did not fill the plane: % x", c[:4])
	}
	if n, in := d.Stats.IBCLoads.Load(), d.Stats.BytesIn[1].Load(); n != 1 || in != int64(g.PageBytes) {
		t.Fatalf("held broadcast counted: %d loads, %d bytes", n, in)
	}

	// Protocol: a plane of another die has seen no IBC.
	other := g.DiePlane(g.DieOf((Address{Channel: 0, Die: 0}).PlaneIndex(g)), 0)
	a := Address{Channel: 0, Die: 0, Plane: 0}
	if other != a.PlaneIndex(g) {
		t.Fatalf("plane %d != %d", other, a.PlaneIndex(g))
	}
	must(t, d.SetBlockMode(a, ModeSLCESP))
	must(t, d.ReadPage(a))
	if err := d.GenDistPage(other, 2, 0, 1, make([]int, 1), 0); err == nil {
		t.Fatal("GEN_DIST_PAGE accepted on a plane no broadcast named")
	}
	for _, bad := range []struct {
		die   int
		mask  uint64
		query []byte
	}{
		{g.Dies(), 1, []byte{1}},
		{0, 1 << uint(g.PlanesPerDie), []byte{1}},
		{0, 1, []byte{1, 2, 3}},
	} {
		if err := d.LoadCacheDie(bad.die, bad.mask, bad.query, 2, false); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}

// statsCounters visits every counter of s by name — each scalar, each
// array element and each per-channel slot — through reflection, so a
// counter added later is covered without touching its callers. A field
// that is not a counter, or an empty counter list, fails t.
func statsCounters(t *testing.T, s *Stats, visit func(name string, c *atomic.Int64)) {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			visit(name, f.Addr().Interface().(*atomic.Int64))
		case reflect.Array, reflect.Slice:
			if f.Len() == 0 {
				t.Fatalf("Stats.%s has no counters", name)
			}
			for j := range f.Len() {
				visit(fmt.Sprintf("%s[%d]", name, j), f.Index(j).Addr().Interface().(*atomic.Int64))
			}
		default:
			t.Fatalf("Stats.%s is a %s, not a counter", name, f.Kind())
		}
	}
}

// TestResetStatsZeroesEveryCounter sets every counter of Stats to a
// distinct non-zero value and requires ResetStats to zero them all.
func TestResetStatsZeroesEveryCounter(t *testing.T) {
	d := testDevice(t)
	var n int64
	statsCounters(t, &d.Stats, func(_ string, c *atomic.Int64) { n++; c.Store(n) })
	d.ResetStats()
	statsCounters(t, &d.Stats, func(name string, c *atomic.Int64) {
		if v := c.Load(); v != 0 {
			t.Errorf("after ResetStats: Stats.%s = %d", name, v)
		}
	})
}
