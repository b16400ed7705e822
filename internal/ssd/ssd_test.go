package ssd

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"reis/internal/flash"
)

// tinyCfg shrinks SSD1 for unit tests while keeping its parallelism
// structure intact.
func tinyCfg() Config {
	cfg := SSD1()
	cfg.Geo.Channels = 2
	cfg.Geo.DiesPerChannel = 2
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 4
	cfg.Geo.PageBytes = 2048
	cfg.Geo.OOBBytes = 128
	return cfg
}

func newTestSSD(t *testing.T) *SSD {
	t.Helper()
	s, err := New(tinyCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPresetConfigsMatchTable3(t *testing.T) {
	s1, s2 := SSD1(), SSD2()
	if s1.Geo.Channels != 8 || s1.Geo.DiesPerChannel != 16 || s1.Geo.PlanesPerDie != 2 {
		t.Fatalf("SSD1 geometry wrong: %+v", s1.Geo)
	}
	if s1.Geo.ChannelBandwidth != 1.2e9 {
		t.Fatalf("SSD1 channel bandwidth %v", s1.Geo.ChannelBandwidth)
	}
	if s2.Geo.Channels != 16 || s2.Geo.DiesPerChannel != 8 || s2.Geo.PlanesPerDie != 4 {
		t.Fatalf("SSD2 geometry wrong: %+v", s2.Geo)
	}
	if s2.Geo.ChannelBandwidth != 2.0e9 {
		t.Fatalf("SSD2 channel bandwidth %v", s2.Geo.ChannelBandwidth)
	}
	// SSD2 has 2x channels and more planes (Sec 6.1 observation 3).
	if s2.Geo.Planes() <= s1.Geo.Planes() {
		t.Fatal("SSD2 not more parallel than SSD1")
	}
}

// TestConfigSurface pins the exported fields of a device configuration
// and of the device against literal lists: each Config field is read by
// the model or set by a caller, so a re-added field that nothing reads
// fails here instead of passing review; and an SSD is its configuration,
// its flash and an allocator cursor, so a second database table kept
// beside the host's R-DB cannot come back unnoticed.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want []string
	}{
		{"Config", reflect.TypeOf(Config{}), []string{
			"Name", "Geo", "Flash", "CacheDRAMBytes", "OverprovisionPct", "HostReadBandwidth",
			"IdlePower", "DRAMAccessNs",
		}},
		{"SSD", reflect.TypeOf(SSD{}), []string{"Cfg", "Dev"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s fields:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

func TestWithCapacityFor(t *testing.T) {
	cfg := tinyCfg()
	need := cfg.Geo.Capacity() * 5
	grown := cfg.withCapacityFor(need)
	if grown.Geo.Capacity() < need {
		t.Fatalf("capacity %d < %d", grown.Geo.Capacity(), need)
	}
	// Parallelism structure untouched.
	if grown.Geo.Channels != cfg.Geo.Channels || grown.Geo.PlanesPerDie != cfg.Geo.PlanesPerDie {
		t.Fatal("withCapacityFor changed parallelism")
	}
}

func TestKernelCostModels(t *testing.T) {
	cfg := SSD1()
	if cfg.QuickselectTime(0) != 0 {
		t.Fatal("quickselect of nothing costs time")
	}
	if cfg.QuickselectTime(2000) <= cfg.QuickselectTime(1000) {
		t.Fatal("quickselect not monotonic")
	}
	if cfg.QuicksortTime(1) != 0 {
		t.Fatal("sorting one element costs time")
	}
	// n log n growth: sorting 4x the elements costs more than 4x.
	if cfg.QuicksortTime(4096) <= 4*cfg.QuicksortTime(1024) {
		t.Fatal("quicksort not superlinear")
	}
	ratio := float64(cfg.RerankTime(100, 1024)) / float64(cfg.RerankTime(1, 1024))
	if ratio < 99 || ratio > 101 {
		t.Fatalf("rerank not linear in n: ratio %v", ratio)
	}
}

func TestRegionAddressingStripesAcrossPlanes(t *testing.T) {
	s := newTestSSD(t)
	planes := s.Cfg.Geo.Planes() // 8
	r := Region{StartStripe: 0, PageCount: 3 * planes}
	seen := make(map[int]int)
	for i := 0; i < planes; i++ {
		a, err := r.AddressOf(s.Cfg.Geo, i)
		if err != nil {
			t.Fatal(err)
		}
		seen[a.PlaneIndex(s.Cfg.Geo)]++
	}
	// The first `planes` pages must land on `planes` distinct planes.
	if len(seen) != planes {
		t.Fatalf("first wave used %d planes, want %d", len(seen), planes)
	}
}

func TestRegionAddressOfArithmetic(t *testing.T) {
	s := newTestSSD(t)
	planes := s.Cfg.Geo.Planes()
	r := Region{StartStripe: 4, PageCount: 2*planes + 3}
	// Page planes+1 must be on plane 1 at stripe 5.
	a, err := r.AddressOf(s.Cfg.Geo, planes+1)
	if err != nil {
		t.Fatal(err)
	}
	if a.PlaneIndex(s.Cfg.Geo) != 1 {
		t.Fatalf("plane = %d", a.PlaneIndex(s.Cfg.Geo))
	}
	if off := a.Block*s.Cfg.Geo.PagesPerBlock + a.Page; off != 5 {
		t.Fatalf("page offset = %d", off)
	}
	if _, err := r.AddressOf(s.Cfg.Geo, r.PageCount); err == nil {
		t.Fatal("out-of-region page resolved")
	}
}

func TestAllocateRegionBlockAlignedModes(t *testing.T) {
	s := newTestSSD(t)
	emb, err := s.AllocateRegion(10, 0, flash.ModeSLCESP)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.AllocateRegion(10, 0, flash.ModeTLC)
	if err != nil {
		t.Fatal(err)
	}
	// Verify every embedding page is in an SLC-ESP block and every
	// document page in a TLC block.
	for i := 0; i < emb.PageCount; i++ {
		a, err := emb.AddressOf(s.Cfg.Geo, i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dev.BlockMode(a) != flash.ModeSLCESP {
			t.Fatalf("embedding page %d in %v block", i, s.Dev.BlockMode(a))
		}
	}
	for i := 0; i < doc.PageCount; i++ {
		a, err := doc.AddressOf(s.Cfg.Geo, i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dev.BlockMode(a) != flash.ModeTLC {
			t.Fatalf("document page %d in %v block", i, s.Dev.BlockMode(a))
		}
	}
	// Regions must not share stripes.
	planes := s.Cfg.Geo.Planes()
	if emb.StartStripe+(emb.PageCount+planes-1)/planes > doc.StartStripe {
		t.Fatal("regions overlap")
	}
}

func TestAllocateRegionReservesCapacity(t *testing.T) {
	s := newTestSSD(t)
	r, err := s.AllocateRegion(10, 25, flash.ModeSLCESP)
	if err != nil {
		t.Fatal(err)
	}
	if r.PageCount != 10 {
		t.Fatalf("live pages = %d, want 10", r.PageCount)
	}
	if r.capacity() < 25 {
		t.Fatalf("capacity %d below the requested 25", r.capacity())
	}
	// Capacity is block-aligned: a full block-row multiple of planes.
	planes := s.Cfg.Geo.Planes()
	if r.capacity()%(s.Cfg.Geo.PagesPerBlock*planes) != 0 {
		t.Fatalf("capacity %d not block-row aligned", r.capacity())
	}
	// A zero-page region with capacity starts empty but reserved.
	empty, err := s.AllocateRegion(0, 4, flash.ModeTLC)
	if err != nil {
		t.Fatal(err)
	}
	if empty.PageCount != 0 || empty.capacity() == 0 {
		t.Fatalf("empty reservation: pages=%d cap=%d", empty.PageCount, empty.capacity())
	}
	if empty.StartStripe < r.StartStripe+(r.capacity()+planes-1)/planes {
		t.Fatal("reservations overlap")
	}
}

func TestRegionSetLiveBounds(t *testing.T) {
	s := newTestSSD(t)
	r, err := s.AllocateRegion(4, 0, flash.ModeSLCESP)
	if err != nil {
		t.Fatal(err)
	}
	planes := s.Cfg.Geo.Planes()
	if err := r.SetLive(planes, r.capacity()); err != nil {
		t.Fatalf("grow to capacity: %v", err)
	}
	if _, err := r.AddressOf(s.Cfg.Geo, r.capacity()-1); err != nil {
		t.Fatalf("grown page unaddressable: %v", err)
	}
	if err := r.SetLive(planes, r.capacity()+1); !errors.Is(err, ErrRegionFull) {
		t.Fatalf("growth beyond capacity: error %v, want ErrRegionFull", err)
	}
	if err := r.SetLive(planes, -1); err == nil {
		t.Fatal("negative live extent accepted")
	}
	if err := r.SetLive(planes, 0); err != nil {
		t.Fatalf("shrink to zero: %v", err)
	}
}

func TestOverprovisionPctValidation(t *testing.T) {
	for _, pct := range []int{-1, 401} {
		cfg := tinyCfg()
		cfg.OverprovisionPct = pct
		if _, err := New(cfg, 0); err == nil {
			t.Fatalf("OverprovisionPct %d accepted", pct)
		}
	}
	cfg := tinyCfg()
	cfg.OverprovisionPct = 400
	if _, err := New(cfg, 0); err != nil {
		t.Fatalf("OverprovisionPct 400 rejected: %v", err)
	}
}

func TestAllocateRegionExhaustion(t *testing.T) {
	s := newTestSSD(t)
	totalPages := s.Cfg.Geo.Planes() * s.Cfg.Geo.PagesPerPlane()
	if _, err := s.AllocateRegion(totalPages*2, 0, flash.ModeTLC); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := s.AllocateRegion(0, 0, flash.ModeTLC); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestWriteReadRegionPage(t *testing.T) {
	s := newTestSSD(t)
	r, err := s.AllocateRegion(16, 0, flash.ModeSLCESP)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("embedding page payload")
	oob := []byte{0xAA, 0xBB}
	if err := s.WriteRegionPage(r, 7, payload, oob); err != nil {
		t.Fatal(err)
	}
	a, err := r.AddressOf(s.Cfg.Geo, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, gotOOB, err := s.Dev.ReadPageInto(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(payload)], payload) {
		t.Fatal("payload mismatch")
	}
	if gotOOB[0] != 0xAA || gotOOB[1] != 0xBB {
		t.Fatal("OOB mismatch")
	}
}

// planeView is the portion of a region range resident on one plane, as
// a materialized list of region page indices (ascending): the reference
// the allocation-free PlaneSpan form is checked against.
type planeView struct {
	plane    int
	pageIdxs []int
}

// planeViewRange returns the view of region pages [first, last]
// (inclusive, region page indices) that live on the given plane; it is
// empty when the range skips the plane.
func planeViewRange(r Region, planes, plane, first, last int) planeView {
	v := planeView{plane: plane}
	first, last = max(first, 0), min(last, r.PageCount-1)
	for i := first; i <= last; i++ {
		if i%planes == plane {
			v.pageIdxs = append(v.pageIdxs, i)
		}
	}
	return v
}

// planeViews splits region pages [first, last] into one view per plane,
// omitting planes with no pages in the range, ordered by plane index.
func planeViews(r Region, planes, first, last int) []planeView {
	var views []planeView
	for p := 0; p < planes; p++ {
		if v := planeViewRange(r, planes, p, first, last); len(v.pageIdxs) > 0 {
			views = append(views, v)
		}
	}
	return views
}

func TestPlaneViewsPartitionRange(t *testing.T) {
	r := Region{StartStripe: 0, PageCount: 37}
	planes := 8
	first, last := 3, 31
	seen := map[int]int{}
	views := planeViews(r, planes, first, last)
	for _, v := range views {
		for _, i := range v.pageIdxs {
			if i%planes != v.plane {
				t.Fatalf("page %d listed on plane %d", i, v.plane)
			}
			seen[i]++
		}
	}
	for i := first; i <= last; i++ {
		if seen[i] != 1 {
			t.Fatalf("page %d covered %d times", i, seen[i])
		}
	}
	if len(seen) != last-first+1 {
		t.Fatalf("views covered %d pages, want %d", len(seen), last-first+1)
	}
}

func TestPlaneSpansMatchPlaneViews(t *testing.T) {
	// The allocation-free span form must describe exactly the pages the
	// materialized views list, for a sweep of ranges and plane counts.
	r := Region{StartStripe: 0, PageCount: 37}
	for _, planes := range []int{1, 3, 8} {
		for _, rg := range [][2]int{{0, 36}, {3, 31}, {-5, 100}, {7, 7}, {30, 12}} {
			views := planeViews(r, planes, rg[0], rg[1])
			spans := r.AppendPlaneSpans(nil, planes, rg[0], rg[1])
			if len(spans) != len(views) {
				t.Fatalf("planes=%d range=%v: %d spans for %d views", planes, rg, len(spans), len(views))
			}
			for i, v := range views {
				s := spans[i]
				if s.Plane != v.plane || s.Count != len(v.pageIdxs) || s.Stride != planes {
					t.Fatalf("planes=%d range=%v: span %+v vs view plane=%d pages=%v", planes, rg, s, v.plane, v.pageIdxs)
				}
				for j, p := range v.pageIdxs {
					if got := s.First + j*s.Stride; got != p {
						t.Fatalf("planes=%d range=%v plane %d: span page %d = %d, view %d", planes, rg, s.Plane, j, got, p)
					}
				}
			}
		}
	}
}

func TestPlaneViewRangeClampsAndOrders(t *testing.T) {
	r := Region{StartStripe: 0, PageCount: 10}
	v := planeViewRange(r, 4, 2, -5, 100)
	want := []int{2, 6}
	if len(v.pageIdxs) != len(want) {
		t.Fatalf("pages = %v, want %v", v.pageIdxs, want)
	}
	for i := range want {
		if v.pageIdxs[i] != want[i] {
			t.Fatalf("pages = %v, want %v", v.pageIdxs, want)
		}
	}
	if got := planeViewRange(r, 4, 3, 0, 2); len(got.pageIdxs) != 0 {
		t.Fatalf("plane 3 should be empty in [0,2], got %v", got.pageIdxs)
	}
}

// TestPlaneOrderIsChannelFirst pins the plane numbering the region
// striping and the timing model's even spread stand on, on the two
// evaluated devices and the 2×2×2 test geometry: the linear index is a
// bijection; C consecutive region pages sit on C distinct channels; C·P
// consecutive pages fill exactly one die of every channel; and shard s
// of N maps plane for plane onto channels N·c+s of the N×C reference
// device (DESIGN.md, "Sharded topology": "per-plane page loads match
// plane for plane").
func TestPlaneOrderIsChannelFirst(t *testing.T) {
	for _, cfg := range []Config{SSD1(), SSD2(), tinyCfg()} {
		g := cfg.Geo
		g.BlocksPerPlane, g.PagesPerBlock = 2, 4
		C, P, planes := g.Channels, g.PlanesPerDie, g.Planes()

		seen := make([]bool, planes*g.PagesPerPlane())
		for idx := range seen {
			a := flash.AddressFromLinear(g, idx)
			if !a.Valid(g) || a.LinearIndex(g) != idx {
				t.Fatalf("%s: linear index %d -> %v -> %d", cfg.Name, idx, a, a.LinearIndex(g))
			}
			p := a.PlaneIndex(g)
			if p%C != a.Channel || g.DieOf(p) != a.Die*C+a.Channel || g.DieChannel(g.DieOf(p)) != a.Channel || g.DiePlane(g.DieOf(p), a.Plane) != p {
				t.Fatalf("%s: plane %d of %v: DieOf %d DiePlane %d",
					cfg.Name, p, a, g.DieOf(p), g.DiePlane(g.DieOf(p), a.Plane))
			}
		}

		r := Region{StartStripe: 1, PageCount: 2*planes + C*P}
		for first := 0; first+C*P <= r.PageCount; first++ {
			chans := make(map[int]bool)
			dies := make(map[int]int) // global die -> pages
			for i := first; i < first+C*P; i++ {
				a, err := r.AddressOf(g, i)
				if err != nil {
					t.Fatal(err)
				}
				if i < first+C {
					chans[a.Channel] = true
				}
				dies[g.DieOf(a.PlaneIndex(g))]++
			}
			if len(chans) != C {
				t.Fatalf("%s: pages [%d,%d) hit %d of %d channels", cfg.Name, first, first+C, len(chans), C)
			}
			// A window aligned to a die row fills one die per channel;
			// an unaligned one straddles two rows, still P pages a channel.
			if first%(C*P) == 0 {
				if len(dies) != C {
					t.Fatalf("%s: pages [%d,%d) hit %d dies, want one per channel (%d)", cfg.Name, first, first+C*P, len(dies), C)
				}
				for die, n := range dies {
					if n != P {
						t.Fatalf("%s: die %d holds %d of the window's pages, want %d", cfg.Name, die, n, P)
					}
				}
			}
		}

		for _, n := range []int{2, 4} {
			ref := g
			ref.Channels = n * C
			global := Region{StartStripe: 1, PageCount: n * r.PageCount}
			for gp := 0; gp < global.PageCount; gp++ {
				s := gp % n
				local, err := r.AddressOf(g, gp/n)
				if err != nil {
					t.Fatal(err)
				}
				want, err := global.AddressOf(ref, gp)
				if err != nil {
					t.Fatal(err)
				}
				local.Channel = n*local.Channel + s
				if local != want {
					t.Fatalf("%s: global page %d on shard %d of %d is %v on the reference, shard-mapped %v",
						cfg.Name, gp, s, n, want, local)
				}
			}
		}
	}
}
