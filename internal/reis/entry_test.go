package reis

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// TestTTLEntrySize pins the in-memory TTL entry at the wire's address
// widths: 4-byte distance, position, DADR and RADR. Every survivor of a
// scan is held in this form by its die worker's arena, copied by the fold
// and swapped by the tail's quickselect, so a wider field doubles all
// three; widening one has to be a deliberate choice, made here.
func TestTTLEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(ttlEntry{}); got != 16 {
		t.Fatalf("ttlEntry is %d bytes, want 16", got)
	}
}

// TestPlacementRefusesPositionsPastInt32: a binary slot position is held
// as an int32, so a deploy whose placement runs past 2^31 positions is
// refused with ssd.ErrRegionFull by planLayout, before any region is
// reserved. The test builds that placement from geometry alone — pages
// of 2^30 slots, so an IVF deploy's third cluster, padded to a fresh
// page, starts at 2^31 — and only plans it: planning counts positions
// and sizes nothing by them, so two clusters plan into two pages. What
// is bounded is the positions placed, not the capacity reserved: a few
// vectors on blocks long enough that the headroom alone spans more than
// 2^31 positions plan as before.
func TestPlacementRefusesPositionsPastInt32(t *testing.T) {
	const perPage = 1 << 30
	geo := testCfg().Geo
	geo.PageBytes, geo.OOBBytes = perPage*vecmath.WordsPerVector(testData.Dim)*8, perPage*oobBytesPerSlot
	vecs := testData.Vectors[:6]
	ivf := func(clusters int) DeployConfig {
		d := DeployConfig{ID: 1, Vectors: vecs, Docs: testData.Docs[:6], DocSlotBytes: 256,
			Centroids: vecs[:clusters], Assign: make([]int, len(vecs))}
		for i := range d.Assign {
			d.Assign[i] = i % clusters
		}
		return d
	}
	// Two clusters place up to 2^30 + 3 positions, which fit.
	two := ivf(2)
	if end := placedSlots(&two, perPage); end != perPage+3 || checkSlotPositions(end) != nil {
		t.Fatalf("two clusters place %d positions (want %d): %v", end, perPage+3, checkSlotPositions(end))
	}
	lo, err := planLayout(&two, geo, 0)
	if err != nil {
		t.Fatalf("two clusters (positions up to 2^30 + 3): %v", err)
	}
	if lo.embPages != 2 {
		t.Fatalf("two clusters plan %d binary pages, want 2", lo.embPages)
	}
	three := ivf(3)
	if end := placedSlots(&three, perPage); end != maxSlotPositions+2 {
		t.Fatalf("three clusters place %d positions, want 2^31 + 2", end)
	}
	lo, err = planLayout(&three, geo, 0)
	if !errors.Is(err, ssd.ErrRegionFull) || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("three clusters (positions up to 2^31 + 2): %v", err)
	}
	if lo != nil {
		t.Fatal("refused placement returned a layout")
	}

	geo = testCfg().Geo
	geo.PagesPerBlock = math.MaxInt32 / geo.Planes()
	d := DeployConfig{ID: 1, Vectors: testData.Vectors[:64], Docs: testData.Docs[:64], DocSlotBytes: 256}
	lo, err = planLayout(&d, geo, 100)
	if err != nil {
		t.Fatalf("64 vectors on blocks of %d pages: %v", geo.PagesPerBlock, err)
	}
	if n := int64(lo.embCap) * int64(lo.embPerPage); n <= maxSlotPositions {
		t.Fatalf("reserved %d positions; the case wants more than 2^31", n)
	}
}

// TestTailRefusesPositionsPastInt32: logical positions keep growing
// after deploy — appends and copy-forward take fresh page-aligned runs
// from the tail while GC recycles physical rows — so the tail allocator
// refuses a run that would end past 2^31 positions, and the refused
// append changes nothing. The tail is moved next to the bound rather
// than grown there: an append of k items whose run ends exactly at 2^31
// passes the position check (the row gate then refuses it, as this
// deploy has no rows that far), and one item more does not.
func TestTailRefusesPositionsPastInt32(t *testing.T) {
	cfg := testCfg()
	cfg.OverprovisionPct = 50
	e, err := New(cfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployFlat(t, e, 1)
	db, _ := e.hostDB(1)
	per := db.lay.embPerPage
	tail := (maxSlotPositions - 1) / per * per
	k := maxSlotPositions - tail
	db.mut.tailSlots = tail
	before, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	appendN := func(n int) error {
		_, err := e.Submit(HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: testData.Vectors[:n], Docs: testData.Docs[:n]}})
		return err
	}
	if err := appendN(k); !errors.Is(err, ssd.ErrRegionFull) || strings.Contains(err.Error(), "2^31") {
		t.Fatalf("append of %d items ending at slot 2^31: %v, want the row gate's refusal", k, err)
	}
	if err := appendN(k + 1); !errors.Is(err, ssd.ErrRegionFull) || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("append of %d items ending past slot 2^31: %v", k+1, err)
	}
	if db.mut.tailSlots != tail {
		t.Fatalf("refused appends moved the tail from %d to %d", tail, db.mut.tailSlots)
	}
	after, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	if !reflect.DeepEqual(before, after) {
		t.Fatal("refused appends changed search results")
	}
}

// arenaBudget bounds the bytes the die workers' entry arenas hold, over
// all four devices, after TestArenaBytes's command: they read 8,912 B
// with 16-byte entries (557 entries of capacity), and 17,824 B at the 32
// bytes an entry took with int-wide fields and its tag.
const arenaBudget = 10 << 10

// TestArenaBytes: after one flat 8-query command on a 4-device host, the
// die workers' arenas — every survivor of the scan, held between the die
// and the fold — stay within arenaBudget, so a wider entry or an arena
// kept per something new shows here.
func TestArenaBytes(t *testing.T) {
	sh := newSharded(t, 4)
	deployBoth(t, sh.Submit)
	resp := mustSubmit(t, sh, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:8], K: 10})
	resp.Release()
	held := 0
	for _, d := range sh.devs {
		for _, sc := range d.pool.scratch {
			for _, a := range sc.arenas {
				held += cap(a) * int(unsafe.Sizeof(ttlEntry{}))
			}
		}
	}
	t.Logf("die arenas hold %d B after one flat 8-query command on 4 devices", held)
	if held > arenaBudget {
		t.Fatalf("die arenas hold %d B, budget %d B", held, arenaBudget)
	}
}
