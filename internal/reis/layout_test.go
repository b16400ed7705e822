package reis

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPageCodecRoundTrip is the page format's property test: whatever
// slots a page is rendered from — entries with arbitrary linkage and
// tags, padding, a run that starts mid-region and ends partway through
// its last page — parsing the rendered (data, OOB) pair gives every slot
// back, and nothing else.
func TestPageCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 200; iter++ {
		f := &pageFormat{slotBytes: 8 * (1 + rng.Intn(8)), embPerPage: 1 + rng.Intn(40)}
		f.pageBytes = f.embPerPage*f.slotBytes + rng.Intn(64)
		f.oobBytes = f.embPerPage*oobBytesPerSlot + rng.Intn(16)
		// A region of a few pages whose slots are entries or padding; the
		// last page is partial: positions past n render as padding too.
		pages := 1 + rng.Intn(4)
		n := (pages-1)*f.embPerPage + 1 + rng.Intn(f.embPerPage)
		slots := make([]*slotEntry, n)
		for pos := range slots {
			if rng.Intn(4) == 0 {
				continue // padding
			}
			e := &slotEntry{code: make([]byte, f.slotBytes)}
			rng.Read(e.code)
			// Any DADR but the padding marker — often its neighbour.
			e.slotLink = slotLink{dadr: rng.Uint32(), radr: rng.Uint32(), tag: uint8(rng.Intn(256))}
			if e.dadr == InvalidDADR || rng.Intn(8) == 0 {
				e.dadr = InvalidDADR - 1
			}
			slots[pos] = e
		}
		at := func(pos int, code []byte) (slotLink, bool) {
			if pos >= n || slots[pos] == nil {
				return slotLink{}, false
			}
			copy(code, slots[pos].code)
			return slots[pos].slotLink, true
		}
		page, oob := make([]byte, f.pageBytes), make([]byte, f.oobBytes)
		rng.Read(page) // a reused buffer: stale bytes must not leak through
		rng.Read(oob)
		for g := 0; g < pages; g++ {
			f.renderBin(page, oob, g, at)
			for s := 0; s < f.embPerPage; s++ {
				pos := g*f.embPerPage + s
				l, ok := parseLink(oob, s)
				if pos >= n || slots[pos] == nil {
					if ok || l.dadr != InvalidDADR || !bytes.Equal(f.code(page, s), make([]byte, f.slotBytes)) {
						t.Fatalf("iter %d: padding slot %d parsed as %+v ok=%v code=%x", iter, pos, l, ok, f.code(page, s))
					}
					continue
				}
				if !ok || l != slots[pos].slotLink || !bytes.Equal(f.code(page, s), slots[pos].code) {
					t.Fatalf("iter %d: slot %d parsed as %+v ok=%v, rendered from %+v", iter, pos, l, ok, slots[pos].slotLink)
				}
			}
			if tail := page[f.embPerPage*f.slotBytes:]; !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("iter %d: page bytes past the last slot not zeroed", iter)
			}
		}
	}
}

// TestPageBytesIdenticalAcrossTopologies: after deploy, appends, deletes
// and a compaction, global page g of every region — read from the device
// that owns it on 2 and 4 devices — equals page g of the single-device
// reference, data and OOB. Results-level equivalence cannot see this for
// padding slots and never-scanned bytes; the one renderer and one
// owner-routed writer guarantee it for all of them.
func TestPageBytesIdenticalAcrossTopologies(t *testing.T) {
	c := newMutCorpus()
	regions := []struct {
		name string
		of   regionOf
	}{{"embedding", embRegion}, {"centroid", centRegion}, {"INT8", int8Region}, {"document", docRegion}}
	for _, n := range []int{2, 4} {
		single, err := New(mutRefCfg(n), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { single.Close() })
		runMutScript(t, single, c, true, 0.9)
		sh, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		runMutScript(t, sh, c, true, 0.9)
		ref, _ := single.hostDB(1)
		got, _ := sh.hostDB(1)
		for _, r := range regions {
			pages, sum := r.of(ref.locals[0]).Pages(), 0
			for _, local := range got.locals {
				sum += r.of(local).Pages()
			}
			if pages == 0 || sum != pages {
				t.Fatalf("shards=%d: %s region holds %d pages over the devices, reference %d", n, r.name, sum, pages)
			}
			compared := 0
			for g := 0; g < pages; g++ {
				wantData, wantOOB, wantErr := single.readPage(ref, r.of, g, nil, nil)
				gotData, gotOOB, gotErr := sh.readPage(got, r.of, g, nil, nil)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("shards=%d: %s page %d: reference read error %v, sharded %v", n, r.name, g, wantErr, gotErr)
				}
				if wantErr != nil {
					continue // a reclaimed GC row: unmapped on both
				}
				compared++
				if !bytes.Equal(gotData, wantData) || !bytes.Equal(gotOOB, wantOOB) {
					t.Fatalf("shards=%d: %s page %d differs from the reference's (data equal: %v, OOB equal: %v)",
						n, r.name, g, bytes.Equal(gotData, wantData), bytes.Equal(gotOOB, wantOOB))
				}
			}
			if compared == 0 {
				t.Fatalf("shards=%d: no %s page was readable", n, r.name)
			}
		}
	}
}

// TestGCOfTailRowProgramsPastIt drives one copy-forward step whose victim
// is the row the region's tail sits in, through the allocator appends
// share: the survivors must land on the first page past the victim row —
// nothing is programmed into the row about to be erased — and the next
// append must continue from there, not into the erased row.
func TestGCOfTailRowProgramsPastIt(t *testing.T) {
	e, err := New(gcRefCfg(1), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	const n = 100
	deployOn(t, e, OpcodeDBDeploy, DeployConfig{ID: 1, Vectors: testData.Vectors[:n], Docs: testData.Docs[:n], DocSlotBytes: 256})
	db, _ := e.hostDB(1)
	m := db.mut
	slotsPerRow := m.lay.embPerPage * m.lay.rowPages
	row := m.rowOf(m.tailSlots)
	rowFirst, rowEnd := row*slotsPerRow, (row+1)*slotsPerRow
	if row == 0 || m.tailSlots == rowFirst || m.rowOf(n-1) != row {
		t.Fatalf("layout does not leave the tail inside a partly filled row: tail %d, %d slots per row", m.tailSlots, slotsPerRow)
	}
	// Tombstone all of the tail row's entries but three.
	var del []int
	survivors := map[int]bool{rowFirst: true, rowFirst + 1: true, n - 1: true}
	for id := rowFirst; id < n; id++ {
		if !survivors[id] {
			del = append(del, id)
		}
	}
	mustSubmit(t, e, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: del}})
	programsBefore := e.SSD.Dev.Stats.PagePrograms.Load()
	wear := mustSubmit(t, e, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.5}}).Wear
	if wear.CompactedRows != 1 || wear.CopiedEntries != len(survivors) || wear.PagesProgrammed != 1 {
		t.Fatalf("compaction of the tail row: %+v", wear)
	}
	if got := e.SSD.Dev.Stats.PagePrograms.Load() - programsBefore; got != 1 {
		t.Fatalf("device programmed %d pages, want the survivors' one", got)
	}
	if !m.rowGone[row] || m.tailSlots != rowEnd+len(survivors) {
		t.Fatalf("after the step: row gone %v, tail %d, want tail %d", m.rowGone[row], m.tailSlots, rowEnd+len(survivors))
	}
	if last := m.flatPlan[len(m.flatPlan)-1]; last != (SlotRange{First: rowEnd, Last: rowEnd + len(survivors) - 1}) {
		t.Fatalf("relocated run %+v, want it to start the row after the victim (%d)", last, rowEnd)
	}
	for id := range survivors {
		if pos := int(m.posOf[id]); pos < rowEnd {
			t.Fatalf("survivor %d relocated to slot %d, inside or before the erased row [%d, %d)", id, pos, rowFirst, rowEnd)
		}
	}
	// The survivors' page is the first of the next row and parses back to
	// exactly them; the victim row no longer resolves.
	data, oob, err := e.readPage(db, embRegion, rowEnd/m.lay.embPerPage, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.lay.embPerPage; s++ {
		l, ok := parseLink(oob, s)
		if ok != (s < len(survivors)) || (ok && !survivors[int(l.dadr)]) {
			t.Fatalf("slot %d of the relocated page: %+v ok=%v", s, l, ok)
		}
		if !ok && !bytes.Equal(m.lay.code(data, s), make([]byte, m.lay.slotBytes)) {
			t.Fatalf("padding slot %d carries a code", s)
		}
	}
	if _, _, err := e.readPage(db, embRegion, rowFirst/m.lay.embPerPage, nil, nil); err == nil {
		t.Fatal("a page of the reclaimed row still resolves")
	}
	// Survivors stay retrievable, and an append lands after them.
	for id := range survivors {
		res, _ := searchOne(t, e, OpcodeSearch, 1, testData.Vectors[id], 1, SearchOptions{})
		if len(res) != 1 || res[0].ID != id {
			t.Fatalf("survivor %d after the step: %+v", id, res)
		}
	}
	ids := mustSubmit(t, e, HostCommand{Opcode: OpcodeAppend, DBID: 1,
		Append: &AppendConfig{Vectors: testData.Vectors[n : n+2], Docs: testData.Docs[n : n+2]}}).AppendedIDs
	if pos := int(m.posOf[ids[0]]); pos != alignUp(rowEnd+len(survivors), m.lay.embPerPage) {
		t.Fatalf("append after the step placed at slot %d", pos)
	}
}
