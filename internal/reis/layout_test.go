package reis

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/ssd"
	"reis/internal/vecmath"
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
			if e.dadr == invalidDADR || rng.Intn(8) == 0 {
				e.dadr = invalidDADR - 1
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
					if ok || l.dadr != invalidDADR || !bytes.Equal(f.code(page, s), make([]byte, f.slotBytes)) {
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

// TestGCOfTailRowProgramsPastIt drives one copy-forward step whose victim
// is the row the region's tail sits in, through the allocator appends
// share: the survivors must land on the first page past the victim row —
// nothing is programmed into the row about to be erased — and the next
// append must continue from there, not into the erased row.
func TestGCOfTailRowProgramsPastIt(t *testing.T) {
	e, err := New(gcTestCfg(), 64<<20, AllOptions())
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
	if m.rowPhys[row] >= 0 || m.tailSlots != rowEnd+len(survivors) {
		t.Fatalf("after the step: row on physical row %d, tail %d, want it reclaimed and tail %d", m.rowPhys[row], m.tailSlots, rowEnd+len(survivors))
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

// placedLink is one entry slot of the binary region as read back from
// flash: its position and its OOB record.
type placedLink struct {
	pos int
	slotLink
}

// readPlacement reads every entry slot the brute-force scan plan covers
// — the whole live binary region — from flash, in position order,
// skipping padding.
func readPlacement(t *testing.T, h *hostCore, db *rdbEntry) []placedLink {
	t.Helper()
	var out []placedLink
	page, oob := -1, []byte(nil)
	for _, sr := range db.mut.flatPlan {
		for pos := sr.First; pos <= sr.Last; pos++ {
			if g := pos / db.lay.embPerPage; g != page {
				var err error
				if _, oob, err = h.readPage(db, embRegion, g, nil, nil); err != nil {
					t.Fatalf("binary page %d: %v", g, err)
				}
				page = g
			}
			if l, ok := parseLink(oob, pos%db.lay.embPerPage); ok {
				out = append(out, placedLink{pos, l})
			}
		}
	}
	return out
}

// TestSeededPostingLists pins the R-IVF table as deploy seeds it and an
// append extends it, read back from flash. On an IVF deploy of testData
// whose middle cluster has no members:
//   - each cluster's posting list is one range starting on a page
//     boundary whose slots hold exactly the cluster's members, ascending,
//     and the rest of its last page, up to the region's tail, is padding;
//   - the empty cluster's list is empty;
//   - after one append, each appended run is the last range of its
//     cluster's list, after the deployed one, and holds exactly the ids
//     appended to that cluster.
func TestSeededPostingLists(t *testing.T) {
	const nlist, empty = 8, 4
	cents, assign := ann.KMeans(testData.Vectors, ann.KMeansConfig{K: nlist, Seed: 9})
	// Centroid `empty` is a copy of its neighbour that no entry is
	// assigned to: the clusters from it on move up by one.
	cents = slices.Insert(cents, empty, cents[empty])
	assign = slices.Clone(assign)
	for i, c := range assign {
		if c >= empty {
			assign[i] = c + 1
		}
	}
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployOn(t, e, OpcodeIVFDeploy, DeployConfig{
		ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
		Centroids: cents, Assign: assign,
	})
	db, _ := e.hostDB(1)
	per := db.lay.embPerPage
	// slots reads the records of slots [first, last] back from flash:
	// each entry's id, -1 for padding.
	slots := func(first, last int) []int {
		var ids []int
		for pos := first; pos <= last; pos++ {
			_, oob, err := e.readPage(db, embRegion, pos/per, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			id := -1
			if l, ok := parseLink(oob, pos%per); ok {
				id = int(l.dadr)
			}
			ids = append(ids, id)
		}
		return ids
	}
	members := make([][]int, nlist+1)
	for id, c := range assign {
		members[c] = append(members[c], id)
	}
	buckets := db.mut.buckets
	if len(buckets) != nlist+1 {
		t.Fatalf("%d posting lists for %d clusters", len(buckets), nlist+1)
	}
	for c, list := range buckets {
		if len(members[c]) == 0 {
			if len(list) != 0 {
				t.Fatalf("cluster %d has no members but posting list %+v", c, list)
			}
			continue
		}
		if len(list) != 1 || list[0].First%per != 0 {
			t.Fatalf("cluster %d: posting list %+v, want one page-aligned range", c, list)
		}
		sr := list[0]
		if got := slots(sr.First, sr.Last); !slices.Equal(got, members[c]) {
			t.Fatalf("cluster %d: range %+v holds %v, want its members %v", c, sr, got, members[c])
		}
		for _, id := range slots(sr.Last+1, min(alignUp(sr.Last+1, per), db.mut.tailSlots)-1) {
			if id >= 0 {
				t.Fatalf("cluster %d: entry %d shares the last page of range %+v", c, id, sr)
			}
		}
	}

	// One append over two clusters, the empty one among them.
	add := []int{1, empty, 1, 6, 1}
	ids := mustSubmit(t, e, HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{
		Vectors: testData.Queries[:len(add)], Docs: testData.Docs[:len(add)], Assign: add,
	}}).AppendedIDs
	for _, c := range []int{1, empty, 6} {
		var want []int
		for i, ac := range add {
			if ac == c {
				want = append(want, ids[i])
			}
		}
		list := db.mut.buckets[c]
		if len(list) != min(len(members[c]), 1)+1 || (len(members[c]) > 0 && list[0] != buckets[c][0]) {
			t.Fatalf("cluster %d after the append: posting list %+v, was %+v", c, list, buckets[c])
		}
		last := list[len(list)-1]
		if got := slots(last.First, last.Last); !slices.Equal(got, want) {
			t.Fatalf("cluster %d: appended run %+v holds %v, want %v", c, last, got, want)
		}
	}
}

// TestRerankCopiesFollowPlacement pins where the INT8 rerank copies
// live. Deploy and append place them in the binary region's placement
// order without its padding, and the RADR a binary slot carries is its
// copy's slot; DADR stays the id. After every step of a deploy, two
// appends spanning several clusters, a delete and a compaction, on 1, 2
// and 4 devices, flat and IVF:
//   - every entry slot's RADR resolves to the INT8 record of its own
//     vector, Int8Quantize(vectors[DADR]);
//   - until a compaction relocates entries, RADRs ascend in placement
//     order and each batch's copies are one gap-free run — the deploy's
//     from slot 0, where a flat database's RADR is its DADR;
//   - after it, RADRs still ascend within every range of every posting
//     list (a relocated run keeps its entries' copies where they were).
func TestRerankCopiesFollowPlacement(t *testing.T) {
	c := newMutCorpus()
	nb := len(c.base)
	spans := func(assign []int) int {
		seen := map[int]bool{}
		for _, a := range assign {
			seen[a] = true
		}
		return len(seen)
	}
	if a1, a2 := c.assign[nb:nb+len(c.batch1)], c.assign[nb+len(c.batch1):]; spans(a1) < 3 || spans(a2) < 3 {
		t.Fatalf("append batches span %d and %d clusters; the test needs several", spans(a1), spans(a2))
	}
	for _, ivf := range []bool{false, true} {
		for _, n := range shardCounts {
			name := fmt.Sprintf("flat/%d", n)
			if ivf {
				name = fmt.Sprintf("ivf/%d", n)
			}
			h, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.Close() })
			vecOf := map[uint32][]float32{}
			check := func(step string, batch []int, relocated bool) {
				t.Helper()
				db, _ := h.hostDB(1)
				f := &db.lay.pageFormat
				links := readPlacement(t, &h.hostCore, db)
				recs := map[int][]byte{}
				var q8 []int8
				inBatch := map[uint32]bool{}
				for _, id := range batch {
					inBatch[uint32(id)] = true
				}
				var run []uint32
				for i, l := range links {
					page, slot := int(l.radr)/f.int8PerPage, int(l.radr)%f.int8PerPage
					if recs[page] == nil {
						data, _, err := h.readPage(db, int8Region, page, nil, nil)
						if err != nil {
							t.Fatalf("%s %s: INT8 page %d: %v", name, step, page, err)
						}
						recs[page] = data
					}
					q8 = f.params.Int8Quantize(vecOf[l.dadr], q8)
					want := vecmath.PackInt8Bytes(q8, nil)
					if got := recs[page][slot*f.int8Bytes : (slot+1)*f.int8Bytes]; !bytes.Equal(got, want) {
						t.Fatalf("%s %s: slot %d (id %d) links RADR %d, which holds another record", name, step, l.pos, l.dadr, l.radr)
					}
					if !relocated && i > 0 && l.radr <= links[i-1].radr {
						t.Fatalf("%s %s: RADR %d at slot %d follows RADR %d in placement order", name, step, l.radr, l.pos, links[i-1].radr)
					}
					if inBatch[l.dadr] {
						run = append(run, l.radr)
					}
					if !ivf && int(l.dadr) < nb && l.radr != l.dadr {
						t.Fatalf("%s %s: flat deployed id %d links RADR %d", name, step, l.dadr, l.radr)
					}
				}
				if len(run) != len(batch) {
					t.Fatalf("%s %s: %d of the batch's %d entries found", name, step, len(run), len(batch))
				}
				for i, r := range run {
					if r != run[0]+uint32(i) || (step == "deploy" && run[0] != 0) {
						t.Fatalf("%s %s: the batch's copies are not one run from its first slot: %v", name, step, run)
					}
				}
				if !relocated {
					return
				}
				plans := db.mut.buckets
				if !ivf {
					plans = [][]SlotRange{db.mut.flatPlan}
				}
				at := map[int]uint32{}
				for _, l := range links {
					at[l.pos] = l.radr
				}
				for b, segs := range plans {
					for _, sr := range segs {
						prev, seen := uint32(0), false
						for pos := sr.First; pos <= sr.Last; pos++ {
							r, ok := at[pos]
							if !ok {
								continue
							}
							if seen && r <= prev {
								t.Fatalf("%s %s: bucket %d range %+v: RADR %d at slot %d follows %d", name, step, b, sr, r, pos, prev)
							}
							prev, seen = r, true
						}
					}
				}
			}

			deploy := DeployConfig{ID: 1, Vectors: c.base, Docs: c.baseDocs, DocSlotBytes: 256}
			op := OpcodeDBDeploy
			var a1, a2 []int
			if ivf {
				op = OpcodeIVFDeploy
				deploy.Centroids, deploy.Assign = c.cents, c.assign[:nb]
				a1, a2 = c.assign[nb:nb+len(c.batch1)], c.assign[nb+len(c.batch1):]
			}
			mustSubmit(t, h, HostCommand{Opcode: op, Deploy: &deploy})
			ids := make([]int, nb)
			for i, v := range c.base {
				ids[i] = i
				vecOf[uint32(i)] = v
			}
			check("deploy", ids, false)
			appendBatch := func(step string, vecs [][]float32, docs [][]byte, assign []int) []int {
				ids := mustSubmit(t, h, HostCommand{Opcode: OpcodeAppend, DBID: 1,
					Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}}).AppendedIDs
				for i, id := range ids {
					vecOf[uint32(id)] = vecs[i]
				}
				check(step, ids, false)
				return ids
			}
			ids1 := appendBatch("append 1", c.batch1, c.b1Docs, a1)
			var del []int
			for _, idx := range c.deleteIdx {
				if idx < nb {
					del = append(del, idx)
				} else {
					del = append(del, ids1[idx-nb])
				}
			}
			mustSubmit(t, h, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: del}})
			check("delete", nil, false)
			appendBatch("append 2", c.batch2, c.b2Docs, a2)
			wear := mustSubmit(t, h, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}).Wear
			if wear.CopiedEntries == 0 {
				t.Fatalf("%s: the compaction relocated nothing: %+v", name, wear)
			}
			check("compact", nil, true)
		}
	}
}

// TestRerankPagesOnBenchmarkShape measures what the INT8 placement is
// for: on a corpus of the repo benchmark's shape (N 8192, dim 256, 64
// clusters, one SSD1 with 16 KiB pages) an nprobe-8 query's 100 rerank
// candidates come from a few clusters, so their copies share a few TLC
// pages. In id order they spread over ~70 of the region's 128.
func TestRerankPagesOnBenchmarkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 8192-vector corpus")
	}
	data := dataset.Generate(dataset.Config{
		Name: "bench-shape", N: 8192, Dim: 256, Clusters: 64, Queries: 64, K: 10,
		DocBytes: 512, QueryNoise: 0.5, Seed: 3,
	})
	cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 64, Seed: 5, SampleLimit: 4096})
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	e, err := New(cfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployOn(t, e, OpcodeIVFDeploy, DeployConfig{ID: 1, Vectors: data.Vectors, Docs: data.Docs,
		DocSlotBytes: 512, Centroids: cents, Assign: assign})
	_, sts := search(t, e, OpcodeIVFSearch, 1, data.Queries, 10, SearchOptions{NProbe: 8, SkipDocs: true})
	pages, cands := 0, 0
	for _, st := range sts {
		pages += st.RerankPages
		cands += st.RerankCount
	}
	mean := float64(pages) / float64(len(sts))
	t.Logf("%d queries: %.2f rerank pages and %.1f candidates per query", len(sts), mean, float64(cands)/float64(len(sts)))
	if cands != 100*len(sts) {
		t.Fatalf("%d rerank candidates over %d queries, want 100 each", cands, len(sts))
	}
	if mean > 10 {
		t.Fatalf("%.2f rerank pages per query, want at most 10", mean)
	}
}
