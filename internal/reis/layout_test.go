package reis

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
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
	if wear.CompactedRows != 1 || wear.copiedEntries != len(survivors) || wear.pagesProgrammed != 1 {
		t.Fatalf("compaction of the tail row: %+v", wear)
	}
	if got := e.SSD.Dev.Stats.PagePrograms.Load() - programsBefore; got != 1 {
		t.Fatalf("device programmed %d pages, want the survivors' one", got)
	}
	if m.rowPhys[row] >= 0 || m.tailSlots != rowEnd+len(survivors) {
		t.Fatalf("after the step: row on physical row %d, tail %d, want it reclaimed and tail %d", m.rowPhys[row], m.tailSlots, rowEnd+len(survivors))
	}
	if last := m.flatPlan[len(m.flatPlan)-1]; last != (slotRange{First: rowEnd, Last: rowEnd + len(survivors) - 1}) {
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

// TestSeededPostingLists pins the scan plan as a deploy lays it down and
// an append extends it, read back from flash, for a flat deploy and an
// IVF deploy of testData whose middle cluster has no members, on 1 and 2
// devices. A flat database's plan is its brute-force plan, one list:
//   - each cluster's posting list is one range starting on a page
//     boundary whose slots hold exactly the cluster's members, ascending,
//     and the rest of its last page, up to the region's tail, is padding;
//   - the empty cluster's list is empty;
//   - every slot of the last binary page past the tail holds a padding
//     record, as an append's last page does;
//   - the deploy moved (binary + centroid pages) × (page + OOB bytes) and
//     (INT8 + document pages) × page bytes into the dies: the INT8 and
//     document pages carry no OOB;
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
	for _, ivf := range []bool{false, true} {
		for _, n := range []int{1, 2} {
			name := fmt.Sprintf("flat/%d", n)
			if ivf {
				name = fmt.Sprintf("ivf/%d", n)
			}
			t.Run(name, func(t *testing.T) {
				h, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { h.Close() })
				cfg := DeployConfig{ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256}
				op, clusters := OpcodeDBDeploy, 1
				if ivf {
					cfg.Centroids, cfg.Assign = cents, assign
					op, clusters = OpcodeIVFDeploy, nlist+1
				}
				mustSubmit(t, h, HostCommand{Opcode: op, Deploy: &cfg})
				checkSeededPlan(t, &h.hostCore, clusters, assign, empty)
			})
		}
	}
}

// checkSeededPlan is TestSeededPostingLists on one deployed host: clusters
// posting lists (1: a flat database's brute-force plan) under the IVF
// assignment assign, cluster empty among them without members.
func checkSeededPlan(t *testing.T, h *hostCore, clusters int, assign []int, empty int) {
	t.Helper()
	db, _ := h.hostDB(1)
	lay, per := db.lay, db.lay.embPerPage
	lists := func() [][]slotRange {
		if lay.flat() {
			return [][]slotRange{db.mut.flatPlan}
		}
		return db.mut.buckets
	}
	clusterOf := func(i int) int {
		if lay.flat() {
			return 0
		}
		return assign[i]
	}
	// slots reads the records of slots [first, last] back from flash:
	// each entry's id, -1 for padding.
	slots := func(first, last int) []int {
		var ids []int
		for pos := first; pos <= last; pos++ {
			_, oob, err := h.readPage(db, embRegion, pos/per, nil, nil)
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
	members := make([][]int, clusters)
	for id := range testData.Vectors {
		members[clusterOf(id)] = append(members[clusterOf(id)], id)
	}
	deployed := lists()
	if len(deployed) != clusters {
		t.Fatalf("%d posting lists for %d clusters", len(deployed), clusters)
	}
	deployed = slices.Clone(deployed)
	for c, list := range deployed {
		deployed[c] = slices.Clone(list)
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
	tail := db.mut.tailSlots
	if tail%per == 0 {
		t.Fatalf("the deploy's tail %d ends its last page; the case wants padding past it", tail)
	}
	lastPage := tail / per
	for s, id := range slots(lastPage*per, lastPage*per+per-1) {
		if live := s < tail%per; live != (id >= 0) {
			t.Fatalf("last binary page %d, slot %d (tail at slot %d): id %d", lastPage, s, tail%per, id)
		}
	}
	var in int64
	for _, d := range h.devs {
		for ch := range d.SSD.Dev.Stats.BytesIn {
			in += d.SSD.Dev.Stats.BytesIn[ch].Load()
		}
	}
	want := int64(lay.embPages+lay.centPages)*int64(lay.pageBytes+lay.oobBytes) +
		int64(lay.int8Pages+lay.docPages)*int64(lay.pageBytes)
	if in != want {
		t.Fatalf("the deploy moved %d B into the dies, want %d", in, want)
	}

	// One append over two clusters, the empty one among them.
	add := []int{1, empty, 1, 6, 1}
	cmd := &AppendConfig{Vectors: testData.Queries[:len(add)], Docs: testData.Docs[:len(add)]}
	if !lay.flat() {
		cmd.Assign = add
	} else {
		add = make([]int, len(add))
	}
	ids := mustSubmit(t, h, HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: cmd}).AppendedIDs
	for _, c := range slices.Compact(slices.Sorted(slices.Values(add))) {
		var want []int
		for i, ac := range add {
			if ac == c {
				want = append(want, ids[i])
			}
		}
		list := lists()[c]
		if len(list) != min(len(members[c]), 1)+1 || (len(members[c]) > 0 && list[0] != deployed[c][0]) {
			t.Fatalf("cluster %d after the append: posting list %+v, was %+v", c, list, deployed[c])
		}
		last := list[len(list)-1]
		if got := slots(last.First, last.Last); !slices.Equal(got, want) {
			t.Fatalf("cluster %d: appended run %+v holds %v, want %v", c, last, got, want)
		}
	}
}

// TestRerankCopiesFollowPlacement pins where the INT8 rerank copies and
// the documents live. Deploy and append place both in the binary
// region's placement order without its padding, and the RADR a binary
// slot carries is its copy's slot; DADR stays the id, and the document
// slot is found from the RADR (mutState.docSlot). After every step of a
// deploy, two appends spanning several clusters, a delete and a
// compaction, on 1, 2 and 4 devices, flat and IVF:
//   - every entry slot's RADR resolves to the INT8 record of its own
//     vector, Int8Quantize(vectors[DADR]), and its document slot to its
//     own id's document;
//   - until a compaction relocates entries, RADRs ascend in placement
//     order and each batch's copies are one gap-free run — the deploy's
//     from slot 0, where a flat database's RADR is its DADR — and so are
//     its document slots, ascending with the RADRs;
//   - on a flat database every document slot is the id;
//   - after a compaction, RADRs still ascend within every range of every
//     posting list (a relocated run keeps its entries' copies and
//     documents where they were);
//   - every result of a search carries its own id's document.
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
			vecOf, docOf := map[uint32][]float32{}, map[uint32][]byte{}
			check := func(step string, batch []int, relocated bool) {
				t.Helper()
				db, _ := h.hostDB(1)
				f := &db.lay.pageFormat
				links := readPlacement(t, &h.hostCore, db)
				recs, docPages := map[int][]byte{}, map[int][]byte{}
				var q8 []int8
				inBatch := map[uint32]bool{}
				for _, id := range batch {
					inBatch[uint32(id)] = true
				}
				slotDoc := func(id uint32) []byte {
					want := make([]byte, f.docBytes)
					copy(want, docOf[id])
					return want
				}
				var run, runDocs []int
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
					d := db.mut.docSlot(l.radr)
					page, slot = d/f.docsPerPage, d%f.docsPerPage
					if docPages[page] == nil {
						data, _, err := h.readPage(db, docRegion, page, nil, nil)
						if err != nil {
							t.Fatalf("%s %s: document page %d: %v", name, step, page, err)
						}
						docPages[page] = data
					}
					if got := docPages[page][slot*f.docBytes : (slot+1)*f.docBytes]; !bytes.Equal(got, slotDoc(l.dadr)) {
						t.Fatalf("%s %s: slot %d (id %d, RADR %d) locates document slot %d, which holds another document", name, step, l.pos, l.dadr, l.radr, d)
					}
					if inBatch[l.dadr] {
						run, runDocs = append(run, int(l.radr)), append(runDocs, d)
					}
					if !ivf && int(l.dadr) < nb && l.radr != l.dadr {
						t.Fatalf("%s %s: flat deployed id %d links RADR %d", name, step, l.dadr, l.radr)
					}
					if !ivf && d != int(l.dadr) {
						t.Fatalf("%s %s: flat id %d has its document in slot %d", name, step, l.dadr, d)
					}
				}
				if len(run) != len(batch) {
					t.Fatalf("%s %s: %d of the batch's %d entries found", name, step, len(run), len(batch))
				}
				for i, r := range run {
					if r != run[0]+i || (step == "deploy" && run[0] != 0) {
						t.Fatalf("%s %s: the batch's copies are not one run from its first slot: %v", name, step, run)
					}
					if runDocs[i] != runDocs[0]+i || (step == "deploy" && runDocs[0] != 0) {
						t.Fatalf("%s %s: the batch's document slots do not ascend with its RADRs %v: %v", name, step, run, runDocs)
					}
				}
				op, opt := OpcodeSearch, SearchOptions{}
				if ivf {
					op, opt = OpcodeIVFSearch, SearchOptions{NProbe: 4}
				}
				res, _ := search(t, h, op, 1, testData.Queries, 10, opt)
				for qi, rs := range res {
					for _, r := range rs {
						if !bytes.Equal(r.Doc, slotDoc(uint32(r.ID))) {
							t.Fatalf("%s %s: query %d's result %d carries another document", name, step, qi, r.ID)
						}
					}
				}
				if !relocated {
					return
				}
				plans := db.mut.buckets
				if !ivf {
					plans = [][]slotRange{db.mut.flatPlan}
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
				vecOf[uint32(i)], docOf[uint32(i)] = v, c.baseDocs[i]
			}
			check("deploy", ids, false)
			appendBatch := func(step string, vecs [][]float32, docs [][]byte, assign []int) []int {
				ids := mustSubmit(t, h, HostCommand{Opcode: OpcodeAppend, DBID: 1,
					Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}}).AppendedIDs
				for i, id := range ids {
					vecOf[uint32(id)], docOf[uint32(id)] = vecs[i], docs[i]
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
			if wear.copiedEntries == 0 {
				t.Fatalf("%s: the compaction relocated nothing: %+v", name, wear)
			}
			check("compact", nil, true)
		}
	}
}

// benchShapeSearch deploys the benchmark-shaped corpus (benchShape) and
// serves its 64 queries as one nprobe-8 command of k 10.
func benchShapeSearch(t *testing.T, skipDocs bool) (*dataset.Dataset, HostResponse) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds an 8192-vector corpus")
	}
	data, cents, assign, cfg := benchShape()
	e, err := New(cfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployOn(t, e, OpcodeIVFDeploy, DeployConfig{ID: 1, Vectors: data.Vectors, Docs: data.Docs,
		DocSlotBytes: 512, Centroids: cents, Assign: assign})
	return data, mustSubmit(t, e, HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: data.Queries, K: 10,
		Opt: SearchOptions{NProbe: 8, SkipDocs: skipDocs}})
}

// TestRerankPagesOnBenchmarkShape measures what the INT8 placement is
// for: on the benchmark-shaped corpus (benchShapeSearch) an nprobe-8
// query's 100 rerank candidates come from a few clusters, so their
// copies share a few TLC pages. In id order they spread over ~70 of the
// region's 128.
func TestRerankPagesOnBenchmarkShape(t *testing.T) {
	_, resp := benchShapeSearch(t, true)
	pages, cands := 0, 0
	for _, st := range resp.QueryStats {
		pages += st.RerankPages
		cands += st.RerankCount
	}
	n := len(resp.QueryStats)
	mean := float64(pages) / float64(n)
	t.Logf("%d queries: %.2f rerank pages and %.1f candidates per query", n, mean, float64(cands)/float64(n))
	if cands != 100*n {
		t.Fatalf("%d rerank candidates over %d queries, want 100 each", cands, n)
	}
	if mean > 10 {
		t.Fatalf("%.2f rerank pages per query, want at most 10", mean)
	}
}

// TestDocPagesOnBenchmarkShape measures what the document placement is
// for: the same query's 10 results come from the clusters its candidates
// do, and their documents sit where their INT8 copies do, so they share
// a few of the 256 document pages (32 documents a page) — ~4.4 a query,
// where id order read ~9.8. Every result carries its own document.
func TestDocPagesOnBenchmarkShape(t *testing.T) {
	data, resp := benchShapeSearch(t, false)
	pages := 0
	for qi, st := range resp.QueryStats {
		pages += st.DocPages
		for _, r := range resp.Results[qi] {
			if !bytes.Equal(r.Doc[:len(data.Docs[r.ID])], data.Docs[r.ID]) {
				t.Fatalf("query %d: result %d carries another document", qi, r.ID)
			}
		}
	}
	mean := float64(pages) / float64(len(resp.QueryStats))
	t.Logf("%d queries: %.2f document pages per query", len(resp.QueryStats), mean)
	if mean > 5 {
		t.Fatalf("%.2f document pages per query, want at most 5", mean)
	}
}
