package reis

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"reis/internal/ann"
	"reis/internal/flash"
)

// TestEngineMatchesHostReference cross-validates the in-storage
// pipeline against the host-side reference implementation of the same
// algorithm (ann.BinaryFlat: BQ Hamming scan + INT8 rerank). With
// distance filtering off, both compute the same function, so their
// top-k sets must agree almost exactly (small divergence allowed at
// the rerank-pool boundary where equal Hamming distances tie-break
// differently). The scan senses SLC-ESP pages only — the die refuses a
// sense of any other cell mode, so a scan of one would fail the search —
// and the INT8 rerank reads TLC pages through the controller's ECC.
func TestEngineMatchesHostReference(t *testing.T) {
	opts := AllOptions()
	opts.DistanceFilter = false
	e := newEngine(t, opts)
	deployFlat(t, e, 1)
	ref := ann.NewBinaryFlat(testData.Vectors)

	for qi, q := range testData.Queries {
		engineRes, _ := searchOne(t, e, OpcodeSearch, 1, q, 10, SearchOptions{SkipDocs: true})
		hostRes := ref.Search(q, 10)
		hostIDs := make(map[int]bool, len(hostRes))
		for _, r := range hostRes {
			hostIDs[r.ID] = true
		}
		match := 0
		for _, r := range engineRes {
			if hostIDs[r.ID] {
				match++
			}
		}
		if match < 9 {
			t.Fatalf("query %d: engine and host reference agree on only %d/10", qi, match)
		}
	}
	reads := &e.SSD.Dev.Stats.PageReadsByMode
	if esp, slc, tlc := reads[flash.ModeSLCESP].Load(), reads[flash.ModeSLC].Load(), reads[flash.ModeTLC].Load(); esp == 0 || slc != 0 || tlc == 0 {
		t.Fatalf("page reads by mode: SLC-ESP %d, SLC %d, TLC %d; want scan senses and rerank reads only", esp, slc, tlc)
	}
}

func TestEngineTopResultIsPlausible(t *testing.T) {
	// The engine's top hit should be the true nearest neighbor for the
	// vast majority of queries (BQ+rerank top-1 accuracy).
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	hits := 0
	for qi, q := range testData.Queries {
		res, _ := searchOne(t, e, OpcodeSearch, 1, q, 1, SearchOptions{SkipDocs: true})
		if len(res) > 0 && res[0].ID == testData.GroundTruth[qi][0] {
			hits++
		}
	}
	if hits*10 < len(testData.Queries)*7 {
		t.Fatalf("top-1 hit rate %d/%d too low", hits, len(testData.Queries))
	}
}

func TestSearchResultProperties(t *testing.T) {
	// Property-based: for random k and query index, results are
	// sorted, unique, within range, and at most k long.
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	f := func(rawQ, rawK uint8) bool {
		q := testData.Queries[int(rawQ)%len(testData.Queries)]
		k := 1 + int(rawK)%20
		res, _ := searchOne(t, e, OpcodeSearch, 1, q, k, SearchOptions{SkipDocs: true})
		if len(res) > k {
			return false
		}
		seen := map[int]bool{}
		for i, r := range res {
			if r.ID < 0 || r.ID >= testData.Len() || seen[r.ID] {
				return false
			}
			seen[r.ID] = true
			if i > 0 && res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIVFStatsScanLessThanBF(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	_, bfStats := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{SkipDocs: true})
	_, ivfStats := searchOne(t, e, OpcodeIVFSearch, 1, testData.Queries[0], 10, SearchOptions{NProbe: 2, SkipDocs: true})
	if ivfStats.EntriesScanned >= bfStats.EntriesScanned {
		t.Fatalf("IVF scanned %d >= BF %d", ivfStats.EntriesScanned, bfStats.EntriesScanned)
	}
	if ivfStats.FinePages >= bfStats.FinePages {
		t.Fatalf("IVF pages %d >= BF pages %d", ivfStats.FinePages, bfStats.FinePages)
	}
}

func TestRepeatedSearchesDeterministic(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	a, _ := searchOne(t, e, OpcodeIVFSearch, 1, testData.Queries[3], 10, SearchOptions{NProbe: 4, SkipDocs: true})
	b, _ := searchOne(t, e, OpcodeIVFSearch, 1, testData.Queries[3], 10, SearchOptions{NProbe: 4, SkipDocs: true})
	if len(a) != len(b) {
		t.Fatal("result lengths differ across runs")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			t.Fatalf("result %d differs across identical searches", i)
		}
	}
}

// TestDocumentReadsGoThroughController: the documents a search returns
// are read from TLC pages through the controller's ECC, never sensed into
// a latch. The same query on two fresh engines, with documents and with
// SkipDocs, senses the same SLC-ESP pages, reads no SLC page, and reads
// strictly more TLC pages when it fetches documents than its INT8 rerank
// alone does.
func TestDocumentReadsGoThroughController(t *testing.T) {
	var reads [2][3]int64 // [SkipDocs][SLC-ESP, SLC, TLC]
	for i, skip := range []bool{false, true} {
		e := newEngine(t, AllOptions())
		deployFlat(t, e, 1)
		e.SSD.Dev.ResetStats()
		res, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[3], 10, SearchOptions{SkipDocs: skip})
		for _, r := range res {
			if (r.Doc == nil) != skip {
				t.Fatalf("SkipDocs %v: result %d carries document %q", skip, r.ID, r.Doc)
			}
		}
		st := &e.SSD.Dev.Stats.PageReadsByMode
		reads[i] = [3]int64{st[flash.ModeSLCESP].Load(), st[flash.ModeSLC].Load(), st[flash.ModeTLC].Load()}
	}
	docs, skip := reads[0], reads[1]
	if docs[0] == 0 || docs[0] != skip[0] || docs[1] != 0 || skip[1] != 0 || skip[2] == 0 || docs[2] <= skip[2] {
		t.Fatalf("page reads [SLC-ESP SLC TLC] with documents %v, with SkipDocs %v", docs, skip)
	}
}

// TestSearchRefusesNonESPScan: a scan computes only on SLC-ESP pages. With
// the blocks of an IVF database's embedding or centroid region marked
// TLC, the die refuses the scan's senses and the search fails rather than
// computing on pages the latch would read without ECC; with the blocks
// marked SLC-ESP again, the same search returns what it did before.
func TestSearchRefusesNonESPScan(t *testing.T) {
	for _, region := range []string{"embeddings", "centroids"} {
		t.Run(region, func(t *testing.T) {
			e := newEngine(t, AllOptions())
			db := deployIVF(t, e, 1, 16)
			cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4}}
			want := mustSubmit(t, e, cmd).Results
			r := db.rec.Embeddings
			if region == "centroids" {
				r = db.rec.Centroids
			}
			mark := func(m flash.CellMode) {
				for p := 0; p < r.PageCount; p++ {
					a, err := r.AddressOf(e.SSD.Cfg.Geo, p)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.SSD.Dev.SetBlockMode(a, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			mark(flash.ModeTLC)
			if _, err := e.Submit(cmd); err == nil || !strings.Contains(err.Error(), "read through ECC") {
				t.Fatalf("search over TLC %s: error %v, want the die's refusal", region, err)
			}
			mark(flash.ModeSLCESP)
			if got := mustSubmit(t, e, cmd).Results; !reflect.DeepEqual(got, want) {
				t.Fatalf("search after the refusal returned other results")
			}
		})
	}
}
