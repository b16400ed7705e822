package reis

import (
	"testing"
	"testing/quick"

	"reis/internal/ann"
)

// TestEngineMatchesHostReference cross-validates the in-storage
// pipeline against the host-side reference implementation of the same
// algorithm (ann.BinaryFlat: BQ Hamming scan + INT8 rerank). With
// distance filtering off, both compute the same function, so their
// top-k sets must agree almost exactly (small divergence allowed at
// the rerank-pool boundary where equal Hamming distances tie-break
// differently).
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

func TestECCCorrectionsAccumulateOnTLCReads(t *testing.T) {
	// Rerank and document reads hit the TLC region through the
	// controller ECC path; the corrections counter must move while
	// returned data stays clean (verified by the doc-content tests).
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	e.SSD.Dev.ResetStats()
	for _, q := range testData.Queries[:8] {
		searchOne(t, e, OpcodeSearch, 1, q, 10, SearchOptions{})
	}
	if e.SSD.Dev.Stats.ECCCorrections.Load() == 0 {
		t.Fatal("no ECC corrections recorded on TLC reads")
	}
	if e.SSD.Dev.Stats.BitErrorsInjected.Load() == 0 {
		t.Fatal("no raw errors injected at all")
	}
}

func TestSLCScanInjectsNoErrors(t *testing.T) {
	// The binary-embedding scan must never see injected errors: the
	// whole point of the ESP partition (Sec 4.1.2).
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	e.SSD.Dev.ResetStats()
	searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{SkipDocs: true})
	// SkipDocs leaves only SLC scans plus TLC rerank reads; rerank
	// reads go through ECC, so any injected errors must equal the
	// corrected ones — none may have leaked into latch computation.
	injected := e.SSD.Dev.Stats.BitErrorsInjected.Load()
	corrected := e.SSD.Dev.Stats.ECCCorrections.Load()
	// A bit flipped twice in one read cancels physically, so the
	// correction count may trail the injection count by a handful.
	if injected-corrected > injected/50 {
		t.Fatalf("raw errors leaked into computation: injected %d, corrected %d",
			injected, corrected)
	}
}
