package reis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestBoundTracker pins the tracker's conservative-threshold contract:
// zero until capacity live distances were seen, then the capacity-th
// smallest distance seen so far, monotonically non-increasing.
func TestBoundTracker(t *testing.T) {
	var tr boundTracker
	tr.capacity = 3
	if tr.bound() != 0 {
		t.Fatalf("empty tracker bound = %d, want 0", tr.bound())
	}
	tr.add(40)
	tr.add(10)
	if tr.bound() != 0 {
		t.Fatalf("underfull tracker bound = %d, want 0", tr.bound())
	}
	tr.add(25)
	if tr.bound() != 40 {
		t.Fatalf("bound = %d, want 40 (3rd smallest of {10,25,40})", tr.bound())
	}
	tr.add(50) // larger than current bound: no effect
	if tr.bound() != 40 {
		t.Fatalf("bound grew to %d after adding a larger distance", tr.bound())
	}
	tr.add(5)
	if tr.bound() != 25 {
		t.Fatalf("bound = %d, want 25 (3rd smallest of {5,10,25,40,50})", tr.bound())
	}
	tr.add(25) // duplicate of the bound itself
	if tr.bound() != 25 {
		t.Fatalf("bound = %d after duplicate, want 25", tr.bound())
	}
	tr.add(1)
	tr.add(2)
	if tr.bound() != 5 {
		t.Fatalf("bound = %d, want 5", tr.bound())
	}

	// Randomized cross-check against a sorted reference.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(8)
		var tk boundTracker
		tk.capacity = capacity
		var all []int
		for i := 0; i < 40; i++ {
			d := rng.Intn(100)
			tk.add(d)
			all = append(all, d)
			want := 0
			if len(all) >= capacity {
				s := append([]int(nil), all...)
				sort.Ints(s)
				want = s[capacity-1]
			}
			if got := tk.bound(); got != want {
				t.Fatalf("trial %d step %d: bound = %d, want %d", trial, i, got, want)
			}
		}
	}

	// Capacity 0 must never report a bound (pruning stays disabled).
	var zero boundTracker
	zero.add(1)
	if zero.bound() != 0 {
		t.Fatalf("capacity-0 tracker bound = %d, want 0", zero.bound())
	}
}

// TestChunkFlatRounds pins the round chunker: budgets grow
// geometrically from one full wave, ranges are cut at page boundaries
// only, and the rounds' union reproduces the plan exactly.
func TestChunkFlatRounds(t *testing.T) {
	const embPerPage, planes = 8, 4
	cases := [][]SlotRange{
		nil,
		{{First: 0, Last: 7}}, // single page
		{{First: 0, Last: 1199}},
		{{First: 3, Last: 500}, {First: 640, Last: 645}, {First: 800, Last: 1111}},
		{{First: 0, Last: embPerPage*planes - 1}}, // exactly one round
	}
	for ci, plan := range cases {
		rounds := chunkFlatRounds(plan, embPerPage, planes)
		// Union (in order) == plan.
		var flat []SlotRange
		for _, rd := range rounds {
			flat = append(flat, rd...)
		}
		var merged []SlotRange
		for _, r := range flat {
			if n := len(merged); n > 0 && merged[n-1].Last+1 == r.First {
				merged[n-1].Last = r.Last
			} else {
				merged = append(merged, r)
			}
		}
		if len(plan) == 0 {
			if len(rounds) != 0 {
				t.Fatalf("case %d: empty plan produced %d rounds", ci, len(rounds))
			}
			continue
		}
		if !reflect.DeepEqual(merged, plan) {
			t.Fatalf("case %d: rounds do not reassemble the plan\n got %v\nwant %v", ci, merged, plan)
		}
		// Geometric page budgets: round r holds at most planes<<r pages,
		// and every round but the last fills its budget exactly.
		budget := planes
		for ri, rd := range rounds {
			pages := 0
			for _, r := range rd {
				pages += r.Last/embPerPage - r.First/embPerPage + 1
			}
			if pages > budget {
				t.Fatalf("case %d round %d: %d pages exceed budget %d", ci, ri, pages, budget)
			}
			if ri < len(rounds)-1 && pages != budget {
				t.Fatalf("case %d round %d: %d pages underfill budget %d before the last round", ci, ri, pages, budget)
			}
			// Cuts happen at page boundaries: a range that continues in
			// the next round must end on a page's last slot.
			budget *= 2
		}
	}
}

// prunedSearchCases are the search commands the equivalence test runs
// against DB 1 (flat) and DB 2 (IVF) of the pristine shared corpus.
func prunedSearchCases(tag uint8) []struct {
	name string
	cmd  HostCommand
} {
	queries := testData.Queries
	return []struct {
		name string
		cmd  HostCommand
	}{
		{"flat", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10}},
		{"flat-k3", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 3}},
		{"flat-metatag", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries[:6], K: 10, Opt: SearchOptions{MetaTag: &tag}}},
		{"ivf-np1", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 1}}},
		{"ivf-np4", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 4}}},
		{"ivf-full", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 16}}},
		{"ivf-recall", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries[:8], K: 10, TargetRecall: 0.9}},
	}
}

// checkPrunedCase runs cmd unpruned and pruned on the single-device
// reference and pruned on the sharded host, and pins the PR's
// equivalence contract: pruned results are bit-identical to unpruned,
// and the pruned sharded response matches the pruned single-device one
// on results, per-query stats and aggregate stats (topology equality).
// It returns the pruned results for cross-shard-count comparison.
func checkPrunedCase(t *testing.T, name string, n int, single, sharded submitter, cmd HostCommand) [][]DocResult {
	t.Helper()
	base, err := single.Submit(cmd)
	if err != nil {
		t.Fatalf("%s n=%d unpruned: %v", name, n, err)
	}
	pcmd := cmd
	pcmd.Opt.Prune = true
	pruned, err := single.Submit(pcmd)
	if err != nil {
		t.Fatalf("%s n=%d pruned: %v", name, n, err)
	}
	if !reflect.DeepEqual(pruned.Results, base.Results) {
		t.Fatalf("%s n=%d: pruned results differ from unpruned", name, n)
	}
	shp, err := sharded.Submit(pcmd)
	if err != nil {
		t.Fatalf("%s shards=%d pruned: %v", name, n, err)
	}
	if !reflect.DeepEqual(shp.Results, pruned.Results) {
		t.Fatalf("%s shards=%d: pruned sharded results differ from pruned single device", name, n)
	}
	if !reflect.DeepEqual(shp.QueryStats, pruned.QueryStats) {
		t.Fatalf("%s shards=%d: pruned per-query stats differ: %s",
			name, n, firstDiffStat(shp.QueryStats, pruned.QueryStats))
	}
	if shp.Stats != pruned.Stats {
		t.Fatalf("%s shards=%d: pruned aggregate stats differ:\n got %+v\nwant %+v",
			name, n, shp.Stats, pruned.Stats)
	}
	return pruned.Results
}

// TestPrunedMatchesUnpruned is the keystone of the PR: with
// SearchOptions.Prune set, every search entry point returns results
// bit-identical to the unpruned path — flat and IVF, with metadata
// filtering and the calibrated TargetRecall operand, on 1/2/4 shards
// and on the single-device references — and pruned scan stats are
// topology-equal (sharded == N×-channels single device). Run under
// -race in CI.
func TestPrunedMatchesUnpruned(t *testing.T) {
	tag := uint8(testData.ClusterOf[testData.GroundTruth[0][0]] % 4)
	cases := prunedSearchCases(tag)
	var first [][][]DocResult
	for _, n := range shardCounts {
		single, err := New(refCfg(n), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { single.Close() })
		deployBoth(t, single.Submit)
		sh := newSharded(t, n)
		deployBoth(t, sh.Submit)
		// The TargetRecall operand needs a calibration record on both
		// topologies (calibration itself is pinned topology-equal by
		// TestShardedCalibrationMatchesSingleDevice).
		if _, err := single.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			res := checkPrunedCase(t, tc.name, n, single, sh, tc.cmd)
			if first == nil {
				first = make([][][]DocResult, len(cases))
			}
			if first[i] == nil {
				first[i] = res
			} else if !reflect.DeepEqual(res, first[i]) {
				t.Fatalf("shards=%d %s: pruned results differ across shard counts", n, tc.name)
			}
		}
	}
}

// TestPrunedMatchesUnprunedMutated repeats the equivalence contract on
// mutated corpora: after the shared append/delete script (tombstones
// live, no compaction), pruned results still match unpruned exactly
// and pruned stats stay topology-equal. This is the case the bound
// tracker's live-distances-only rule exists for — feeding tombstoned
// distances would over-tighten the bound and drop true pool members.
func TestPrunedMatchesUnprunedMutated(t *testing.T) {
	c := newMutCorpus()
	for _, ivf := range []bool{false, true} {
		name := "flat"
		if ivf {
			name = "ivf"
		}
		t.Run(name, func(t *testing.T) {
			op, nprobes := OpcodeSearch, []int{0}
			if ivf {
				op, nprobes = OpcodeIVFSearch, []int{1, 4, 12}
			}
			var first [][][]DocResult
			for _, n := range shardCounts {
				single, err := New(mutRefCfg(n), 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { single.Close() })
				runMutScript(t, single, c, ivf, 0)
				sh, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sh.Close() })
				runMutScript(t, sh, c, ivf, 0)
				for i, np := range nprobes {
					cname := fmt.Sprintf("%s-np%d", name, np)
					cmd := HostCommand{Opcode: op, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: np}}
					res := checkPrunedCase(t, cname, n, single, sh, cmd)
					if first == nil {
						first = make([][][]DocResult, len(nprobes))
					}
					if first[i] == nil {
						first[i] = res
					} else if !reflect.DeepEqual(res, first[i]) {
						t.Fatalf("shards=%d %s: pruned results differ across shard counts", n, cname)
					}
				}
			}
		})
	}
}

// separatedData builds a corpus pruning provably bites on: clusters
// are random ±1 sign patterns (so every member binary-quantizes within
// a few bit flips of its centroid — tiny covering radius) while
// distinct patterns disagree on about half the dimensions. Once a
// query's bound tightens to noise level, every non-home cluster's
// triangle-inequality lower bound exceeds it and the segment aborts.
func separatedData() (vecs [][]float32, docs [][]byte, cents [][]float32, assign []int, queries [][]float32) {
	// perCluster keeps one cluster above the k=2 rerank pool (20) and
	// the whole corpus well past one round's page budget, so both the
	// IVF windows and the flat chunks leave work for bounded rounds.
	const dim, nlist, perCluster, flips = 128, 16, 150, 3
	rng := rand.New(rand.NewSource(7))
	centers := make([][]float32, nlist)
	for c := range centers {
		v := make([]float32, dim)
		for j := range v {
			v[j] = 1
			if rng.Intn(2) == 0 {
				v[j] = -1
			}
		}
		centers[c] = v
	}
	for c := 0; c < nlist; c++ {
		for i := 0; i < perCluster; i++ {
			v := append([]float32(nil), centers[c]...)
			for f := 0; f < 1+rng.Intn(flips); f++ {
				v[rng.Intn(dim)] *= -1
			}
			vecs = append(vecs, v)
			docs = append(docs, fmt.Appendf(nil, "doc-%d-%d", c, i))
			assign = append(assign, c)
		}
	}
	for q := 0; q < 8; q++ {
		v := append([]float32(nil), centers[q*2]...)
		v[rng.Intn(dim)] *= -1
		queries = append(queries, v)
	}
	return vecs, docs, centers, assign, queries
}

// TestPrunedScansFewerPages pins that pruning actually saves device
// work on a well-separated corpus, and that the saved work is reported
// apart from the sensed-work counters: IVF segment aborts make sensed
// FinePages strictly smaller (with PrunedPages accounting for exactly
// the difference) and flat slot pruning makes TTL transfers strictly
// smaller — in both cases with bit-identical results.
func TestPrunedScansFewerPages(t *testing.T) {
	vecs, docs, cents, assign, queries := separatedData()
	e := newEngine(t, AllOptions())
	dbIVF := deployOn(t, e, OpcodeIVFDeploy, DeployConfig{
		ID: 7, Vectors: vecs, Docs: docs, DocSlotBytes: 64,
		Centroids: cents, Assign: assign,
	})
	// The flat check runs with distance filtering off: the filter fires
	// before the prune check and would itself discard every far slot on
	// this corpus, leaving nothing for the bound to save.
	noFilter := AllOptions()
	noFilter.DistanceFilter = false
	e2 := newEngine(t, noFilter)
	deployOn(t, e2, OpcodeDBDeploy, DeployConfig{
		ID: 8, Vectors: vecs, Docs: docs, DocSlotBytes: 64,
	})

	// IVF: a small k keeps the rerank pool below one cluster's
	// population, so the bound is live after the first rank window and
	// every later (far) cluster aborts before sensing a page.
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 7, Queries: queries, K: 2, Opt: SearchOptions{NProbe: 16}}
	base, err := e.Submit(cmd)
	if err != nil {
		t.Fatal(err)
	}
	pcmd := cmd
	pcmd.Opt.Prune = true
	pruned, err := e.Submit(pcmd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Results, base.Results) {
		t.Fatal("ivf: pruned results differ from unpruned")
	}
	for qi := range queries {
		b, p := base.QueryStats[qi], pruned.QueryStats[qi]
		if p.FinePages >= b.FinePages {
			t.Fatalf("ivf query %d: pruned sensed %d fine pages, unpruned %d — no saving", qi, p.FinePages, b.FinePages)
		}
		if p.PrunedPages == 0 || p.AbortedWaves == 0 {
			t.Fatalf("ivf query %d: no aborted segments reported (pruned pages %d, aborted waves %d)", qi, p.PrunedPages, p.AbortedWaves)
		}
		// Every fine page of the probe plan is either sensed or pruned:
		// the two counters partition the unpruned page count.
		if p.FinePages+p.PrunedPages != b.FinePages {
			t.Fatalf("ivf query %d: sensed %d + pruned %d != unpruned %d fine pages",
				qi, p.FinePages, p.PrunedPages, b.FinePages)
		}
	}

	// Flat: no lower bounds exist, so every page is still sensed, but
	// slots above the bound skip the TTL transfer.
	fcmd := HostCommand{Opcode: OpcodeSearch, DBID: 8, Queries: queries, K: 2}
	fbase, err := e2.Submit(fcmd)
	if err != nil {
		t.Fatal(err)
	}
	fp := fcmd
	fp.Opt.Prune = true
	fpruned, err := e2.Submit(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fpruned.Results, fbase.Results) {
		t.Fatal("flat: pruned results differ from unpruned")
	}
	for qi := range queries {
		b, p := fbase.QueryStats[qi], fpruned.QueryStats[qi]
		if p.FinePages != b.FinePages {
			t.Fatalf("flat query %d: sensed pages changed (%d vs %d) — flat pruning must not skip sensing", qi, p.FinePages, b.FinePages)
		}
		if p.PrunedSlots == 0 || p.Survivors >= b.Survivors {
			t.Fatalf("flat query %d: no TTL transfers saved (pruned slots %d, survivors %d vs %d)",
				qi, p.PrunedSlots, p.Survivors, b.Survivors)
		}
		if p.Survivors+p.PrunedSlots > b.Survivors {
			t.Fatalf("flat query %d: survivors %d + pruned slots %d exceed unpruned survivors %d",
				qi, p.Survivors, p.PrunedSlots, b.Survivors)
		}
	}

	// The timing model consumes sensed pages and transferred entries —
	// no pruning-specific plumbing — so the saved work must already
	// show up as strictly lower modeled latency.
	for qi := range queries {
		pl := e.Latency(dbIVF, pruned.QueryStats[qi], UnitScale()).Total
		bl := e.Latency(dbIVF, base.QueryStats[qi], UnitScale()).Total
		if pl >= bl {
			t.Fatalf("ivf query %d: pruned modeled latency %v not below unpruned %v", qi, pl, bl)
		}
	}
}
