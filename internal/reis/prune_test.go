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
	cases := [][]slotRange{
		nil,
		{{First: 0, Last: 7}}, // single page
		{{First: 0, Last: 1199}},
		{{First: 3, Last: 500}, {First: 640, Last: 645}, {First: 800, Last: 1111}},
		{{First: 0, Last: embPerPage*planes - 1}}, // exactly one round
	}
	for ci, plan := range cases {
		rounds := chunkFlatRounds(plan, embPerPage, planes)
		// Union (in order) == plan.
		var flat []slotRange
		for _, rd := range rounds {
			flat = append(flat, rd...)
		}
		var merged []slotRange
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
