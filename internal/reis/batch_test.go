package reis

import (
	"bytes"
	"context"
	"testing"
)

// assertSameResults fails unless one N-query command's results equal the
// results of N one-query commands bit for bit (IDs, distances, document bytes) —
// batch-composition invariance: what rides along in a batch never
// changes a query's outcome.
func assertSameResults(t *testing.T, mode string, seq, batch [][]DocResult) {
	t.Helper()
	if len(seq) != len(batch) {
		t.Fatalf("%s: %d batch results for %d queries", mode, len(batch), len(seq))
	}
	for qi := range seq {
		if len(seq[qi]) != len(batch[qi]) {
			t.Fatalf("%s query %d: %d results, sequential %d", mode, qi, len(batch[qi]), len(seq[qi]))
		}
		for i := range seq[qi] {
			s, b := seq[qi][i], batch[qi][i]
			if s.ID != b.ID || s.Dist != b.Dist || !bytes.Equal(s.Doc, b.Doc) {
				t.Fatalf("%s query %d result %d differs: seq{id=%d dist=%v} batch{id=%d dist=%v}",
					mode, qi, i, s.ID, s.Dist, b.ID, b.Dist)
			}
		}
	}
}

func TestSearchBatchMatchesSequentialFlat(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	queries := testData.Queries
	opt := SearchOptions{}

	seq, seqStats := searchEach(t, e, OpcodeSearch, 1, queries, 10, opt)
	batch, sts := search(t, e, OpcodeSearch, 1, queries, 10, opt)
	assertSameResults(t, "flat", seq, batch)

	// Device event counts must match the one-query command field for
	// field, the broadcast count included: a plane receives a query iff
	// it scans it, whatever else is in the batch.
	for qi := range queries {
		if s, b := seqStats[qi], sts[qi]; s != b {
			t.Fatalf("query %d stats diverge:\nseq   %+v\nbatch %+v", qi, s, b)
		}
	}
}

func TestSearchBatchMatchesSequentialFiltered(t *testing.T) {
	e := newEngine(t, AllOptions())
	tags := make([]uint8, testData.Len())
	for i := range tags {
		tags[i] = uint8(testData.ClusterOf[i] % 4)
	}
	deployOn(t, e, OpcodeDBDeploy, DeployConfig{
		ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
		MetaTags: tags,
	})
	want := tags[testData.GroundTruth[0][0]]
	opt := SearchOptions{MetaTag: &want, SkipDocs: true}
	queries := testData.Queries[:8]

	seq, _ := searchEach(t, e, OpcodeSearch, 1, queries, 10, opt)
	batch, _ := search(t, e, OpcodeSearch, 1, queries, 10, opt)
	assertSameResults(t, "filtered", seq, batch)
	for qi := range batch {
		for _, r := range batch[qi] {
			if tags[r.ID] != want {
				t.Fatalf("query %d returned tag %d, want %d", qi, tags[r.ID], want)
			}
		}
	}
}

func TestIVFSearchBatchMatchesSequential(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	queries := testData.Queries
	for _, nprobe := range []int{1, 4} {
		opt := SearchOptions{NProbe: nprobe}
		seq, seqStats := searchEach(t, e, OpcodeIVFSearch, 1, queries, 10, opt)
		batch, sts := search(t, e, OpcodeIVFSearch, 1, queries, 10, opt)
		assertSameResults(t, "ivf", seq, batch)
		for qi := range queries {
			if s, b := seqStats[qi], sts[qi]; s != b {
				t.Fatalf("nprobe=%d query %d stats diverge:\nseq   %+v\nbatch %+v", nprobe, qi, s, b)
			}
		}
	}
}

func TestSearchBatchDeterministic(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	opt := SearchOptions{NProbe: 4}
	a, ast := search(t, e, OpcodeIVFSearch, 1, testData.Queries, 10, opt)
	b, bst := search(t, e, OpcodeIVFSearch, 1, testData.Queries, 10, opt)
	assertSameResults(t, "repeat", a, b)
	for qi := range ast {
		if ast[qi] != bst[qi] {
			t.Fatalf("query %d stats changed across identical batches", qi)
		}
	}
}

func TestSearchBatchValidation(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	for _, tc := range []struct {
		what string
		cmd  HostCommand
	}{
		{"empty batch", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10}},
		{"unknown database", HostCommand{Opcode: OpcodeSearch, DBID: 99, Queries: testData.Queries[:1], K: 10}},
		{"wrong-dim query", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: [][]float32{make([]float32, 7)}, K: 10}},
		{"IVF batch on flat database", HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:1], K: 10}},
	} {
		if _, err := e.Submit(tc.cmd); err == nil {
			t.Fatalf("%s accepted", tc.what)
		}
	}
}

func TestBatchLatencyOverlap(t *testing.T) {
	e := newEngine(t, AllOptions())
	db := deployIVF(t, e, 1, 16)
	_, sts := search(t, e, OpcodeIVFSearch, 1, testData.Queries, 10, SearchOptions{NProbe: 4})
	b := e.BatchLatency(db, sts, UnitScale())
	if b.Queries != len(sts) {
		t.Fatalf("Queries = %d", b.Queries)
	}
	if b.Makespan <= 0 || b.Serial <= 0 {
		t.Fatalf("non-positive times: %+v", b)
	}
	if b.Makespan > b.Serial {
		t.Fatalf("batch makespan %v exceeds serial %v", b.Makespan, b.Serial)
	}
	for _, busy := range []struct {
		name string
		d    float64
	}{{"plane", b.PlaneBusy.Seconds()}, {"channel", b.ChannelBusy.Seconds()}, {"core", b.CoreBusy.Seconds()}} {
		if busy.d > b.Makespan.Seconds() {
			t.Fatalf("%s busy exceeds makespan: %+v", busy.name, b)
		}
	}
	serialQPS := float64(b.Queries) / b.Serial.Seconds()
	if b.QPS < serialQPS {
		t.Fatalf("batch QPS %.1f below serial %.1f", b.QPS, serialQPS)
	}
	if b.EnergyJ <= 0 {
		t.Fatalf("non-positive energy: %v", b.EnergyJ)
	}
}

// commandAllocs is the steady-state allocation count of one search
// command on h: one warm-up run sizes every pooled buffer, then the mean
// over repeated runs.
func commandAllocs(t *testing.T, h searcher, cmd HostCommand, queries [][]float32) (allocs float64, survivors int) {
	t.Helper()
	_, sts, _, err := h.search(context.Background(), &cmd, queries, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		survivors += st.Survivors
	}
	return testing.AllocsPerRun(10, func() { h.search(context.Background(), &cmd, queries, false) }), survivors
}

// TestFoldAllocsIndependentOfSurvivors: the cross-device fold merges
// entries straight out of the worker arenas into pooled streams, so a
// 4-shard IVF batch allocates the same per command whether the distance
// filter drops most of the scanned entries or lets every one through —
// the survivors are nobody's garbage.
func TestFoldAllocsIndependentOfSurvivors(t *testing.T) {
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 8}}
	queries := testData.Queries[:8]
	measure := func(opts Options) (float64, int) {
		sh, err := NewSharded(shardTestCfg(), 4, 64<<20, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		deployBoth(t, sh.Submit)
		return commandAllocs(t, sh, cmd, queries)
	}
	opts := AllOptions()
	filtered, few := measure(opts)
	opts.DistanceFilter = false
	unfiltered, many := measure(opts)
	if many < 2*few {
		t.Fatalf("filter off left %d survivors against %d with it on: the corpus does not separate the cases", many, few)
	}
	if unfiltered > filtered {
		t.Fatalf("%d survivors cost %.1f allocs/command, %d cost %.1f: the fold allocates per survivor",
			many, unfiltered, few, filtered)
	}
}

// TestOneDeviceCommandAllocs pins the one-device path's per-command
// allocations at what they were before every device count shared one
// scan round: the per-round join and the cross-device fold must cost a
// lone device nothing.
func TestOneDeviceCommandAllocs(t *testing.T) {
	e, err := New(refCfg(1), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deployBoth(t, e.Submit)
	for _, tc := range []struct {
		name string
		cmd  HostCommand
		nq   int
		max  float64
	}{
		{"flat", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10}, 1, 15},
		{"ivf", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}, 1, 16},
		{"ivf-pruned", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4, Prune: true}}, 1, 18},
		{"ivf-batch", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}, 8, 93},
	} {
		if got, _ := commandAllocs(t, e, tc.cmd, testData.Queries[:tc.nq]); got > tc.max {
			t.Errorf("%s: %.1f allocs/command, at most %.0f before", tc.name, got, tc.max)
		}
	}
}
