package reis

import (
	"context"
	"testing"
)

func TestSearchBatchDeterministic(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}}
	if d := respDiff(mustSubmit(t, e, cmd), mustSubmit(t, e, cmd)); d != "" {
		t.Fatalf("identical batches differ: %s", d)
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
	if b.queries != len(sts) {
		t.Fatalf("Queries = %d", b.queries)
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
	serialQPS := float64(b.queries) / b.Serial.Seconds()
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
	_, sts, _, err := searchFresh(context.Background(), h, &cmd, queries, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		survivors += st.Survivors
	}
	out := new(outBlocks)
	return testing.AllocsPerRun(10, func() {
		*out = outBlocks{} // fresh blocks, as a caller that never releases gets
		h.search(context.Background(), &cmd, queries, false, out)
	}), survivors
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
		sh, err := NewSharded(testCfg(), 4, 64<<20, opts)
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
// allocations: the stats rows, the results header and the run's two
// output blocks (results and documents). The cross-device fold and the
// round's dispatch must cost a lone device nothing.
func TestOneDeviceCommandAllocs(t *testing.T) {
	e, err := New(testCfg(), 64<<20, AllOptions())
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
		{"flat", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10}, 1, 4},
		{"ivf", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}, 1, 4},
		{"ivf-pruned", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4, Prune: true}}, 1, 4},
		{"ivf-batch", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}, 8, 4},
	} {
		if got, _ := commandAllocs(t, e, tc.cmd, testData.Queries[:tc.nq]); got > tc.max {
			t.Errorf("%s: %.1f allocs/command, at most %.0f", tc.name, got, tc.max)
		}
	}
}
