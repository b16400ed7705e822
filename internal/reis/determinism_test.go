package reis

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// runAllSearches executes every search command shape over the shared
// test workload and returns a deterministic fingerprint of results and
// stats: Search and IVF_Search, as one-query commands and as one batched
// command, must each produce bit-identical output on every run at any
// GOMAXPROCS — and, batch composition being invisible to a query, the
// one-query commands must equal the batches field for field.
func runAllSearches(t *testing.T, e *Engine) ([][][]DocResult, [][]QueryStats) {
	t.Helper()
	queries := testData.Queries[:12]
	var allRes [][][]DocResult
	var allSts [][]QueryStats

	for _, run := range []func(testing.TB, submitter, uint8, int, [][]float32, int, SearchOptions) ([][]DocResult, []QueryStats){searchEach, search} {
		res, sts := run(t, e, OpcodeSearch, 1, queries, 10, SearchOptions{})
		allRes, allSts = append(allRes, res), append(allSts, sts)
		res, sts = run(t, e, OpcodeIVFSearch, 2, queries, 10, SearchOptions{NProbe: 4})
		allRes, allSts = append(allRes, res), append(allSts, sts)
	}
	for m, mode := range []string{"flat", "ivf"} {
		assertSameResults(t, mode, allRes[m], allRes[m+2])
		for qi := range queries {
			if allSts[m][qi] != allSts[m+2][qi] {
				t.Fatalf("%s query %d: one-query stats %+v, batch stats %+v", mode, qi, allSts[m][qi], allSts[m+2][qi])
			}
		}
	}
	return allRes, allSts
}

func diffRuns(t *testing.T, label string, wantRes, gotRes [][][]DocResult, wantSts, gotSts [][]QueryStats) {
	t.Helper()
	for m := range wantRes {
		mode := []string{"Search x1", "IVF_Search x1", "Search batch", "IVF_Search batch"}[m]
		for qi := range wantRes[m] {
			w, g := wantRes[m][qi], gotRes[m][qi]
			if len(w) != len(g) {
				t.Fatalf("%s %s query %d: %d results, want %d", label, mode, qi, len(g), len(w))
			}
			for i := range w {
				if w[i].ID != g[i].ID || w[i].Dist != g[i].Dist || !bytes.Equal(w[i].Doc, g[i].Doc) {
					t.Fatalf("%s %s query %d result %d diverged: got{id=%d dist=%v} want{id=%d dist=%v}",
						label, mode, qi, i, g[i].ID, g[i].Dist, w[i].ID, w[i].Dist)
				}
			}
			if wantSts[m][qi] != gotSts[m][qi] {
				t.Fatalf("%s %s query %d stats diverged:\ngot  %+v\nwant %+v",
					label, mode, qi, gotSts[m][qi], wantSts[m][qi])
			}
		}
	}
}

// TestSearchDeterministicAcrossRunsAndGOMAXPROCS asserts the hard
// determinism contract: every search command returns bit-identical results
// and stats on repeated runs, at GOMAXPROCS 1 and 4 — the per-die
// worker ordering and position-ordered merges make the outcome
// independent of goroutine scheduling.
func TestSearchDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 16)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	refRes, refSts := runAllSearches(t, e)

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			gotRes, gotSts := runAllSearches(t, e)
			diffRuns(t, fmt.Sprintf("GOMAXPROCS=%d rep=%d", procs, rep), refRes, gotRes, refSts, gotSts)
		}
	}
}
