package reis

import (
	"runtime"
	"testing"
)

// runAllSearches serves Search and IVF_Search over the shared test
// workload, each as one batched command and as one one-query command per
// query, and returns every response in order.
func runAllSearches(t *testing.T, e *Engine) []HostResponse {
	t.Helper()
	queries := testData.Queries[:12]
	var resps []HostResponse
	for _, cmd := range []HostCommand{
		{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 4}},
	} {
		resps = append(resps, mustSubmit(t, e, cmd))
		for i := range queries {
			one := cmd
			one.Queries = queries[i : i+1]
			resps = append(resps, mustSubmit(t, e, one))
		}
	}
	return resps
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
	ref := runAllSearches(t, e)

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			for i, got := range runAllSearches(t, e) {
				if d := respDiff(ref[i], got); d != "" {
					t.Fatalf("GOMAXPROCS=%d rep=%d response %d: %s", procs, rep, i, d)
				}
			}
		}
	}
}
