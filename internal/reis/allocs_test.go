package reis

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
)

// TestCommandAllocsConstant: a search command's allocations do not grow
// with its queries, its devices or its rounds. Every device's round is
// handed to its dies' persistent workers (no goroutine per device or per
// round), a pruned flat plan's rounds are cut once per plan, the
// PerShard rows come from one block, and a run's results and documents
// are windows of one block each — so on a host, flat and IVF, pruned and
// unpruned, one query or eight, every command allocates the same count,
// and two devices allocate what four do.
func TestCommandAllocsConstant(t *testing.T) {
	cases := []struct {
		name string
		cmd  HostCommand
	}{
		{"flat", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10}},
		{"flat-pruned", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10, Opt: SearchOptions{Prune: true}}},
		{"ivf", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}},
		{"ivf-pruned", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 8, Prune: true}}},
	}
	multi := -1.0 // the count every multi-device host reads
	for _, devs := range []int{1, 2, 4} {
		var h searcher
		if devs == 1 {
			e := newEngine(t, AllOptions())
			deployBoth(t, e.Submit)
			h = e
		} else {
			sh := newSharded(t, devs)
			deployBoth(t, sh.Submit)
			h = sh
		}
		want, readings := -1.0, ""
		for _, tc := range cases {
			for _, nq := range []int{1, 8} {
				got, _ := commandAllocs(t, h, tc.cmd, testData.Queries[:nq])
				readings += fmt.Sprintf(" %s/q=%d:%.1f", tc.name, nq, got)
				if want < 0 {
					want = got
				}
				if got != want {
					t.Errorf("%d devices, %s with %d queries: %.1f allocs/command, the host's first command %.1f", devs, tc.name, nq, got, want)
				}
			}
		}
		t.Logf("%d devices:%s", devs, readings)
		if devs > 1 {
			if multi < 0 {
				multi = want
			}
			if want != multi {
				t.Errorf("%d devices allocate %.1f per command, fewer devices %.1f: the count grows with the devices", devs, want, multi)
			}
		}
	}
}

// TestOutputBlocksIsolated: a run's results are windows of one block and
// its documents windows of another, and the commands of a coalesced group
// share their run's blocks and the group's PerShard header block. Every
// window is capacity-bounded, so appending to one query's results, to
// one result's document or to one member's PerShard rows changes nothing
// another query, result or member holds.
func TestOutputBlocksIsolated(t *testing.T) {
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, Opt: SearchOptions{NProbe: 4}}
	for _, devs := range []int{1, 4} {
		var h submitter
		if devs == 1 {
			h = newEngine(t, AllOptions())
		} else {
			h = newSharded(t, devs)
		}
		deployBoth(t, h.Submit)
		resp := mustSubmit(t, h, cmd)
		what := fmt.Sprintf("%d devices", devs)
		appendsIsolated(t, what, resp.Results, cmd.K)
		if devs > 1 {
			rowAppendsIsolated(t, what, resp.PerShard)
		}
	}

	// Two commands coalesced through a paused queue pair of a 4-device host.
	sh := newSharded(t, 4)
	deployBoth(t, sh.Submit)
	q, err := sh.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.pause()
	var ids []CommandID
	for _, part := range [][][]float32{testData.Queries[8:12], testData.Queries[12:16]} {
		c := cmd
		c.Queries = part
		id, err := q.SubmitAsync(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.resume()
	a, b := waitOK(t, q, ids[0]), waitOK(t, q, ids[1])
	if st := q.Stats(); st.Dispatches != 1 || st.Coalesced != 2 {
		t.Fatalf("the two commands did not coalesce: stats %+v", st)
	}
	appendsIsolated(t, "coalesced group", slices.Concat(a.Results, b.Results), cmd.K)
	rowAppendsIsolated(t, "coalesced group", slices.Concat(a.PerShard, b.PerShard))
	want := make([][]QueryStats, len(b.PerShard))
	for s, row := range b.PerShard {
		want[s] = slices.Clone(row)
	}
	a.PerShard = append(a.PerShard, nil)
	for s, row := range b.PerShard {
		if !slices.Equal(row, want[s]) {
			t.Fatalf("appending to the first member's PerShard header changed the second member's row %d", s)
		}
	}
}

// rowAppendsIsolated appends to every PerShard row, then checks that each
// row still holds the stats it was handed.
func rowAppendsIsolated(t *testing.T, what string, rows [][]QueryStats) {
	t.Helper()
	if len(rows) < 2 {
		t.Fatalf("%s: %d PerShard rows, want one per device", what, len(rows))
	}
	want := make([][]QueryStats, len(rows))
	for s, row := range rows {
		want[s] = slices.Clone(row)
	}
	for s := range rows {
		rows[s] = append(rows[s], QueryStats{Survivors: -1})
	}
	for s, row := range rows {
		if !slices.Equal(row[:len(want[s])], want[s]) {
			t.Fatalf("%s: PerShard row %d changed after the appends", what, s)
		}
	}
}

// appendsIsolated appends to every query's results and to every result's
// document, then checks that each query still holds the results and
// document bytes it was handed.
func appendsIsolated(t *testing.T, what string, results [][]DocResult, k int) {
	t.Helper()
	want := make([][]DocResult, len(results))
	for i, res := range results {
		if len(res) != k || len(res[0].Doc) == 0 {
			t.Fatalf("%s: query %d returned %d results, want %d with documents", what, i, len(res), k)
		}
		want[i] = copyResults(res)
	}
	for i := range results {
		results[i] = append(results[i], DocResult{ID: -1, Doc: []byte("appended")})
		for j := range want[i] {
			results[i][j].Doc = append(results[i][j].Doc, "appended"...)
		}
	}
	for i, res := range results {
		for j, w := range want[i] {
			if r := res[j]; r.ID != w.ID || r.Dist != w.Dist || !bytes.Equal(r.Doc[:len(w.Doc)], w.Doc) {
				t.Fatalf("%s: query %d result %d changed after the appends: %d %v, want %d %v", what, i, j, r.ID, r.Dist, w.ID, w.Dist)
			}
		}
	}
}
