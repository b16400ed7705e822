package reis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines reports the goroutine count once it is no higher
// than limit, or after a second of waiting: a scan round joins its
// per-device goroutines before it returns, but a joined goroutine may
// still be winding down when the count is read.
func settledGoroutines(limit int) int {
	for i := 0; i < 100 && runtime.NumGoroutine() > limit; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestSearchCancelBetweenRounds cancels a pruned search's context at
// every checkpoint it polls — the controller's own, between rounds and
// before each tail, as well as every device's between plane work items —
// on one device and on 2 and 4, and asserts the run reports ctx.Err()
// and leaves the host whole: the next search succeeds with the
// undisturbed results (no device lock left held) and no goroutine of a
// round's join outlives the sweep. countdownCtx(p) cancels at the
// (p+1)-th poll, so sweeping p until a run succeeds visits every
// checkpoint.
func TestSearchCancelBetweenRounds(t *testing.T) {
	type topo struct {
		name string
		h    searcher
	}
	e, err := New(testCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployBoth(t, e.Submit)
	topos := []topo{{"device", e}}
	for _, n := range []int{2, 4} {
		sh := newSharded(t, n)
		deployBoth(t, sh.Submit)
		topos = append(topos, topo{fmt.Sprintf("shards=%d", n), sh})
	}
	cmds := []HostCommand{
		{Opcode: OpcodeSearch, DBID: 1, K: 2, Opt: SearchOptions{Prune: true}},
		{Opcode: OpcodeIVFSearch, DBID: 2, K: 2, Opt: SearchOptions{Prune: true, NProbe: 8}},
	}
	queries := testData.Queries[:3]
	for _, tp := range topos {
		for _, cmd := range cmds {
			want, _, _, err := searchFresh(context.Background(), tp.h, &cmd, queries, false)
			if err != nil {
				t.Fatal(err)
			}
			// The plane workers are up; only a leaked join could add more.
			goroutines := runtime.NumGoroutine()
			aborted := 0
			for p := 0; ; p++ {
				if p > 1<<14 {
					t.Fatalf("%s op %#x: still cancelled after %d polls", tp.name, cmd.Opcode, p)
				}
				ctx := &countdownCtx{Context: context.Background(), polls: p}
				got, _, _, err := searchFresh(ctx, tp.h, &cmd, queries, false)
				if err == nil {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s op %#x polls=%d: results after aborts differ", tp.name, cmd.Opcode, p)
					}
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s op %#x polls=%d: got %v, want ctx.Err()", tp.name, cmd.Opcode, p, err)
				}
				aborted++
				next, _, _, err := searchFresh(context.Background(), tp.h, &cmd, queries, false)
				if err != nil {
					t.Fatalf("%s op %#x polls=%d: search after the cancelled one: %v", tp.name, cmd.Opcode, p, err)
				}
				if !reflect.DeepEqual(next, want) {
					t.Fatalf("%s op %#x polls=%d: results after a cancelled search differ", tp.name, cmd.Opcode, p)
				}
			}
			// Several rounds, each with its own checkpoint, must have been
			// cut — a one-poll run would not exercise the round loop.
			if aborted < 4 {
				t.Fatalf("%s op %#x: only %d cancellation points", tp.name, cmd.Opcode, aborted)
			}
			if n := settledGoroutines(goroutines); n > goroutines {
				t.Fatalf("%s op %#x: %d goroutines after the sweep, %d before", tp.name, cmd.Opcode, n, goroutines)
			}
		}
	}
}

// TestPrunedSearchEmptyPlan searches a flat database whose every entry
// was deleted and compacted away: the pruned round list is empty, no
// scan runs, and the response still has its shape — [shard][query]
// PerShard rows on a router, nil on a device.
func TestPrunedSearchEmptyPlan(t *testing.T) {
	c := newMutCorpus()
	ids := make([]int, len(c.base))
	for i := range ids {
		ids[i] = i
	}
	search := HostCommand{
		Opcode: OpcodeSearch, DBID: 1, K: 5, Queries: testData.Queries[:3],
		Opt: SearchOptions{Prune: true},
	}
	empty := func(t *testing.T, h submitter) HostResponse {
		t.Helper()
		for _, cmd := range []HostCommand{
			{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{ID: 1, Vectors: c.base, Docs: c.baseDocs, DocSlotBytes: 256}},
			{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: ids}},
			{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 1}},
		} {
			if _, err := h.Submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := h.Submit(search)
		if err != nil {
			t.Fatal(err)
		}
		for qi, res := range resp.Results {
			if len(res) != 0 || resp.QueryStats[qi] != (QueryStats{}) {
				t.Fatalf("query %d of an empty database: %d results, stats %+v", qi, len(res), resp.QueryStats[qi])
			}
		}
		return resp
	}
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if resp := empty(t, e); resp.PerShard != nil {
		t.Fatalf("device response carries PerShard rows: %v", resp.PerShard)
	}
	if db, _ := e.hostDB(1); len(db.mut.flatPlan) != 0 {
		t.Fatalf("scan plan not empty after compacting everything away: %v", db.mut.flatPlan)
	}
	for _, n := range []int{2, 4} {
		sh, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		resp := empty(t, sh)
		if len(resp.PerShard) != n {
			t.Fatalf("shards=%d: %d PerShard rows", n, len(resp.PerShard))
		}
		for s, row := range resp.PerShard {
			if len(row) != len(search.Queries) {
				t.Fatalf("shards=%d: shard %d row has %d queries, want %d", n, s, len(row), len(search.Queries))
			}
		}
	}
}
