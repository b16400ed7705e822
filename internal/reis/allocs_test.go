package reis

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestCommandAllocsConstant: a search command's allocations do not grow
// with its queries, its devices or its rounds. Every device's round is
// handed to its dies' persistent workers (no goroutine per device or per
// round), a pruned flat plan's rounds are cut once per plan, the
// PerShard rows come from one block, a run's results are windows of one
// block, and their documents views of flash — so on a host, flat and
// IVF, pruned and unpruned, one query or eight, every command allocates
// the same count, and two devices allocate what four do.
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
// its documents capacity-bounded views of flash, and the commands of a
// coalesced group share their run's blocks and the group's PerShard
// header block. Every window and view is capacity-bounded, so appending
// to one query's results, to one result's document or to one member's
// PerShard rows changes nothing another query, result or member holds.
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

// TestReleaseIsolation: a released response's blocks are reused only once
// nobody holds them. A response that is held is never written over by the
// released commands after it; in a coalesced pair, one member's Release
// leaves the other's results in place until it is released too; a
// SkipDocs command on a record that last held documents returns no
// document; and stats read from recycled blocks equal a fresh host's.
func TestReleaseIsolation(t *testing.T) {
	drainOutPool()
	t.Cleanup(drainOutPool)
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4}}
	for _, devs := range []int{1, 4} {
		// h serves released commands; ref, of the same topology, serves
		// the same commands into fresh blocks.
		var h, ref cachedHost
		if devs == 1 {
			h, ref = newEngine(t, AllOptions()), newEngine(t, AllOptions())
		} else {
			h, ref = newSharded(t, devs), newSharded(t, devs)
		}
		deployBoth(t, h.Submit)
		deployBoth(t, ref.Submit)
		what := fmt.Sprintf("%d devices", devs)
		// churn runs released commands of every shape over the pool's records.
		churn := func() {
			for i := range 8 {
				c := cmd
				c.Queries = testData.Queries[8+i : 9+i+i%3]
				c.Opt.SkipDocs = i%2 == 1
				resp := mustSubmit(t, h, c)
				resp.Release()
			}
		}

		// A dispatch runs into a released record when the pool hands it
		// one; the pool may miss (a record left in another P's private
		// slot, a Put the race detector drops), so try a few times.
		churn()
		held := mustSubmit(t, h, cmd)
		for try := 0; held.out == nil && try < 16; try++ {
			held.Release()
			held = mustSubmit(t, h, cmd)
		}
		if held.out == nil {
			t.Fatalf("%s: no dispatch ran into a released record", what)
		}
		want := cloneAll(held.Results)
		churn()
		if !reflect.DeepEqual(held.Results, want) {
			t.Fatalf("%s: released commands wrote over a held response", what)
		}
		held.Release()
		held.Release() // a second Release does nothing
		if held.Results != nil || held.QueryStats != nil || held.PerShard != nil {
			t.Fatalf("%s: Release left the response's views in place", what)
		}

		// Two commands coalesced through a paused queue pair.
		q, err := h.NewQueue(QueueConfig{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		pair := func() (a, b HostResponse) {
			q.pause()
			var ids []CommandID
			for _, part := range [][][]float32{testData.Queries[:4], testData.Queries[4:8]} {
				c := cmd
				c.Queries = part
				id, err := q.SubmitAsync(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			q.resume()
			return waitOK(t, q, ids[0]), waitOK(t, q, ids[1])
		}
		a, b := pair()
		for try := 0; a.out == nil && try < 16; try++ {
			a.Release()
			b.Release()
			a, b = pair()
		}
		if a.out == nil || a.out != b.out || a.out.refs.Load() != 2 {
			t.Fatalf("%s: the coalesced members do not share one output record", what)
		}
		wantB, wantRows := cloneAll(b.Results), slices.Clone(b.QueryStats)
		a.Release()
		churn()
		if !reflect.DeepEqual(b.Results, wantB) || !slices.Equal(b.QueryStats, wantRows) {
			t.Fatalf("%s: one member's Release let later commands write over the other's results", what)
		}
		b.Release()

		// Every command below runs into blocks a documents command filled.
		var out outBlocks
		for _, c := range []HostCommand{
			cmd,
			{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4, SkipDocs: true}},
			{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:6], K: 7},
			{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[2:3], K: 12, Opt: SearchOptions{NProbe: 8, Prune: true}},
		} {
			if err := h.search(context.Background(), &c, c.Queries, true, &out); err != nil {
				t.Fatal(err)
			}
			got := mustSubmit(t, ref, c)
			if !reflect.DeepEqual(out.results, got.Results) || !slices.Equal(out.sts, got.QueryStats) ||
				!reflect.DeepEqual(out.rows, got.PerShard) {
				t.Fatalf("%s: opcode %#x on reused blocks: results or stats differ from a fresh host's", what, c.Opcode)
			}
			for _, res := range out.results {
				for _, r := range res {
					if c.Opt.SkipDocs && r.Doc != nil {
						t.Fatalf("%s: a SkipDocs result on reused blocks carries a document", what)
					}
				}
			}
		}
	}
}

// drainOutPool empties the output-record pool, so that an allocation
// count of callers that never release does not depend on what earlier
// tests released.
func drainOutPool() {
	for outPool.Get() != nil {
	}
}

// TestCachedOutputBlocksIsolated: a result-cache hit's records are
// copied into a window of its command's results block, beside the
// misses, so no record a caller holds aliases the cache or another query
// (the documents are shared read-only views of flash). Writing into one
// query's records, and appending to any query's results or documents,
// changes no other query's results and nothing the cache serves next —
// for a cached host's hits, and for a coalesced group whose commands
// interleave hits and misses.
func TestCachedOutputBlocksIsolated(t *testing.T) {
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, Opt: SearchOptions{NProbe: 4}}
	for _, devs := range []int{1, 4} {
		h := newCachedHost(t, devs, 1<<20)
		misses := mustSubmit(t, h, cmd)
		want := cloneAll(misses.Results)
		hits := mustSubmit(t, h, cmd)
		what := fmt.Sprintf("%d devices", devs)
		hitPattern(t, what, hits.QueryStats, "HHHHHHHH")
		if !reflect.DeepEqual(hits.Results, want) {
			t.Fatalf("%s: the hits differ from the results stored", what)
		}
		for _, resp := range []HostResponse{hits, misses} {
			writesIsolated(t, what, resp.Results)
			appendsIsolated(t, what, resp.Results, cmd.K)
		}
		if next := mustSubmit(t, h, cmd); !reflect.DeepEqual(next.Results, want) {
			t.Fatalf("%s: writing into served results changed what the cache serves next", what)
		}
	}

	// Two commands coalesced through a paused queue pair of a 4-device
	// host, each interleaving hits (queries 8-11, served before) with
	// misses (12-15).
	h := newCachedHost(t, 4, 1<<20)
	mustSubmit(t, h, HostCommand{Opcode: cmd.Opcode, DBID: cmd.DBID, Queries: testData.Queries[8:12], K: cmd.K, Opt: cmd.Opt})
	qs := testData.Queries
	parts := [][][]float32{{qs[8], qs[12], qs[9], qs[13]}, {qs[10], qs[14], qs[11], qs[15]}}
	ref := newSharded(t, 4)
	deployBoth(t, ref.Submit)
	var want [][]DocResult
	for _, part := range parts {
		c := cmd
		c.Queries = part
		want = append(want, mustSubmit(t, ref, c).Results...)
	}
	q, err := h.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.pause()
	var ids []CommandID
	for _, part := range parts {
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
	hitPattern(t, "mixed group", slices.Concat(a.QueryStats, b.QueryStats), "HMHMHMHM")
	got := slices.Concat(a.Results, b.Results)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed group: results differ from an uncached host's")
	}
	writesIsolated(t, "mixed group", got)
	appendsIsolated(t, "mixed group", got, cmd.K)
	rowAppendsIsolated(t, "mixed group", slices.Concat(a.PerShard, b.PerShard))
	var next [][]DocResult
	for _, part := range parts {
		c := cmd
		c.Queries = part
		resp := mustSubmit(t, h, c)
		hitPattern(t, "mixed group, served next", resp.QueryStats, "HHHH")
		next = append(next, resp.Results...)
	}
	if !reflect.DeepEqual(next, want) {
		t.Fatal("mixed group: writing into served results changed what the cache serves next")
	}
}

// TestServedHitSurvivesRecycling: a served hit holds a copy of its
// records, and its documents are views of flash, so evicting its entry
// and recycling the record, buffers and all, for another query's result
// leaves every byte of the hit in place.
func TestServedHitSurvivesRecycling(t *testing.T) {
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:1], K: 10, Opt: SearchOptions{NProbe: 4}}
	h := newCachedHost(t, 1, 8*resultEntryBytes(t, cmd))
	mustSubmit(t, h, cmd)
	hit := mustSubmit(t, h, cmd)
	hitPattern(t, "repeat", hit.QueryStats, "H")
	want := cloneAll(hit.Results)
	db, err := h.hostDB(cmd.DBID)
	if err != nil {
		t.Fatal(err)
	}
	rec := db.cache.lruHead // the hit made its entry the most recent
	key := slices.Clone(rec.key)
	// Eight other results fill the 8-entry LRU: the hit's entry is
	// evicted first and its record taken over by the next insert.
	mustSubmit(t, h, HostCommand{Opcode: cmd.Opcode, DBID: cmd.DBID, Queries: testData.Queries[1:9], K: cmd.K, Opt: cmd.Opt})
	if db.cache.find(key, keyHash(key)) != nil || db.cache.find(rec.key, keyHash(rec.key)) != rec {
		t.Fatal("the served entry was not evicted and its record recycled")
	}
	if !reflect.DeepEqual(hit.Results, want) {
		t.Fatal("recycling the served entry's record changed the served hit")
	}
}

// TestDocumentsOutliveTheirResponse: a document is a read-only view of
// the flash page it was read from, not a window of its response's
// blocks, so it keeps its bytes whatever follows: the response's Release
// and the reuse of its record by later commands; the eviction of the
// cached result it was served from and the recycling of that record for
// other queries; and deletes, a compaction that erases rows, and appends
// that program the freed ones. Checked on one device and on four.
func TestDocumentsOutliveTheirResponse(t *testing.T) {
	drainOutPool()
	t.Cleanup(drainOutPool)
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4}}
	one := cmd
	one.Queries = testData.Queries[:1]
	entry := resultEntryBytes(t, one)
	for _, devs := range []int{1, 4} {
		what := fmt.Sprintf("%d devices", devs)
		var h cachedHost
		if devs == 1 {
			h = newEngine(t, AllOptions())
		} else {
			h = newSharded(t, devs)
		}
		deployBoth(t, h.Submit)

		// Released: the record goes back to the pool, and released
		// commands of every shape fill it again.
		resp := mustSubmit(t, h, cmd)
		for try := 0; resp.out == nil && try < 16; try++ {
			resp.Release()
			resp = mustSubmit(t, h, cmd)
		}
		if resp.out == nil {
			t.Fatalf("%s: no dispatch ran into a released record", what)
		}
		kept := keepHeaders(resp.Results)
		resp.Release()
		for i := range 8 {
			c := cmd
			c.Queries = testData.Queries[4+i : 5+i+i%3]
			c.Opt.SkipDocs = i%3 == 2
			r := mustSubmit(t, h, c)
			r.Release()
		}
		docsIntact(t, what+", after Release and the record's reuse", kept)

		// Cached: the hit's entry is evicted and its record recycled.
		ch := newCachedHost(t, devs, 8*entry)
		mustSubmit(t, ch, one)
		hit := mustSubmit(t, ch, one)
		hitPattern(t, what+", repeat", hit.QueryStats, "H")
		kept = keepHeaders(hit.Results)
		hit.Release()
		db, err := ch.hostDB(one.DBID)
		if err != nil {
			t.Fatal(err)
		}
		rec := db.cache.lruHead
		key := slices.Clone(rec.key)
		mustSubmit(t, ch, HostCommand{Opcode: one.Opcode, DBID: one.DBID, Queries: testData.Queries[1:9], K: one.K, Opt: one.Opt})
		if db.cache.find(key, keyHash(key)) != nil || db.cache.find(rec.key, keyHash(rec.key)) != rec {
			t.Fatalf("%s: the served entry was not evicted and its record recycled", what)
		}
		docsIntact(t, what+", after the cached result's eviction", kept)

		// Mutated, on a layout whose compaction takes many rows: the
		// results are deleted with the first third of the base, a
		// compaction erases the rows that leaves below its threshold, and
		// appends with documents of their own program the freed ones.
		var m submitter
		if devs == 1 {
			e, err := New(gcTestCfg(), 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			m = e
		} else {
			sh, err := NewSharded(gcTestCfg(), devs, 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			m = sh
		}
		base := testData.Vectors[:900]
		mustSubmit(t, m, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{ID: 1, Vectors: base, Docs: testData.Docs[:900], DocSlotBytes: 256}})
		flat := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:4], K: 10}
		kept = keepHeaders(mustSubmit(t, m, flat).Results)
		var del []int
		for _, res := range kept {
			for _, r := range res {
				del = append(del, r.ID)
			}
		}
		for id := range len(base) / 3 {
			del = append(del, id)
		}
		slices.Sort(del)
		del = slices.Compact(del)
		mustSubmit(t, m, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: del}})
		wear := mustSubmit(t, m, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}).Wear
		if wear.BlockErases == 0 {
			t.Fatalf("%s: the compaction erased nothing: %+v", what, wear)
		}
		vecs := scaleInto(testData.Vectors[900:], maxAbs(base))
		docs := make([][]byte, len(vecs))
		for i := range docs {
			docs[i] = bytes.Repeat([]byte{byte(i)}, 256)
		}
		mustSubmit(t, m, HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: vecs, Docs: docs}})
		mustSubmit(t, m, flat)
		docsIntact(t, what+", after delete, compaction and append", kept)
	}
}

// TestSpilledDocumentsStayPut: a document shorter than its slot leaves
// its page's stored bytes ending inside the page's last written slot, so
// the tail materializes that document into its spill block, which it
// only ever appends to. Four goroutines search concurrently, each
// holding every response it was handed and rereading every document it
// holds while the others' commands spill more; each document still reads
// as deployed (and, under the race detector, no reread races a spill).
func TestSpilledDocumentsStayPut(t *testing.T) {
	e := newEngine(t, AllOptions())
	docs := make([][]byte, len(testData.Vectors))
	for i := range docs {
		docs[i] = fmt.Appendf(nil, "short document %d", i)
	}
	mustSubmit(t, e, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{ID: 1, Vectors: testData.Vectors, Docs: docs, DocSlotBytes: 256}})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]DocResult
			for i := range 6 {
				q := testData.Queries[(g*6+i)%len(testData.Queries):][:1]
				resp, err := e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: q, K: 10})
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, resp.Results[0])
				for _, res := range held {
					for _, r := range res {
						want := make([]byte, 256)
						copy(want, docs[r.ID])
						if !bytes.Equal(r.Doc, want) {
							t.Errorf("goroutine %d: the document of id %d reads %q", g, r.ID, r.Doc)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(e.hostCore.scr.tail.docSpill) == 0 {
		t.Fatal("no document was spilled: the test's documents all end at a slot boundary")
	}
}

// keepHeaders copies a command's result records, which their blocks'
// next command writes over, but not their documents.
func keepHeaders(results [][]DocResult) [][]DocResult {
	kept := make([][]DocResult, len(results))
	for i, res := range results {
		kept[i] = slices.Clone(res)
	}
	return kept
}

// docsIntact checks that every kept result's document is still the
// corpus document of its id.
func docsIntact(t *testing.T, what string, results [][]DocResult) {
	t.Helper()
	for i, res := range results {
		if len(res) == 0 {
			t.Fatalf("%s: query %d kept no results", what, i)
		}
		for _, r := range res {
			if !bytes.Equal(r.Doc, testData.Docs[r.ID]) {
				t.Fatalf("%s: query %d's document of id %d changed", what, i, r.ID)
			}
		}
	}
}

// hitPattern checks each query's result-cache outcome: H a hit, M a miss.
func hitPattern(t *testing.T, what string, sts []QueryStats, want string) {
	t.Helper()
	got := make([]byte, len(sts))
	for i, st := range sts {
		got[i] = "MH"[st.ResultCacheHits]
	}
	if string(got) != want {
		t.Fatalf("%s: hits %s, want %s", what, got, want)
	}
}

// writesIsolated writes into the first query's results (not their
// documents, which are read-only views of flash), then checks that every
// other query still holds what it was handed.
func writesIsolated(t *testing.T, what string, results [][]DocResult) {
	t.Helper()
	want := cloneAll(results)
	for j := range results[0] {
		r := &results[0][j]
		r.ID, r.Dist = -2, -2
	}
	if !reflect.DeepEqual(results[1:], want[1:]) {
		t.Fatalf("%s: writing into the first query's results changed another query's", what)
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
		want[i] = cloneResults(res)
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

// cloneResults deep-copies a query's results, documents included.
func cloneResults(res []DocResult) []DocResult {
	cp := slices.Clone(res)
	for i := range cp {
		cp[i].Doc = slices.Clone(cp[i].Doc)
	}
	return cp
}

// cachedHost is a host whose databases each own a result cache.
type cachedHost interface {
	submitter
	searcher
	hostDB(int) (*rdbEntry, error)
	CacheStats(int) (CacheStats, error)
	NewQueue(QueueConfig) (*Queue, error)
}

// newCachedHost deploys the shared test dataset on a host of devs
// devices whose databases each get budget bytes of caching tier. On
// testCfg no probe ever outgrows one wave, so nothing is pinned and the
// result LRU holds the whole budget.
func newCachedHost(t *testing.T, devs int, budget int64) cachedHost {
	t.Helper()
	cfg := testCfg()
	cfg.CacheDRAMBytes = budget
	var h cachedHost
	if devs == 1 {
		e, err := New(cfg, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		h = e
	} else {
		sh, err := NewSharded(cfg, devs, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		h = sh
	}
	deployBoth(t, h.Submit)
	return h
}

// resultEntryBytes is what one cached IVF result of the shared test
// dataset takes of the LRU's budget.
func resultEntryBytes(t *testing.T, cmd HostCommand) int64 {
	t.Helper()
	h := newCachedHost(t, 1, 1<<20)
	if _, _, _, err := searchFresh(context.Background(), h, &cmd, testData.Queries[:1], true); err != nil {
		t.Fatal(err)
	}
	cs, err := h.CacheStats(cmd.DBID)
	if err != nil || cs.ResultEntries != 1 {
		t.Fatalf("one stored result: %+v, %v", cs, err)
	}
	return cs.ResultBytes
}

// TestCachedCommandAllocsConstant: a cached search command allocates
// what an uncached one does — its results, stats and PerShard rows once,
// and one results block that its hits and its misses share. Once the LRU
// is full, a store takes over the record it evicts, key buffer and all,
// and allocates nothing. A store into room the LRU has left grows the
// cache by a record, its key and its results, and nothing else: the
// documents are views of flash, shared, not copied. Every hit and miss pattern is checked
// on every measured command.
func TestCachedCommandAllocsConstant(t *testing.T) {
	ctx := context.Background()
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}
	entry := resultEntryBytes(t, cmd)
	hot, cold := testData.Queries[:8], testData.Queries[8:24]
	// Queries no command has seen: each one misses.
	fresh := make([][]float32, 512)
	for i := range fresh {
		fresh[i] = slices.Clone(testData.Queries[i%len(testData.Queries)])
		fresh[i][0] += float32(i+1) * 1e-3
	}
	for _, devs := range []int{1, 2, 4} {
		for _, mode := range []struct {
			name   string
			budget int64 // the LRU's, in entries
		}{{"evicting", 8}, {"room-left", 512}} {
			h := newCachedHost(t, devs, mode.budget*entry)
			base, _ := commandAllocs(t, h, cmd, hot)
			// Misses rotate through queries the LRU no longer holds: on the
			// 8-entry LRU a cold query returns after 16 other stores; with
			// room left, a miss is a query never served before.
			next := 0
			miss := func() []float32 {
				next++
				if mode.name == "evicting" {
					return cold[next%len(cold)]
				}
				return fresh[next%len(fresh)]
			}
			buf := make([][]float32, 8)
			readings := ""
			for _, tc := range []struct {
				name  string
				nq    int
				isHit func(i int) bool
			}{
				{"all-hit", 1, func(int) bool { return true }},
				{"all-hit", 8, func(int) bool { return true }},
				{"all-miss", 1, func(int) bool { return false }},
				{"all-miss", 8, func(int) bool { return false }},
				{"mixed", 8, func(i int) bool { return i%2 == 0 }},
			} {
				queries := buf[:tc.nq]
				stored := 0
				for i := range queries {
					if !tc.isHit(i) {
						stored++
					}
				}
				fill := func() {
					hits := 0
					for i := range queries {
						if tc.isHit(i) {
							queries[i] = hot[hits]
							hits++
						} else {
							queries[i] = miss()
						}
					}
				}
				wrong := -1
				out := new(outBlocks)
				serve := func() {
					fill()
					*out = outBlocks{}
					if err := h.search(ctx, &cmd, queries, true, out); err != nil {
						t.Fatal(err)
					}
					for i, st := range out.sts {
						if (st.ResultCacheHits == 1) != tc.isHit(i) {
							wrong = i
						}
					}
				}
				// Stores the hot queries the command hits, and sizes the
				// pooled scratch for every query of the rotation.
				for range 24 {
					serve()
				}
				wrong = -1
				before, _ := h.CacheStats(cmd.DBID)
				got := testing.AllocsPerRun(10, serve)
				after, _ := h.CacheStats(cmd.DBID)
				what := fmt.Sprintf("%d devices, %s LRU, %s command of %d", devs, mode.name, tc.name, tc.nq)
				if wrong >= 0 {
					t.Fatalf("%s: query %d was not the hit or miss the test set up", what, wrong)
				}
				evicted := after.ResultEvictions - before.ResultEvictions
				want := base
				if mode.name == "evicting" {
					if evicted != int64(11*stored) {
						t.Errorf("%s: %d evictions over 11 commands, want one per store (%d)", what, evicted, 11*stored)
					}
				} else {
					if evicted != 0 {
						t.Errorf("%s: %d evictions in an LRU with room left", what, evicted)
					}
					want = base + float64(3*stored)
				}
				if got > want {
					t.Errorf("%s: %.1f allocs/command, want at most %.0f (uncached %.0f, %d stored)", what, got, want, base, stored)
				}
				readings += fmt.Sprintf(" %s/q=%d:%.1f", tc.name, tc.nq, got)
			}
			t.Logf("%d devices, %s LRU, uncached %.1f:%s", devs, mode.name, base, readings)
		}
	}
}

// cloneAll deep-copies a command's results.
func cloneAll(results [][]DocResult) [][]DocResult {
	cp := make([][]DocResult, len(results))
	for i, res := range results {
		cp[i] = cloneResults(res)
	}
	return cp
}

// TestMixedContextGroupAllocs: a coalesced group whose members carry
// different contexts polls them through the dispatcher's own groupCtx, so
// it allocates what a group sharing one context does, and the
// dispatcher lets go of the members' contexts once the group has run.
func TestMixedContextGroupAllocs(t *testing.T) {
	drainOutPool()
	e := newEngine(t, AllOptions())
	deployBoth(t, e.Submit)
	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	a := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4}}
	b := a
	b.Queries = testData.Queries[4:8]
	other, cancel := context.WithCancel(context.Background())
	defer cancel()
	var failed error
	var done uint64
	group := func(ctxB context.Context) func() {
		return func() {
			q.pause()
			ida, err := q.SubmitAsync(context.Background(), a)
			if err != nil {
				failed = err
			}
			idb, err := q.SubmitAsync(ctxB, b)
			if err != nil {
				failed = err
			}
			q.resume()
			// Both completions park before either Wait, so no Wait takes a
			// channel from its pool, which the race detector thins.
			for done += 2; q.Stats().Completed < done; {
				runtime.Gosched()
			}
			for _, id := range []CommandID{ida, idb} {
				if _, err := q.Wait(context.Background(), id); err != nil {
					failed = err
				}
			}
		}
	}
	same := testing.AllocsPerRun(10, group(context.Background()))
	mixed := testing.AllocsPerRun(10, group(other))
	if failed != nil {
		t.Fatal(failed)
	}
	if st := q.Stats(); st.Dispatches != 22 || st.Coalesced != 44 {
		t.Fatalf("not every pair of commands coalesced: %+v", st)
	}
	t.Logf("a group of two commands: %.1f allocs with one context, %.1f with two", same, mixed)
	if mixed != same {
		t.Errorf("a group with two contexts allocates %.1f, one with a shared context %.1f", mixed, same)
	}
	for _, ctx := range q.gctx.ctxs[:cap(q.gctx.ctxs)] {
		if ctx != nil {
			t.Fatal("the dispatcher still holds a member's context after the group ran")
		}
	}
}
