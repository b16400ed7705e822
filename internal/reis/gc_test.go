package reis

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"reis/internal/ssd"
)

// The background-GC tests need a corpus that spans MANY erase rows:
// under testCfg the whole mutation corpus fits inside a single GC
// row (8 global planes x 16 pages per block = 128 row pages), so a
// compaction is one copy-forward step and nothing can interleave.
// gcTestCfg shrinks the block shape instead — two pages per block, two
// planes per single-die, single-channel device — so a GC row is 4n
// pages on an n-shard topology and the mutation corpus spreads across
// a dozen-plus victim rows.
func gcTestCfg() ssd.Config {
	cfg := testCfg()
	cfg.Geo.Channels = 1
	cfg.Geo.DiesPerChannel = 1
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 256
	cfg.Geo.PagesPerBlock = 2
	cfg.Geo.PageBytes = 2048
	cfg.Geo.OOBBytes = 189 // 21 embedding slots per page (OOB-bound)
	cfg.OverprovisionPct = 200
	return cfg
}

// TestBackgroundGCInterleavedSearches is TestCompactPreservesResults
// extended into an interleaving test, on a layout where compaction
// takes many copy-forward steps: after every committed step of a
// background compaction, a search issued between steps must be
// bit-identical to the never-compacted state AND to the fully
// compacted state — on flat and IVF databases, across 1/2/4 shards —
// with no quiesce anywhere in the mutation API.
func TestBackgroundGCInterleavedSearches(t *testing.T) {
	c := newMutCorpus()
	for _, ivf := range []bool{false, true} {
		name := "flat"
		if ivf {
			name = "ivf"
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range shardCounts {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					// Either facade's core: the hook is its field.
					var h *hostCore
					if n == 1 {
						e, err := New(gcTestCfg(), 64<<20, AllOptions())
						if err != nil {
							t.Fatal(err)
						}
						h = &e.hostCore
					} else {
						sh, err := NewSharded(gcTestCfg(), n, 64<<20, AllOptions())
						if err != nil {
							t.Fatal(err)
						}
						h = &sh.hostCore
					}
					t.Cleanup(func() { h.Close() })

					resps := runMutScript(t, h, c, ivf, 0)
					want := resps[len(resps)-1].Results

					// The hook runs, with no lock held, on the goroutine of the
					// dispatcher that committed the copy-forward step. The
					// compaction therefore goes to a queue pair of its own and
					// the hook probes through the host's built-in pair — on the
					// compaction's pair Submit would wait on the very
					// dispatcher it is standing on.
					q, err := h.NewQueue(QueueConfig{})
					if err != nil {
						t.Fatal(err)
					}
					defer q.Close()
					compact := HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}
					var steps [][][]DocResult
					h.testGCStepHook = func() {
						r, err := h.Submit(mutSearchCmd(ivf))
						if err != nil {
							t.Errorf("mid-GC search: %v", err)
						}
						steps = append(steps, r.Results)
					}
					id, err := q.SubmitAsync(context.Background(), compact)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := q.Wait(context.Background(), id)
					h.testGCStepHook = nil
					if err != nil {
						t.Fatal(err)
					}
					if resp.Wear.CompactedRows < 2 {
						t.Fatalf("compaction took %d steps; the interleaving test needs >= 2", resp.Wear.CompactedRows)
					}
					if len(steps) != resp.Wear.CompactedRows {
						t.Fatalf("hook ran %d times for %d compacted rows", len(steps), resp.Wear.CompactedRows)
					}
					for i, s := range steps {
						if !reflect.DeepEqual(s, want) {
							t.Fatalf("search after GC step %d/%d differs from the never-compacted state", i+1, len(steps))
						}
					}
					if after := mustSubmit(t, h, mutSearchCmd(ivf)).Results; !reflect.DeepEqual(after, want) {
						t.Fatal("fully compacted state differs from the never-compacted state")
					}
					again := mustSubmit(t, h, compact)
					if again.Wear.CompactedRows != 0 || again.Wear.BlockErases != 0 || again.Wear.pagesProgrammed != 0 {
						t.Fatalf("second compaction was not a no-op: %+v", again.Wear)
					}
				})
			}
		})
	}
}

// TestBackgroundGCInterleavesWithSearches pins the queue-level
// behaviour: a compaction submitted to an explicit queue pair is
// arbitrated against foreground searches by the stride scheduler, so
// searches COMPLETE while the compaction is still in flight (the GC
// never monopolizes the dispatcher), and their results match the
// pre-compaction state.
func TestBackgroundGCInterleavesWithSearches(t *testing.T) {
	c := newMutCorpus()
	e, err := New(gcTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	resps := runMutScript(t, e, c, true, 0)
	want := resps[len(resps)-1].Results

	const nSearch = 3
	q, err := e.NewQueue(QueueConfig{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })

	// Pause so the admission order is fixed before dispatch begins:
	// the compaction first, then the searches it must not starve —
	// each a dispatch of its own.
	q.pause()
	q.solo = true
	ctx := context.Background()
	compID, err := q.SubmitAsync(ctx, HostCommand{Opcode: OpcodeCompact, DBID: 1,
		Compact: &CompactConfig{MinLiveRatio: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	searchIDs := make([]CommandID, nSearch)
	for i := range searchIDs {
		searchIDs[i], err = q.SubmitAsync(ctx, HostCommand{
			Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}})
		if err != nil {
			t.Fatal(err)
		}
	}
	q.resume()
	order := parkedOrder(t, q, nSearch+1)

	comp := waitOK(t, q, compID)
	if comp.Wear.CompactedRows <= nSearch {
		t.Fatalf("compaction took %d steps; need more than the %d searches for an interleaving test", comp.Wear.CompactedRows, nSearch)
	}
	for i, id := range searchIDs {
		if !reflect.DeepEqual(waitOK(t, q, id).Results, want) {
			t.Fatalf("search %d results differ from the pre-compaction state", i)
		}
	}
	// A GC flight strides like one more tenant, at the searches' weight:
	// one copy-forward step, one search, and so on — so a compaction of
	// more rows than there are searches sees every search complete first.
	if slices.Index(order, compID) != nSearch {
		t.Fatalf("a %d-row compaction completed before %d searches did (completion order %v, compact %d)",
			comp.Wear.CompactedRows, nSearch, order, compID)
	}
}

// TestGCHoldsBackMutationsDuringFlight: a mutation on a database with
// a compaction in flight is held back until the flight retires — the
// journal order equals the application order — while searches keep
// flowing. No quiesce call exists; the ordering is the scheduler's.
func TestGCHoldsBackMutationsDuringFlight(t *testing.T) {
	c := newMutCorpus()
	e, err := New(gcTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	runMutScript(t, e, c, true, 0)
	jlBefore := len(e.JournalBytes())

	q, err := e.NewQueue(QueueConfig{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })

	a2 := c.assign[len(c.base)+len(c.batch1):]
	q.pause()
	ctx := context.Background()
	compID, err := q.SubmitAsync(ctx, HostCommand{Opcode: OpcodeCompact, DBID: 1,
		Compact: &CompactConfig{MinLiveRatio: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	appID, err := q.SubmitAsync(ctx, HostCommand{Opcode: OpcodeAppend, DBID: 1,
		Append: &AppendConfig{Vectors: c.batch2, Docs: c.b2Docs, Assign: a2}})
	if err != nil {
		t.Fatal(err)
	}
	srchID, err := q.SubmitAsync(ctx, HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: 4}})
	if err != nil {
		t.Fatal(err)
	}
	q.resume()
	order := parkedOrder(t, q, 3)

	for id, what := range map[CommandID]string{compID: "compact", appID: "append", srchID: "search"} {
		if _, err := q.Wait(ctx, id); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if slices.Index(order, appID) < slices.Index(order, compID) {
		t.Fatalf("append completed before the in-flight compaction (order %v)", order)
	}

	// Journal order == application order: the compaction record lands
	// at the pre-existing tail, the held-back append after it.
	jl := e.JournalBytes()
	offs, err := journalOffsets(jl)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 6 {
		t.Fatalf("journal has %d records, want 5", len(offs)-1)
	}
	if offs[3] != jlBefore {
		t.Fatalf("compaction journaled at offset %d, want the pre-flight tail %d", offs[3], jlBefore)
	}
	if frameOpcode(jl, offs[3]) != OpcodeCompact || frameOpcode(jl, offs[4]) != OpcodeAppend {
		t.Fatalf("journal tail opcodes %#x,%#x; want compact,append", frameOpcode(jl, offs[3]), frameOpcode(jl, offs[4]))
	}
}

// runChurn drives an append/delete/compact churn workload against a
// flat database: each round tombstones a fresh slice of the base and
// the whole previous round's batch, compacts, and appends a new batch.
// The logical tail grows past the planned region capacity, so it only
// survives because freed GC rows are recycled into subsequent appends.
func runChurn(t *testing.T, e *Engine, rounds, batch int) WearStats {
	t.Helper()
	base := testData.Vectors[:900]
	baseDocs := testData.Docs[:900]
	pool := scaleInto(testData.Vectors[900:], maxAbs(base))
	poolDocs := testData.Docs[900:]
	mustSubmit(t, e, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: base, Docs: baseDocs, DocSlotBytes: 256,
	}})
	var acc WearStats
	var prev []int
	at := 0
	for r := 0; r < rounds; r++ {
		// Tombstone 15 consecutive base entries (their row drops below
		// the live threshold, forcing survivor relocation) plus the
		// whole previous batch.
		del := make([]int, 0, 15+len(prev))
		for id := r * 30; id < r*30+15; id++ {
			del = append(del, id)
		}
		del = append(del, prev...)
		mustSubmit(t, e, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: del}})
		wear := mustSubmit(t, e, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}).Wear
		acc.CompactedRows += wear.CompactedRows
		acc.BlockErases += wear.BlockErases
		acc.copiedEntries += wear.copiedEntries
		acc.freedPages += wear.freedPages
		vecs := make([][]float32, batch)
		docs := make([][]byte, batch)
		for j := range vecs {
			vecs[j] = pool[(at+j)%len(pool)]
			docs[j] = poolDocs[(at+j)%len(poolDocs)]
		}
		at += batch
		prev = mustSubmit(t, e, HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: vecs, Docs: docs}}).AppendedIDs
	}
	return acc
}

// TestChurnRecyclesFreedRows is the long-churn regression test: before
// freed extents were recycled, a sustained append/delete/compact
// workload exhausted the embedding region's fresh rows and died with a
// spurious ssd.ErrRegionFull even though the live set fit comfortably.
// Now the logical tail runs past the planned capacity on recycled rows
// while the physical footprint stays fixed.
func TestChurnRecyclesFreedRows(t *testing.T) {
	const rounds, batch = 20, 63
	e, err := New(gcTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	acc := runChurn(t, e, rounds, batch)
	if acc.CompactedRows < rounds {
		t.Fatalf("churn compacted only %d rows over %d rounds", acc.CompactedRows, rounds)
	}
	if acc.freedPages == 0 {
		t.Fatalf("churn freed no pages: %+v", acc)
	}
	db, err := e.hostDB(1)
	if err != nil {
		t.Fatal(err)
	}
	if db.mut.binPages <= db.lay.embCap {
		t.Fatalf("logical tail %d pages never exceeded the planned capacity %d: churn too light to prove recycling",
			db.mut.binPages, db.lay.embCap)
	}
	if got, want := db.mut.live, 900-15*rounds+batch; got != want {
		t.Fatalf("live = %d, want %d", got, want)
	}
	res, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{})
	if len(res) != 10 {
		t.Fatalf("search after churn returned %d results", len(res))
	}
}

// TestWearLeveledPlacementReducesSkew: under the same churn workload,
// least-worn-first row placement (the default) yields a strictly lower
// maximum per-block erase count than the PR-5-era first-fit placement,
// which hammers the lowest freed rows.
func TestWearLeveledPlacementReducesSkew(t *testing.T) {
	churn := func(opts Options) int64 {
		e, err := New(gcTestCfg(), 64<<20, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		runChurn(t, e, 20, 63)
		return e.SSD.Dev.MaxEraseCount()
	}
	ff := AllOptions()
	ff.FirstFitPlacement = true
	firstFit := churn(ff)
	wearLeveled := churn(AllOptions())
	if wearLeveled == 0 {
		t.Fatal("churn erased nothing under wear-leveled placement")
	}
	if wearLeveled >= firstFit {
		t.Fatalf("wear-leveled MaxBlockErase %d not below first-fit %d", wearLeveled, firstFit)
	}
}

// TestWearStatsSumAcrossShards is the wear-accounting property test:
// for shards 1/2/4 against the N-times-channels single-device
// reference, the compaction's cumulative WearStats are bit-identical,
// the per-device program/erase counters sum exactly to the reference
// device's, MaxBlockErase is the true maximum over every shard's
// blocks, and the write-amplification ratio is exactly
// BytesProgrammed/PayloadBytes.
func TestWearStatsSumAcrossShards(t *testing.T) {
	c := newMutCorpus()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ref, err := New(refOf(gcTestCfg(), n), 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ref.Close() })
			want := runMutScript(t, ref, c, true, 0.9)
			sh, err := NewSharded(gcTestCfg(), n, 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			got := runMutScript(t, sh, c, true, 0.9)

			refWear, shWear := want[8].Wear, got[8].Wear
			if !reflect.DeepEqual(refWear, shWear) {
				t.Fatalf("compaction wear diverges\nsharded   %+v\nreference %+v", shWear, refWear)
			}
			if shWear.payloadBytes == 0 || shWear.bytesProgrammed < shWear.payloadBytes {
				t.Fatalf("write amplification accounting off: %+v", shWear)
			}
			if want := float64(shWear.bytesProgrammed) / float64(shWear.payloadBytes); shWear.WriteAmp != want {
				t.Fatalf("WriteAmp = %v, want %v", shWear.WriteAmp, want)
			}

			var progSum, eraseSum, maxErase int64
			for s := 0; s < n; s++ {
				d := sh.Shard(s).SSD.Dev
				progSum += d.Stats.PagePrograms.Load()
				eraseSum += d.Stats.BlockErases.Load()
				if m := d.MaxEraseCount(); m > maxErase {
					maxErase = m
				}
			}
			refDev := ref.SSD.Dev
			if progSum != refDev.Stats.PagePrograms.Load() {
				t.Fatalf("page programs: shards sum %d, reference %d", progSum, refDev.Stats.PagePrograms.Load())
			}
			if eraseSum != refDev.Stats.BlockErases.Load() {
				t.Fatalf("block erases: shards sum %d, reference %d", eraseSum, refDev.Stats.BlockErases.Load())
			}
			if maxErase != refDev.MaxEraseCount() {
				t.Fatalf("max block erase: shards max %d, reference %d", maxErase, refDev.MaxEraseCount())
			}
			if shWear.MaxBlockErase != maxErase {
				t.Fatalf("Wear.MaxBlockErase %d, device max %d", shWear.MaxBlockErase, maxErase)
			}
		})
	}
}
