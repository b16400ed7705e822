package reis

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"reis/internal/ann"
	"reis/internal/ssd"
)

// mutTestCfg is the shard test config with append/GC headroom.
func mutTestCfg() ssd.Config {
	cfg := testCfg()
	cfg.OverprovisionPct = 200
	return cfg
}

// mutCorpus is the shared mutation scenario: a base deploy, two append
// batches, and a delete set, with the appended vectors scaled so the
// final corpus has the same INT8 quantization scale as the base (the
// symmetric scale is the max absolute component; keeping the maximum
// in the base makes a fresh deploy of the final corpus bit-comparable).
type mutCorpus struct {
	base      [][]float32
	baseDocs  [][]byte
	batch1    [][]float32
	b1Docs    [][]byte
	batch2    [][]float32
	b2Docs    [][]byte
	cents     [][]float32
	assign    []int // over base ++ batch1 ++ batch2
	deleteIdx []int // corpus indices (into base ++ batch1) to delete
}

func maxAbs(vs [][]float32) float32 {
	var m float32
	for _, v := range vs {
		for _, x := range v {
			if x < 0 {
				x = -x
			}
			if x > m {
				m = x
			}
		}
	}
	return m
}

func scaleInto(vs [][]float32, limit float32) [][]float32 {
	m := maxAbs(vs)
	if m < limit {
		return vs
	}
	f := limit * 0.99 / m
	out := make([][]float32, len(vs))
	for i, v := range vs {
		w := make([]float32, len(v))
		for j, x := range v {
			w[j] = x * f
		}
		out[i] = w
	}
	return out
}

func newMutCorpus() *mutCorpus {
	const nBase, nB1, nB2 = 900, 80, 60
	all := testData.Vectors
	c := &mutCorpus{
		base:     all[:nBase],
		baseDocs: testData.Docs[:nBase],
		b1Docs:   testData.Docs[nBase : nBase+nB1],
		b2Docs:   testData.Docs[nBase+nB1 : nBase+nB1+nB2],
	}
	limit := maxAbs(c.base)
	c.batch1 = scaleInto(all[nBase:nBase+nB1], limit)
	c.batch2 = scaleInto(all[nBase+nB1:nBase+nB1+nB2], limit)
	corpus := make([][]float32, 0, nBase+nB1+nB2)
	corpus = append(corpus, c.base...)
	corpus = append(corpus, c.batch1...)
	corpus = append(corpus, c.batch2...)
	c.cents, c.assign = ann.KMeans(corpus, ann.KMeansConfig{K: 12, Seed: 11})
	// Delete a deterministic spread of base and batch-1 entries.
	for i := 7; i < nBase; i += 9 {
		c.deleteIdx = append(c.deleteIdx, i)
	}
	for i := 3; i < nB1; i += 5 {
		c.deleteIdx = append(c.deleteIdx, nBase+i)
	}
	return c
}

// runMutScript deploys the corpus (flat or IVF), applies the appends
// and deletes with searches interleaved, and returns every response in
// order. compact, when non-zero, issues an OpcodeCompact with that
// threshold before the final searches.
func runMutScript(t *testing.T, h submitter, c *mutCorpus, ivf bool, compact float64) []HostResponse {
	t.Helper()
	deploy := &DeployConfig{ID: 1, Vectors: c.base, Docs: c.baseDocs, DocSlotBytes: 256}
	op := OpcodeDBDeploy
	var a1, a2 []int
	if ivf {
		op = OpcodeIVFDeploy
		deploy.Centroids = c.cents
		deploy.Assign = c.assign[:len(c.base)]
		a1 = c.assign[len(c.base) : len(c.base)+len(c.batch1)]
		a2 = c.assign[len(c.base)+len(c.batch1):]
	}
	searchOp := OpcodeSearch
	nprobe := 0
	if ivf {
		searchOp = OpcodeIVFSearch
		nprobe = 4
	}
	search := func() HostCommand {
		return HostCommand{Opcode: searchOp, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: nprobe}}
	}
	var resps []HostResponse
	run := func(cmd HostCommand) HostResponse {
		t.Helper()
		resp, err := h.Submit(cmd)
		if err != nil {
			t.Fatalf("opcode %#x: %v", cmd.Opcode, err)
		}
		resps = append(resps, resp)
		return resp
	}
	run(HostCommand{Opcode: op, Deploy: deploy})
	run(search())
	r1 := run(HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: c.batch1, Docs: c.b1Docs, Assign: a1}})
	run(search())
	// Resolve corpus delete indices to device ids via the append's
	// AppendedIDs (base ids are the corpus index).
	var delIDs []int
	for _, idx := range c.deleteIdx {
		if idx < len(c.base) {
			delIDs = append(delIDs, idx)
		} else {
			delIDs = append(delIDs, r1.AppendedIDs[idx-len(c.base)])
		}
	}
	run(HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: delIDs}})
	run(search())
	run(HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: c.batch2, Docs: c.b2Docs, Assign: a2}})
	run(search())
	if compact != 0 {
		run(HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: compact}})
		run(search())
	}
	return resps
}

// cmdRecorder records the commands a script submits, so the same history
// can be replayed command by command on another host.
type cmdRecorder struct {
	submitter
	cmds []HostCommand
}

func (r *cmdRecorder) Submit(cmd HostCommand) (HostResponse, error) {
	r.cmds = append(r.cmds, cmd)
	return r.submitter.Submit(cmd)
}

// TestOneDeviceMutateWhileSearching is the lock-order stress of the
// host core over a single device (run under -race in CI): a host and
// its only device each have a lock, a search holds both for the whole
// command and a mutation takes the device's per page operation, so
// mutating while searches are in flight would deadlock, or race, if
// either path took them in the other order. The mutation history runs
// on the test goroutine against concurrent searches of the same database
// — synchronous, pruned, queued, and the cache-bypassing kind
// CalibrateNProbe runs outside any queue pair; every response of the
// history must still equal the sequential reference's.
func TestOneDeviceMutateWhileSearching(t *testing.T) {
	type stressHost interface {
		submitter
		searcher
		NewQueue(QueueConfig) (*Queue, error)
	}
	c := newMutCorpus()
	ref, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	rec := &cmdRecorder{submitter: ref}
	want := runMutScript(t, rec, c, true, 0.9)

	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	sh, err := NewSharded(mutTestCfg(), 1, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	for name, h := range map[string]stressHost{"engine": e, "one-shard": sh} {
		t.Run(name, func(t *testing.T) {
			if _, err := h.Submit(rec.cmds[0]); err != nil { // the deploy
				t.Fatal(err)
			}
			q, err := h.NewQueue(QueueConfig{Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			queries := testData.Queries[:6]
			search := HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 4}}
			pruned := search
			pruned.Opt.Prune = true
			searchers := []func() error{
				func() error {
					_, _, _, err := searchFresh(context.Background(), h, &search, queries, false)
					return err
				},
				func() error { _, err := h.Submit(search); return err },
				func() error { _, err := h.Submit(pruned); return err },
				func() error {
					id, err := q.SubmitAsync(context.Background(), search)
					if err != nil {
						return err
					}
					_, err = q.Wait(context.Background(), id)
					return err
				},
			}
			stop := make(chan struct{})
			errs := make(chan error, len(searchers))
			var wg sync.WaitGroup
			for _, f := range searchers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := f(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			for i, cmd := range rec.cmds[1:] {
				got, err := h.Submit(cmd)
				if err != nil {
					t.Errorf("command %d (opcode %#x): %v", i+1, cmd.Opcode, err)
					break
				}
				if d := respDiff(want[i+1], got); d != "" {
					t.Errorf("command %d (opcode %#x) differs from the sequential reference: %s", i+1, cmd.Opcode, d)
					break
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Errorf("concurrent search: %v", err)
			}
		})
	}
}

// TestCompactPreservesResults pins the collector's core invariant:
// compaction preserves every cluster's scan order, so search results
// are bit-identical before and after, while the live extent shrinks
// and victim blocks are erased. A second compaction with no dead
// entries is a no-op.
func TestCompactPreservesResults(t *testing.T) {
	c := newMutCorpus()
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	resps := runMutScript(t, e, c, true, 0)
	before := resps[len(resps)-1]

	compact := HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}
	wear := mustSubmit(t, e, compact).Wear
	if wear.CompactedRows == 0 || wear.BlockErases == 0 || wear.copiedEntries == 0 {
		t.Fatalf("compaction did not run: %+v", wear)
	}
	if wear.MaxBlockErase == 0 {
		t.Fatalf("erase accounting missing: %+v", wear)
	}
	after, err := e.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatal("compaction changed search results")
	}
	// Scan cost must not grow; the brute-force plan shrinks to the
	// canonical single range.
	if after.Stats.FinePages > before.Stats.FinePages {
		t.Fatalf("compaction grew fine pages: %d > %d", after.Stats.FinePages, before.Stats.FinePages)
	}
	db, err := e.hostDB(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.mut.flatPlan); got != 1 {
		t.Fatalf("flat plan not canonical after compaction: %d ranges", got)
	}
	if db.mut.deadCount != 0 {
		t.Fatalf("tombstones survive compaction: %d", db.mut.deadCount)
	}

	again := mustSubmit(t, e, compact).Wear
	if again.CompactedRows != 0 || again.BlockErases != 0 || again.pagesProgrammed != 0 {
		t.Fatalf("compaction of a clean database not a no-op: %+v", again)
	}
}

// TestMutationDeterministicAcrossRuns: the same script on a fresh
// engine yields byte-identical responses, twice.
func TestMutationDeterministicAcrossRuns(t *testing.T) {
	c := newMutCorpus()
	var first []HostResponse
	for run := 0; run < 2; run++ {
		e, err := New(mutTestCfg(), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		resps := runMutScript(t, e, c, true, 0.9)
		e.Close()
		if first == nil {
			first = resps
			continue
		}
		for i := range first {
			if d := respDiff(first[i], resps[i]); d != "" {
				t.Fatalf("run %d: response %d not deterministic: %s", run, i, d)
			}
		}
	}
}

// TestMutationErrors exercises every mutation failure path and its
// sentinel, and checks that failed commands leave the database
// untouched.
func TestMutationErrors(t *testing.T) {
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 8)
	vec := testData.Vectors[0]
	doc := testData.Docs[0]

	cases := []struct {
		name string
		cmd  HostCommand
		want error
	}{
		{"append-missing-payload", HostCommand{Opcode: OpcodeAppend, DBID: 1}, errMissingPayload},
		{"append-empty", HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{}}, errNoItems},
		{"append-docs-mismatch", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: [][]float32{vec}}}, errMissingPayload},
		{"append-dim-mismatch", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: [][]float32{vec, vec[:8]}, Docs: [][]byte{doc, doc}}}, errQueryDims},
		{"append-wrong-dim", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: [][]float32{vec[:8]}, Docs: [][]byte{doc}}}, errQueryDims},
		{"append-assign-on-flat", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: [][]float32{vec}, Docs: [][]byte{doc}, Assign: []int{0}}}, errBadAssign},
		{"append-no-assign-on-ivf", HostCommand{Opcode: OpcodeAppend, DBID: 2,
			Append: &AppendConfig{Vectors: [][]float32{vec}, Docs: [][]byte{doc}}}, errBadAssign},
		{"append-cluster-range", HostCommand{Opcode: OpcodeAppend, DBID: 2,
			Append: &AppendConfig{Vectors: [][]float32{vec}, Docs: [][]byte{doc}, Assign: []int{99}}}, errBadAssign},
		{"delete-missing-payload", HostCommand{Opcode: OpcodeDelete, DBID: 1}, errMissingPayload},
		{"delete-empty", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{}}, errNoItems},
		{"delete-negative", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{-1}}}, errUnknownID},
		{"delete-unknown", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{1 << 20}}}, errUnknownID},
		{"delete-duplicate", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{5, 5}}}, errUnknownID},
		{"compact-missing-payload", HostCommand{Opcode: OpcodeCompact, DBID: 1}, errMissingPayload},
		{"compact-bad-threshold", HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 1.5}}, errBadThreshold},
	}
	for _, tc := range cases {
		if _, err := e.Submit(tc.cmd); !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}

	// Double delete across commands.
	del := func(ids ...int) error {
		_, err := e.Submit(HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: ids}})
		return err
	}
	if err := del(5); err != nil {
		t.Fatal(err)
	}
	if err := del(5); !errors.Is(err, errUnknownID) {
		t.Fatalf("double delete: %v", err)
	}
	// A failed batch delete (one bad id) must apply nothing.
	if err := del(6, 5); !errors.Is(err, errUnknownID) {
		t.Fatalf("partial delete: %v", err)
	}
	if err := del(6); err != nil {
		t.Fatalf("id 6 was deleted by a failed batch: %v", err)
	}
}

// TestAppendFullSentinel: with zero overprovisioning the first append
// fails with ssd.ErrRegionFull and leaves search behaviour untouched.
func TestAppendFullSentinel(t *testing.T) {
	cfg := testCfg() // OverprovisionPct zero
	e, err := New(cfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployFlat(t, e, 1)
	before, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	_, err = e.Submit(HostCommand{Opcode: OpcodeAppend, DBID: 1,
		Append: &AppendConfig{Vectors: testData.Vectors[:1], Docs: testData.Docs[:1]}})
	if !errors.Is(err, ssd.ErrRegionFull) {
		t.Fatalf("append on full: %v", err)
	}
	after, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed append changed search results")
	}
}

// TestOverprovisionValidation: ssd.New rejects out-of-range settings.
func TestOverprovisionValidation(t *testing.T) {
	for _, pct := range []int{-1, 401} {
		cfg := testCfg()
		cfg.OverprovisionPct = pct
		if _, err := New(cfg, 0, AllOptions()); err == nil {
			t.Fatalf("OverprovisionPct %d accepted", pct)
		}
	}
}

// TestMutationInvalidatesCalibration: recorded nprobe calibrations are
// dropped by any mutation, so TargetRecall commands fail until
// recalibrated — on both topologies.
func TestMutationInvalidatesCalibration(t *testing.T) {
	run := func(t *testing.T, h submitter, calibrate func() error) {
		t.Helper()
		cents, assign := ann.KMeans(testData.Vectors, ann.KMeansConfig{K: 16, Seed: 9})
		if _, err := h.Submit(HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{
			ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
			Centroids: cents, Assign: assign,
		}}); err != nil {
			t.Fatal(err)
		}
		if err := calibrate(); err != nil {
			t.Fatal(err)
		}
		cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:2], K: 10, TargetRecall: 0.9}
		if _, err := h.Submit(cmd); err != nil {
			t.Fatalf("calibrated search: %v", err)
		}
		if _, err := h.Submit(HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{
			Vectors: testData.Vectors[:1], Docs: testData.Docs[:1], Assign: assign[:1],
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit(cmd); !errors.Is(err, errNotCalibrated) {
			t.Fatalf("TargetRecall after append: %v", err)
		}
	}
	t.Run("single", func(t *testing.T) {
		e, err := New(mutTestCfg(), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		run(t, e, func() error {
			_, err := e.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.9)
			return err
		})
	})
	t.Run("sharded", func(t *testing.T) {
		sh, err := NewSharded(mutTestCfg(), 2, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		run(t, sh, func() error {
			_, err := sh.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.9)
			return err
		})
	})
}

// TestDeletedNeverSurface: tombstoned ids disappear from every search
// entry point immediately, and metadata-filtered searches agree.
func TestDeletedNeverSurface(t *testing.T) {
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployIVF(t, e, 1, 16)
	q := testData.Queries[0]
	res, _ := searchOne(t, e, OpcodeIVFSearch, 1, q, 10, SearchOptions{NProbe: 16})
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// Delete the entire current top-k; none may surface again.
	ids := make([]int, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	mustSubmit(t, e, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: ids}})
	gone := make(map[int]bool, len(ids))
	for _, id := range ids {
		gone[id] = true
	}
	again, _ := searchOne(t, e, OpcodeIVFSearch, 1, q, 10, SearchOptions{NProbe: 16})
	for _, r := range again {
		if gone[r.ID] {
			t.Fatalf("deleted id %d surfaced", r.ID)
		}
	}
	batch, _ := search(t, e, OpcodeSearch, 1, [][]float32{q}, 10, SearchOptions{})
	for _, r := range batch[0] {
		if gone[r.ID] {
			t.Fatalf("deleted id %d surfaced on the flat batch path", r.ID)
		}
	}
	db, err := e.hostDB(1)
	if err != nil {
		t.Fatal(err)
	}
	if db.mut.live != testData.Len()-len(ids) {
		t.Fatalf("live = %d, want %d", db.mut.live, testData.Len()-len(ids))
	}
}

// TestShardedLiveAfterDeletes: the host's ledger counts live entries on
// every topology, padding slots and tombstones excluded.
func TestShardedLiveAfterDeletes(t *testing.T) {
	for _, n := range []int{1, 2} {
		sh := newSharded(t, n)
		deployBoth(t, sh.Submit)
		ids := []int{0, 5, 17, 333}
		mustSubmit(t, sh, HostCommand{Opcode: OpcodeDelete, DBID: 2, Del: &DeleteConfig{IDs: ids}})
		for id, want := range map[int]int{1: testData.Len(), 2: testData.Len() - len(ids)} {
			db, err := sh.hostDB(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := db.mut.live; got != want {
				t.Fatalf("%d shard(s), database %d: live = %d, want %d", n, id, got, want)
			}
		}
	}
}
