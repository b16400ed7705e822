package reis

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Regression tests for teardown idempotency: Queue.Close and
// Engine.Close (and the sharded router's Close) must be safe to call
// repeatedly and concurrently, with open queues, blocked submitters
// and in-flight commands. Run under -race in CI.

func TestQueueDoubleClose(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitAsync(context.Background(), HostCommand{
		Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3,
	}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close error = %v, want ErrQueueClosed", err)
	}
}

func TestQueueConcurrentClose(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the dispatcher busy while closers race.
	var ids []CommandID
	for i := 0; i < 4; i++ {
		id, err := q.SubmitAsync(context.Background(), HostCommand{
			Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
	// Pending commands completed (normally or with ErrQueueClosed) and
	// their completions are still consumable.
	for _, id := range ids {
		if _, err := q.Wait(context.Background(), id); err != nil && !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("command %d after concurrent Close: %v", id, err)
		}
	}
	if n := q.Outstanding(); n != 0 {
		t.Fatalf("%d slots outstanding after every completion was consumed", n)
	}
}

func TestEngineCloseWithOpenQueues(t *testing.T) {
	e, err := New(testCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	deployFlat(t, e, 1)
	q1, err := e.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One queue already closed by its owner, one still open with a
	// pending command; engine close must handle both, twice, and
	// concurrently.
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.SubmitAsync(context.Background(), HostCommand{
		Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// New queue pairs and submissions are refused after close.
	if _, err := e.NewQueue(QueueConfig{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("NewQueue after Close error = %v, want ErrQueueClosed", err)
	}
	if _, err := e.Submit(HostCommand{
		Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3,
	}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close error = %v, want ErrQueueClosed", err)
	}
}

// TestQueueCloseDeregisters: pairs closed by their owner leave the
// engine's registry, so long-lived engines do not accumulate dead
// queues (and engine close does not re-close them).
func TestQueueCloseDeregisters(t *testing.T) {
	e := newEngine(t, AllOptions())
	for i := 0; i < 8; i++ {
		q, err := e.NewQueue(QueueConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
	e.reg.mu.Lock()
	n := len(e.reg.queues)
	e.reg.mu.Unlock()
	if n != 0 {
		t.Fatalf("registry holds %d queues after all were closed", n)
	}
}

func TestShardedCloseIdempotent(t *testing.T) {
	sh, err := NewSharded(shardTestCfg(), 2, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	deployBoth(t, sh.Submit)
	q, err := sh.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitAsync(context.Background(), HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:1], K: 3, Opt: SearchOptions{NProbe: 2},
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Close()
		}()
	}
	wg.Wait()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:1], K: 3, Opt: SearchOptions{NProbe: 2},
	}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close error = %v, want ErrQueueClosed", err)
	}
}

// TestSubmitAfterDefaultQueueClosed: closing the engine's built-in
// pair out from under it must not wedge Submit — a fresh default pair
// is established.
func TestSubmitAfterDefaultQueueClosed(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3}
	if _, err := e.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	e.reg.mu.Lock()
	defq := e.reg.defq
	e.reg.mu.Unlock()
	if defq == nil {
		t.Fatal("no default queue after Submit")
	}
	if err := defq.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(cmd); err != nil {
		t.Fatalf("Submit after default queue closed: %v", err)
	}
}

// TestCloseRejectsUndispatchedMutations: mutations queued but not yet
// dispatched when the queue closes are rejected deterministically with
// ErrQueueClosed — never half-applied: the engine's state, journal and
// search results are untouched.
func TestCloseRejectsUndispatchedMutations(t *testing.T) {
	c := newMutCorpus()
	e, err := New(mutTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	resps := runMutScript(t, e, c, true, 0)
	before := resps[len(resps)-1].Results
	jlBefore := len(e.JournalBytes())
	db, err := e.hostDB(1)
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := db.mut.live

	q, err := e.NewQueue(QueueConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	q.pause()
	ctx := context.Background()
	a2 := c.assign[len(c.base)+len(c.batch1):]
	ids := make([]CommandID, 0, 3)
	for _, cmd := range []HostCommand{
		{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: c.batch2, Docs: c.b2Docs, Assign: a2}},
		{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{0}}},
		{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}},
	} {
		id, err := q.SubmitAsync(ctx, cmd)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if _, err := q.Wait(ctx, id); !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("queued mutation %d: error %v, want ErrQueueClosed", i, err)
		}
	}
	if got := len(e.JournalBytes()); got != jlBefore {
		t.Fatalf("rejected mutations reached the journal: %d bytes, want %d", got, jlBefore)
	}
	if got := db.mut.live; got != liveBefore {
		t.Fatalf("rejected mutations changed the live count: %d, want %d", got, liveBefore)
	}
	after, err := e.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Results, before) {
		t.Fatal("rejected mutations changed search results")
	}
}

// TestCloseAbortsBackgroundGC: closing a queue with a compaction in
// flight aborts the flight at a step boundary — the original command
// completes with ErrQueueClosed, the rows already collected stay
// collected (every step commits a consistent state), searches are
// bit-identical to before, and a later compaction finishes the job.
func TestCloseAbortsBackgroundGC(t *testing.T) {
	c := newMutCorpus()
	e, err := New(gcRefCfg(1), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	resps := runMutScript(t, e, c, true, 0)
	before := resps[len(resps)-1].Results

	q, err := e.NewQueue(QueueConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// After the first committed copy-forward step, freeze the
	// dispatcher (pause is a flag set, safe from the dispatcher's own
	// goroutine) so Close provably races a live flight.
	stepped := make(chan struct{}, 1)
	e.testGCStepHook = func() {
		q.pause()
		select {
		case stepped <- struct{}{}:
		default:
		}
	}
	ctx := context.Background()
	id, err := q.SubmitAsync(ctx, HostCommand{Opcode: OpcodeCompact, DBID: 1,
		Compact: &CompactConfig{MinLiveRatio: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	<-stepped
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	e.testGCStepHook = nil
	if _, err := q.Wait(ctx, id); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("in-flight compaction: error %v, want ErrQueueClosed", err)
	}
	after, _ := search(t, e, OpcodeIVFSearch, 1, testData.Queries, 10, SearchOptions{NProbe: 4})
	if !reflect.DeepEqual(after, before) {
		t.Fatal("aborted compaction left an inconsistent state")
	}
	wear := mustSubmit(t, e, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.9}}).Wear
	if wear.CompactedRows == 0 {
		t.Fatalf("nothing left to collect: the aborted flight ran to completion, %+v", wear)
	}
	again, _ := search(t, e, OpcodeIVFSearch, 1, testData.Queries, 10, SearchOptions{NProbe: 4})
	if !reflect.DeepEqual(again, before) {
		t.Fatal("finishing compaction changed search results")
	}
}

// TestDirectCallsAfterClose: every call on a closed host — single
// device, and one or several shards; a command of each kind through
// Submit, and CalibrateNProbe, which searches outside any queue pair —
// fails with ErrQueueClosed and starts nothing. (A closed Engine used to
// serve direct searches, lazily restarting the plane workers Close had
// stopped and leaking them; only the sharded router refused.)
func TestDirectCallsAfterClose(t *testing.T) {
	type closedHost interface {
		submitter
		CalibrateNProbe(int, [][]float32, [][]int, int, float64) (int, error)
		Close() error
	}
	e, err := New(shardTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]closedHost{"device": e}
	for _, n := range []int{1, 2} {
		sh, err := NewSharded(shardTestCfg(), n, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		hosts[map[int]string{1: "one-shard", 2: "two-shards"}[n]] = sh
	}
	queries := testData.Queries[:8]
	ivfBatch := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 4}}
	for name, h := range hosts {
		deployBoth(t, h.Submit)
		// A multi-plane batch before Close, so the workers Close stops
		// have been started.
		mustSubmit(t, h, ivfBatch)
		if err := h.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := runtime.NumGoroutine()
		for call, cmd := range map[string]HostCommand{
			"Search":    {Opcode: OpcodeSearch, DBID: 1, Queries: queries[:1], K: 10},
			"IVFSearch": ivfBatch,
			"Deploy": {Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
				ID: 3, Vectors: testData.Vectors[:64], Docs: testData.Docs[:64], DocSlotBytes: 256}},
			"Append": {Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: testData.Vectors[:2], Docs: testData.Docs[:2]}},
		} {
			if _, err := h.Submit(cmd); !errors.Is(err, ErrQueueClosed) {
				t.Errorf("%s: %s after Close error = %v, want ErrQueueClosed", name, call, err)
			}
		}
		if _, err := h.CalibrateNProbe(2, queries, testData.GroundTruth, 10, 0.9); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("%s: CalibrateNProbe after Close error = %v, want ErrQueueClosed", name, err)
		}
		// Goroutines stopped by Close may still be winding down, so the
		// count can only fall — unless a call restarted something.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the refused calls, %d before", name, after, before)
		}
	}

	// A device closed underneath a live router: searches fail the same way
	// and must not restart the device's plane workers.
	sh, err := NewSharded(shardTestCfg(), 2, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	deployBoth(t, sh.Submit)
	mustSubmit(t, sh, ivfBatch)
	sh.devs[1].close()
	before := runtime.NumGoroutine()
	for call, cmd := range map[string]HostCommand{
		"Search":    {Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10},
		"IVFSearch": ivfBatch,
	} {
		if _, err := sh.Submit(cmd); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("closed device: %s error = %v, want ErrQueueClosed", call, err)
		}
	}
	if _, err := sh.CalibrateNProbe(2, queries, testData.GroundTruth, 10, 0.9); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("closed device: CalibrateNProbe error = %v, want ErrQueueClosed", err)
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("closed device: %d goroutines after the refused searches, %d before", after, before)
	}
}
