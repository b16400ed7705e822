package reis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// parkedIDs returns the ids of the completions parked on q — completed
// with no Wait blocked on them — in completion order.
func parkedIDs(q *Queue) []CommandID {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]CommandID, len(q.parked))
	for i, c := range q.parked {
		ids[i] = c.id
	}
	return ids
}

// parkedOrder polls until n completions are parked on q and returns
// their ids in completion order; each is still Wait's to consume.
func parkedOrder(t *testing.T, q *Queue, n int) []CommandID {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ids := parkedIDs(q)
		if len(ids) >= n {
			return ids
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d completions parked before deadline", len(ids), n)
		}
		runtime.Gosched()
	}
}

// waitOK consumes a command's completion and fails the test on error.
func waitOK(t *testing.T, q *Queue, id CommandID) HostResponse {
	t.Helper()
	resp, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("command %d failed: %v", id, err)
	}
	return resp
}

// TestQueueDoesNotCoalesceAcrossPrune: a pruned command's device stats
// differ from an unpruned run's, so the two must never share a batched
// execution (which runs under the head command's options).
func TestQueueDoesNotCoalesceAcrossPrune(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.pause()
	var ids []CommandID
	for _, prune := range []bool{false, true, true} {
		id, err := q.SubmitAsync(context.Background(), HostCommand{
			Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:1], K: 10,
			Opt: SearchOptions{NProbe: 4, Prune: prune},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.resume()
	for _, id := range ids {
		waitOK(t, q, id)
	}
	if st := q.Stats(); st.Dispatches != 2 || st.Coalesced != 2 {
		t.Fatalf("want the unpruned command alone and the two pruned ones together, stats %+v", st)
	}
}

// TestQueueOutOfOrderReap submits one database's backlog and then
// another's and verifies the stride scheduler gives the two equal
// shares — dispatches alternate between them, so completions arrive out
// of submission order — while each still matches its command by ID.
func TestQueueOutOfOrderReap(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 16)
	q, err := e.NewQueue(QueueConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	q.pause()
	q.solo = true
	type sub struct {
		id CommandID
		db int
		qi int
	}
	var subs []sub
	for qi := 0; qi < 3; qi++ {
		id, err := q.SubmitAsync(nil, HostCommand{
			Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[qi : qi+1], K: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{id: id, db: 1, qi: qi})
	}
	for qi := 0; qi < 3; qi++ {
		id, err := q.SubmitAsync(nil, HostCommand{
			Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[qi : qi+1], K: 10, Opt: SearchOptions{NProbe: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{id: id, db: 2, qi: qi})
	}
	q.resume()
	order := parkedOrder(t, q, len(subs))

	// Equal shares: database 2 submitted its whole backlog after
	// database 1's, yet the two take turns — the lower id first on the
	// pass tie — so completions arrive out of submission order.
	pos := make(map[CommandID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, s := range subs {
		if want := 2*s.qi + s.db - 1; pos[s.id] != want {
			t.Fatalf("database %d's command %d completed at position %d, want %d: the two databases did not alternate (order %v)",
				s.db, s.qi, pos[s.id], want, order)
		}
	}
	// Every completion matches the per-command sync reference
	// regardless of completion order.
	for _, s := range subs {
		got := waitOK(t, q, s.id)
		var want HostResponse
		var err error
		if s.db == 1 {
			want, err = e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[s.qi : s.qi+1], K: 10})
		} else {
			want, err = e.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[s.qi : s.qi+1], K: 10, Opt: SearchOptions{NProbe: 4}})
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := respDiff(want, got); d != "" {
			t.Fatalf("db%d q%d: %s", s.db, s.qi, d)
		}
	}
}

// TestQueueBackpressure pins the admission-control contract: a slot is
// occupied from SubmitAsync until the completion is consumed, so a
// full pair rejects deterministically with ErrQueueFull and admits
// again once Wait has returned a completion.
func TestQueueBackpressure(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5}
	first, err := q.SubmitAsync(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.SubmitAsync(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	// Both slots occupied (executed or not — completions are unconsumed
	// either way): the third admission must fail.
	if _, err := q.SubmitAsync(nil, cmd); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if st := q.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	// Consuming exactly one completion frees exactly one slot.
	waitOK(t, q, first)
	third, err := q.SubmitAsync(nil, cmd)
	if err != nil {
		t.Fatalf("submit after Wait: %v", err)
	}
	if _, err := q.SubmitAsync(nil, cmd); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("one Wait freed more than one slot: %v", err)
	}
	waitOK(t, q, second)
	waitOK(t, q, third)
}

// TestQueueCancellation covers cancellation before dispatch: an
// already-cancelled context completes with ctx.Err() and must not
// disturb neighboring commands.
func TestQueueCancellation(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q.pause()
	okID, err := q.SubmitAsync(nil, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancelID, err := q.SubmitAsync(ctx, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[1:2], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	q.resume()
	if _, err := q.Wait(context.Background(), cancelID); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled command completed with %v", err)
	}
	if resp, err := q.Wait(context.Background(), okID); err != nil || len(resp.Results) != 1 {
		t.Fatalf("neighbor command disturbed: %v, %+v", err, resp)
	}

	// Expired deadlines behave the same.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer dcancel()
	id, err := q.SubmitAsync(dctx, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background(), id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline completed with %v", err)
	}
}

// TestQueueWaitAbandonReleasesSlot pins the abandoned-Wait contract: a
// caller that gives up waiting (expired request context) must not leak
// the command's queue slot — the completion is discarded on arrival
// and the slot freed, never parked.
func TestQueueWaitAbandonReleasesSlot(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5}
	q.pause()
	id, err := q.SubmitAsync(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The command is paused in the SQ, so this Wait must give up.
	if _, err := q.Wait(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on paused queue returned %v", err)
	}
	q.resume()
	deadline := time.Now().Add(30 * time.Second)
	for q.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned command still occupies %d slots", q.Outstanding())
		}
		runtime.Gosched()
	}
	if ids := parkedIDs(q); len(ids) != 0 {
		t.Fatalf("abandoned completion was parked: %v", ids)
	}
	// The freed slots are usable: a full submit/wait cycle succeeds.
	id, err = q.SubmitAsync(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

// TestQueueWaitNeverBlocksForGood: a Wait nothing can ever answer ends
// at once instead of when its context does — on an id the pair never
// issued, on one whose completion was already consumed (with
// ErrQueueClosed once the pair is closed), and on an id another Wait is
// blocked on. Once the pair is closed no waiter entry may remain.
func TestQueueWaitNeverBlocksForGood(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5}
	for _, tc := range []struct {
		name  string
		id    func(q *Queue) CommandID
		check func(error) bool
	}{
		{"never issued", func(*Queue) CommandID { return 999 },
			func(err error) bool { return err != nil && !errors.Is(err, ErrQueueClosed) }},
		{"zero id", func(*Queue) CommandID { return 0 },
			func(err error) bool { return err != nil && !errors.Is(err, ErrQueueClosed) }},
		{"consumed, then closed", func(q *Queue) CommandID {
			id, err := q.SubmitAsync(nil, cmd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			q.Close()
			return id
		}, func(err error) bool { return errors.Is(err, ErrQueueClosed) }},
		{"consumed, closed under the wait", func(q *Queue) CommandID {
			id, err := q.SubmitAsync(nil, cmd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			// The Wait comes while Close may still be draining the pair.
			go q.Close()
			for closed := false; !closed; runtime.Gosched() {
				q.mu.Lock()
				closed = q.closed
				q.mu.Unlock()
			}
			return id
		}, func(err error) bool { return errors.Is(err, ErrQueueClosed) }},
		{"consumed", func(q *Queue) CommandID {
			id, err := q.SubmitAsync(nil, cmd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			return id
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrQueueClosed) }},
		{"waited on twice at once", func(q *Queue) CommandID {
			q.pause()
			id, err := q.SubmitAsync(nil, cmd)
			if err != nil {
				t.Fatal(err)
			}
			// The first Wait blocks until Close completes the command.
			go q.Wait(context.Background(), id)
			for registered := false; !registered; runtime.Gosched() {
				q.mu.Lock()
				registered = q.waiters[id] != nil
				q.mu.Unlock()
			}
			return id
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrQueueClosed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := e.NewQueue(QueueConfig{Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			id := tc.id(q)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err = q.Wait(ctx, id)
			if ctx.Err() != nil {
				t.Fatalf("Wait(%d) returned %v only when its context ended", id, err)
			}
			if !tc.check(err) {
				t.Fatalf("Wait(%d) = %v", id, err)
			}
			q.Close()
			q.mu.Lock()
			leaked := len(q.waiters)
			q.mu.Unlock()
			if leaked != 0 {
				t.Fatalf("Wait(%d) left %d waiter entries behind", id, leaked)
			}
		})
	}
}

// TestQueueLoneSearchErrorCompletesOnce: a dispatch group of one search
// whose execution fails — here it names a database that does not exist —
// completes exactly once, with that error, in one dispatch: there is no
// "re-execute the members individually" round for a group with nothing
// to separate.
func TestQueueLoneSearchErrorCompletesOnce(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	id, err := q.SubmitAsync(nil, HostCommand{Opcode: OpcodeSearch, DBID: 99, Queries: testData.Queries[:1], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background(), id); err == nil || !strings.Contains(err.Error(), "unknown database 99") {
		t.Fatalf("search on an unknown database completed with %v", err)
	}
	if st := q.Stats(); st.Completed != 1 || st.Dispatches != 1 {
		t.Fatalf("want one completion from one dispatch, stats %+v", st)
	}
	if ids := parkedIDs(q); len(ids) != 0 {
		t.Fatalf("a second completion was parked: %v", ids)
	}
}

// countdownCtx cancels itself after a fixed number of Err() polls — a
// deterministic way to hit the execution core's mid-batch checkpoints.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	polls int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestSearchBatchCancelMidBatch drives the internal batched path with
// a context that cancels partway through and checks the abort leaves
// the engine consistent (the next search is bit-identical to an
// undisturbed engine's).
func TestSearchBatchCancelMidBatch(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	for _, polls := range []int{1, 3, 17} {
		ctx := &countdownCtx{Context: context.Background(), polls: polls}
		_, _, _, err := searchFresh(ctx, e, &HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 10}, testData.Queries[:8], false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: batch survived cancellation: %v", polls, err)
		}
	}
	// The aborted runs must not have corrupted pooled state.
	want, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{})
	e2 := newEngine(t, AllOptions())
	deployFlat(t, e2, 1)
	fresh, _ := searchOne(t, e2, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{})
	if !reflect.DeepEqual(fresh, want) {
		t.Fatal("results after the aborted runs differ from a fresh engine's")
	}
}

// TestQueueClose pins close semantics: pending commands complete with
// ErrQueueClosed, later submissions are rejected, and Engine.Close
// closes every open pair.
func TestQueueClose(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	q.pause()
	id, err := q.SubmitAsync(nil, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if _, err := q.Wait(context.Background(), id); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("pending command completed with %v", err)
	}
	if _, err := q.SubmitAsync(nil, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 5}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit on closed queue: %v", err)
	}
	e.Close()
	if _, err := e.NewQueue(QueueConfig{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("NewQueue on closed engine: %v", err)
	}
}

// TestHostCommandValidation pins the sentinel errors and the up-front
// field validation of the redesigned host interface.
func TestHostCommandValidation(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	cases := []struct {
		name string
		cmd  HostCommand
		want error
	}{
		{"unknown opcode", HostCommand{Opcode: 0x42}, errUnknownOpcode},
		{"deploy without payload", HostCommand{Opcode: OpcodeDBDeploy}, errMissingPayload},
		{"ivf deploy without payload", HostCommand{Opcode: OpcodeIVFDeploy}, errMissingPayload},
		{"no queries", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 5}, errNoQueries},
		{"bad K", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1]}, errBadK},
		{"ragged queries", HostCommand{
			Opcode: OpcodeSearch, DBID: 1, K: 5,
			Queries: [][]float32{testData.Queries[0], make([]float32, 7)},
		}, errQueryDims},
	}
	q, err := e.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, tc := range cases {
		if _, err := e.Submit(tc.cmd); !errors.Is(err, tc.want) {
			t.Fatalf("Submit %s: got %v, want %v", tc.name, err, tc.want)
		}
		// Validation is shared: the async path rejects at admission,
		// before the command ever occupies a slot.
		if _, err := q.SubmitAsync(nil, tc.cmd); !errors.Is(err, tc.want) {
			t.Fatalf("SubmitAsync %s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if q.Outstanding() != 0 {
		t.Fatalf("rejected commands occupy %d slots", q.Outstanding())
	}
	// Wrong-dim queries against the deployed database still fail at
	// execution with the same sentinel.
	if _, err := e.Submit(HostCommand{
		Opcode: OpcodeSearch, DBID: 1, K: 5, Queries: [][]float32{make([]float32, 7)},
	}); !errors.Is(err, errQueryDims) {
		t.Fatalf("db-dim mismatch: %v", err)
	}
}

// TestTargetRecallResolution pins the normalization helper: an
// IVF_Search addressed by TargetRecall resolves to the calibrated
// nprobe and matches the explicit-nprobe command bit for bit.
func TestTargetRecallResolution(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	if _, err := e.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:2], K: 10, TargetRecall: 0.8,
	}); !errors.Is(err, errNotCalibrated) {
		t.Fatalf("uncalibrated TargetRecall: %v", err)
	}
	np, err := e.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:4], K: 10, Opt: SearchOptions{NProbe: np},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:4], K: 10, TargetRecall: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := respDiff(want, got); d != "" {
		t.Fatalf("recall-addressed: %s", d)
	}
	// An explicit Opt.NProbe wins: the TargetRecall beside it, which no
	// calibration covers, is never resolved.
	explicit, err := e.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:4], K: 10, TargetRecall: 1.5,
		Opt: SearchOptions{NProbe: np},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := respDiff(want, explicit); d != "" {
		t.Fatalf("explicit-nprobe: %s", d)
	}
}

// TestQueueStressConcurrentSubmitters is the -race stress test:
// several goroutines hammer one queue pair (plus synchronous Submit
// calls) and every completion must match its per-command synchronous
// reference bit for bit — the determinism contract under concurrent
// multi-tenant submission.
func TestQueueStressConcurrentSubmitters(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 16)

	nq := len(testData.Queries)
	refFlat := make([]HostResponse, nq)
	refIVF := make([]HostResponse, nq)
	for qi := 0; qi < nq; qi++ {
		var err error
		if refFlat[qi], err = e.Submit(HostCommand{
			Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[qi : qi+1], K: 10,
		}); err != nil {
			t.Fatal(err)
		}
		if refIVF[qi], err = e.Submit(HostCommand{
			Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[qi : qi+1], K: 10, Opt: SearchOptions{NProbe: 4},
		}); err != nil {
			t.Fatal(err)
		}
	}

	q, err := e.NewQueue(QueueConfig{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const submitters = 4
	const perSubmitter = 24
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				qi := (s*perSubmitter + i) % nq
				cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[qi : qi+1], K: 10}
				want := refFlat[qi]
				if s%2 == 1 {
					cmd = HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[qi : qi+1], K: 10, Opt: SearchOptions{NProbe: 4}}
					want = refIVF[qi]
				}
				var resp HostResponse
				var err error
				if s == 3 {
					// One tenant uses the synchronous wrapper, mixing
					// sync and async submission on the same engine.
					resp, err = e.Submit(cmd)
				} else {
					id, serr := q.submit(context.Background(), cmd, true)
					if serr != nil {
						errs <- serr
						return
					}
					resp, err = q.Wait(context.Background(), id)
				}
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Results) != 1 || len(want.Results) != 1 ||
					len(resp.Results[0]) != len(want.Results[0]) {
					errs <- fmt.Errorf("submitter %d query %d: shape mismatch", s, qi)
					return
				}
				for i := range want.Results[0] {
					if want.Results[0][i].ID != resp.Results[0][i].ID ||
						want.Results[0][i].Dist != resp.Results[0][i].Dist {
						errs <- fmt.Errorf("submitter %d query %d: result %d diverged", s, qi, i)
						return
					}
				}
				if want.QueryStats[0] != resp.QueryStats[0] {
					errs <- fmt.Errorf("submitter %d query %d: stats diverged\nwant %+v\ngot  %+v",
						s, qi, want.QueryStats[0], resp.QueryStats[0])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Completed != st.Submitted || st.Submitted == 0 {
		t.Fatalf("queue leaked commands: %+v", st)
	}
}

// TestQueueSlotFreeBeforeCompletionVisible pins the slot contract: once
// Wait has returned a completion its slot is free, so a depth-1
// submitter that consumes one completion and submits again never meets
// ErrQueueFull — whether Wait found the completion parked or was
// blocked when it arrived. (Handing a completion over before releasing
// the slot let exactly that submitter spin — or, draining on
// ErrQueueFull, block forever.) The command is a no-op compaction: the
// cheapest round trip through complete().
func TestQueueSlotFreeBeforeCompletionVisible(t *testing.T) {
	const iters = 3000
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	cmd := HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{}}
	t.Run("waiter", func(t *testing.T) {
		q, err := e.NewQueue(QueueConfig{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		for i := 0; i < iters; i++ {
			id, err := q.SubmitAsync(context.Background(), cmd)
			if err != nil {
				t.Fatalf("submit %d right after consuming completion %d: %v", i, i-1, err)
			}
			if _, err := q.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		if n := q.Outstanding(); n != 0 {
			t.Fatalf("%d slots outstanding after every completion was consumed", n)
		}
	})
	// The submit/drain idiom itself, through the shared helper.
	q, err := e.NewQueue(QueueConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	seen := make([]bool, iters)
	err = q.SubmitDrain(context.Background(), iters,
		func(int) HostCommand { return cmd },
		func(i int, _ HostResponse) { seen[i] = true })
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("command %d never completed", i)
		}
	}
	if st := q.Stats(); st.Rejected == 0 {
		t.Fatalf("SubmitDrain never met a full pair at depth 1: %+v", st)
	}
}
