package reis

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// This file implements the asynchronous host interface: NVMe-style
// submission/completion queue pairs over the engine's execution core.
//
// A Queue models one SQ/CQ pair of the REIS host driver. Commands are
// admitted with SubmitAsync under a configurable depth (admission
// control returns ErrQueueFull when the pair is saturated), picked up
// by the queue's dispatcher goroutine, and completed through one of
// three delivery paths: Wait on the command's id, a completion channel,
// or the polled Reap buffer (the CQ). Like a hardware CQ slot, a command
// occupies queue capacity from SubmitAsync until its completion is
// handed over — reaped, returned by Wait, or pushed to the channel. The
// slot is always freed before the completion becomes observable (see
// complete), so reacting to a completion by submitting again cannot fail
// on the slot of the command just consumed.
//
// Four properties make the queue more than a goroutine + channel:
//
//   - Coalescing. The dispatcher merges adjacent compatible search
//     commands of one tenant (same opcode, database, K and resolved
//     options) into a single batched execution, exactly as an NVMe
//     controller fetches several SQ entries per doorbell. Deep queues
//     therefore approach the throughput of one batched command even when
//     every caller submits single-query commands; per-command results
//     and device stats stay bit-identical to solo execution (pinned by
//     tests).
//   - Fair shares. Pending commands are scheduled across databases by
//     stride scheduling at equal weight, so tenants — and the background
//     GC below — share the plane workers evenly instead of strictly FIFO.
//   - Cancellation. Every command carries a context; cancellation is
//     honored before dispatch and at checkpoints inside the batched
//     scan pipeline (between plane work items and per-query tails).
//     A cancelled member aborts its coalesced group, whose unaffected
//     members are then re-executed individually — results never change,
//     only scheduling.
//   - Background GC. An OpcodeCompact command never runs as one
//     monolithic dispatch: the queue opens a GC flight that issues one
//     internal copy-forward step per victim GC row, scheduled under the
//     reserved gcSchedKey like one more tenant, so foreground searches
//     interleave between steps and share device time evenly. Searches
//     between steps are bit-identical to both the never-compacted and
//     fully-compacted states; later mutations on the database are held
//     back until the flight completes (which also keeps the mutation
//     journal in application order). The command completes when its last
//     step lands.
//
// Determinism: the host core serializes execution under execMu and a
// command's results and device events are independent of which group
// it was coalesced into (a plane broadcasts each query once regardless
// of batch composition), so completion *contents* are bit-identical
// run to run; only completion *order* may vary with scheduling.

// queueRegistry tracks a host's open queue pairs (for teardown) and
// its lazily created built-in pair behind the synchronous Submit
// wrapper. All methods are safe for concurrent use and idempotent, so
// host Close paths may race with queue creation and each other.
type queueRegistry struct {
	mu     sync.Mutex
	queues []*Queue
	defq   *Queue
	closed bool
}

// add registers a queue pair; it fails once the host is closed.
func (r *queueRegistry) add(q *Queue) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("reis: engine closed: %w", ErrQueueClosed)
	}
	r.queues = append(r.queues, q)
	return nil
}

// remove deregisters a queue pair (Queue.Close), so long-lived hosts
// that create and close many pairs do not accumulate dead entries.
func (r *queueRegistry) remove(q *Queue) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, x := range r.queues {
		if x == q {
			r.queues = append(r.queues[:i], r.queues[i+1:]...)
			break
		}
	}
	if r.defq == q {
		r.defq = nil
	}
}

// isClosed reports whether the host has been torn down (closeAll ran).
func (r *queueRegistry) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// closeAll marks the registry closed and hands the caller the pairs to
// close. Subsequent and concurrent calls return nil.
func (r *queueRegistry) closeAll() []*Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	qs := r.queues
	r.queues, r.defq = nil, nil
	r.closed = true
	return qs
}

// defaultQueue returns the built-in pair, creating it through create
// on first use.
func (r *queueRegistry) defaultQueue(create func() (*Queue, error)) (*Queue, error) {
	r.mu.Lock()
	q := r.defq
	r.mu.Unlock()
	if q != nil {
		return q, nil
	}
	q, err := create()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.defq == nil && !r.closed {
		r.defq = q
	} else {
		// Another goroutine won the race (or the host closed); keep
		// the established queue and discard ours.
		stale := q
		q = r.defq
		r.mu.Unlock()
		stale.Close()
		if q == nil {
			return nil, ErrQueueClosed
		}
		return q, nil
	}
	r.mu.Unlock()
	return q, nil
}

// CommandID identifies one submitted command within its Queue. IDs are
// assigned in submission order starting at 1.
type CommandID uint64

// Completion is one completion-queue entry.
type Completion struct {
	ID   CommandID
	Resp HostResponse
	Err  error
}

// DefaultQueueDepth is the queue-pair depth used when QueueConfig.Depth
// is zero.
const DefaultQueueDepth = 32

// QueueConfig configures one submission/completion queue pair.
type QueueConfig struct {
	// Depth bounds the commands outstanding on the pair — submitted and
	// not yet consumed. SubmitAsync fails with ErrQueueFull beyond it.
	// Zero means DefaultQueueDepth.
	Depth int

	// Completions, when non-nil, receives every completion in
	// completion order. Delivery blocks the dispatcher, so an undrained
	// channel exerts backpressure on the whole pair; the channel must
	// be drained until Close returns.
	//
	// Contract, for every sink (Wait, this channel, Reap): a
	// completion is observable only after its queue slot is free. A
	// receiver may submit again at once — at depth 1 too — without
	// seeing ErrQueueFull for the command it just consumed
	// (SubmitDrain relies on this).
	Completions chan<- Completion
}

// QueueStats counts queue-pair events (monotonic since creation).
type QueueStats struct {
	// Submitted / Completed are admitted commands and delivered
	// completions.
	Submitted, Completed uint64
	// Rejected counts ErrQueueFull admission failures.
	Rejected uint64
	// Dispatches counts execution rounds; a coalesced group is one
	// dispatch.
	Dispatches uint64
	// Coalesced counts commands that shared a dispatch with at least
	// one other command.
	Coalesced uint64
}

// qcmd is one admitted command awaiting dispatch, or (gcf != nil) one
// internal background-GC step of an active compaction flight — step
// qcmds carry no CommandID and occupy no queue slot; the flight's
// original command holds both until the flight completes. Pending lists
// and dispatch groups hold qcmds by value, in buffers that recycle, so
// admitting and dispatching a command allocates nothing.
type qcmd struct {
	id  CommandID
	ctx context.Context
	cmd HostCommand
	gcf *gcFlight
}

// gcSchedKey is the reserved stride-scheduling key background-GC steps
// are queued under — far below any real database id, so it never
// collides and wins exact pass ties deterministically. GC steps stride
// exactly like one more tenant.
const gcSchedKey = -1 << 30

// gcFlight is one in-progress background compaction: the original
// OpcodeCompact command, its victim plan, the next step index and the
// accumulated wear. The dispatcher goroutine is its single owner; the
// queue mutex guards only its membership in Queue.gc.
type gcFlight struct {
	orig    qcmd
	victims []int
	next    int
	acc     WearStats
}

// Queue is one NVMe-style submission/completion queue pair bound to a
// host (an Engine or a ShardedEngine), which serializes its execution
// core internally — the queue only sequences and delivers. Create with
// the host's NewQueue; all methods are safe for concurrent use.
type Queue struct {
	h   *hostCore
	cfg QueueConfig

	mu      sync.Mutex
	wake    *sync.Cond // dispatcher: work available / unpaused / closed
	capFree *sync.Cond // blocking submitters: a slot freed / closed

	nextID      CommandID
	outstanding int
	pendingN    int
	pending     map[int][]qcmd    // per-database FIFO (gcSchedKey: GC steps)
	pass        map[int]int       // stride-scheduling pass per database: commands dispatched
	gc          map[int]*gcFlight // active compaction flight per database
	completed   []Completion      // the polled CQ (Reap buffer)
	waiters     map[CommandID]chan Completion
	paused      bool // test hook: freeze dispatch to observe scheduling
	solo        bool // test hook, set while paused: never coalesce
	closed      bool
	stats       QueueStats

	// group is the dispatcher goroutine's own: the dispatch group being
	// executed.
	group []qcmd

	done chan struct{} // closed when the dispatcher has exited
}

// waiterPool recycles Wait's one-shot completion channels: a channel
// goes back once its completion has been received, or once its wait was
// abandoned before any sender could learn of it — empty either way.
var waiterPool = sync.Pool{New: func() any { return make(chan Completion, 1) }}

// newQueue builds a queue pair over a host core and starts its
// dispatcher.
func newQueue(h *hostCore, cfg QueueConfig) (*Queue, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultQueueDepth
	}
	q := &Queue{
		h:       h,
		cfg:     cfg,
		pending: make(map[int][]qcmd),
		pass:    make(map[int]int),
		gc:      make(map[int]*gcFlight),
		waiters: make(map[CommandID]chan Completion),
		done:    make(chan struct{}),
	}
	q.wake = sync.NewCond(&q.mu)
	q.capFree = sync.NewCond(&q.mu)
	if err := h.reg.add(q); err != nil {
		return nil, err
	}
	go q.dispatch()
	return q, nil
}

// SubmitAsync validates and admits one command. It never blocks: when
// the pair already holds Depth outstanding commands it fails with
// ErrQueueFull (admission control / backpressure). ctx governs the
// command's whole lifetime: cancellation before dispatch skips
// execution, cancellation during execution aborts at the pipeline's
// checkpoints; either way the command completes with ctx.Err().
// A nil ctx means context.Background().
func (q *Queue) SubmitAsync(ctx context.Context, cmd HostCommand) (CommandID, error) {
	return q.submit(ctx, cmd, false)
}

// submit implements SubmitAsync; with block set it waits for a free
// slot instead of failing (the synchronous Submit wrapper uses this).
func (q *Queue) submit(ctx context.Context, cmd HostCommand, block bool) (CommandID, error) {
	if err := cmd.validate(); err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.outstanding >= q.cfg.Depth && !q.closed {
		if !block {
			q.stats.Rejected++
			return 0, fmt.Errorf("%w (depth %d)", ErrQueueFull, q.cfg.Depth)
		}
		q.capFree.Wait()
	}
	if q.closed {
		return 0, ErrQueueClosed
	}
	q.nextID++
	id := q.nextID
	key := cmd.DBID
	if isDeployOp(cmd.Opcode) {
		key = cmd.Deploy.ID
	}
	if len(q.pending[key]) == 0 {
		// A database (re-)entering the pending set starts at the lowest
		// active pass so idle time never accumulates dispatch credit.
		if m, ok := q.minPassLocked(); ok && q.pass[key] < m {
			q.pass[key] = m
		}
	}
	q.pending[key] = append(q.pending[key], qcmd{id: id, ctx: ctx, cmd: cmd})
	q.pendingN++
	q.outstanding++
	q.stats.Submitted++
	q.wake.Signal()
	return id, nil
}

// SubmitDrain keeps the pair full with n commands — next(i) builds the
// i-th — on a queue whose Completions channel is ch: whenever admission
// control answers ErrQueueFull it consumes one completion from ch and
// retries, and after the last submission it consumes the rest. done,
// when non-nil, receives each successful completion with the index of
// the command it answers. The first submission or completion error, or
// ctx ending (it also governs every command), ends the run, leaving
// commands still in flight to the caller's Close. The
// caller must be the pair's only submitter and ch's only receiver for
// the duration (indices are recovered from the contiguous CommandIDs).
func (q *Queue) SubmitDrain(ctx context.Context, ch <-chan Completion, n int, next func(i int) HostCommand, done func(i int, c Completion)) error {
	var first CommandID
	served := 0
	drain := func() error {
		select {
		case c := <-ch:
			if c.Err != nil {
				return c.Err
			}
			served++
			if done != nil {
				done(int(c.ID-first), c)
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i := 0; i < n; i++ {
		cmd := next(i)
		for {
			id, err := q.SubmitAsync(ctx, cmd)
			if errors.Is(err, ErrQueueFull) {
				if err := drain(); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			if i == 0 {
				first = id
			}
			break
		}
	}
	for served < n {
		if err := drain(); err != nil {
			return err
		}
	}
	return nil
}

// minPassLocked returns the minimum pass among databases with pending
// commands.
func (q *Queue) minPassLocked() (int, bool) {
	m, ok := 0, false
	for key, list := range q.pending {
		if len(list) > 0 && (!ok || q.pass[key] < m) {
			m, ok = q.pass[key], true
		}
	}
	return m, ok
}

// Reap removes and returns up to max buffered completions in completion
// order (all of them when max <= 0) — the polling half of the pair.
// Reaping is what frees queue slots when no completion channel is
// configured and nobody Waits.
func (q *Queue) Reap(max int) []Completion {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.completed)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]Completion, n)
	copy(out, q.completed)
	q.completed = append(q.completed[:0], q.completed[n:]...)
	for range out {
		q.releaseSlotLocked()
	}
	return out
}

// Wait blocks until the identified command completes and consumes its
// completion (it will not also be delivered to Reap or the configured
// sinks). ctx bounds the wait only: a timed-out Wait leaves the
// command running but abandons its completion — when it arrives it is
// discarded and its queue slot freed, so a caller that gives up (e.g.
// an HTTP handler whose request context ended) cannot leak slots. An id
// the pair never issued is an error at once, and once the pair is closed
// a completion that will never come ends the wait with ErrQueueClosed.
func (q *Queue) Wait(ctx context.Context, id CommandID) (HostResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	if id == 0 || id > q.nextID {
		q.mu.Unlock()
		return HostResponse{}, fmt.Errorf("reis: Wait on command %d, which this queue pair never issued", id)
	}
	for i, c := range q.completed {
		if c.ID == id {
			q.completed = append(q.completed[:i], q.completed[i+1:]...)
			q.releaseSlotLocked()
			q.mu.Unlock()
			return c.Resp, c.Err
		}
	}
	ch := waiterPool.Get().(chan Completion)
	defer waiterPool.Put(ch)
	q.waiters[id] = ch
	q.mu.Unlock()
	var gaveUp error
	select {
	case c := <-ch:
		return c.Resp, c.Err
	case <-ctx.Done():
		gaveUp = ctx.Err()
	case <-q.done:
		gaveUp = ErrQueueClosed
	}
	q.mu.Lock()
	if q.waiters[id] == nil {
		q.mu.Unlock()
		// The completion raced in while we were deregistering.
		c := <-ch
		return c.Resp, c.Err
	}
	if gaveUp == ErrQueueClosed {
		// The dispatcher has exited and delivered everything it ever
		// will: nothing is left to consume the entry.
		delete(q.waiters, id)
	} else {
		// Abandon the wait: a nil tombstone tells complete() to consume
		// and discard the completion when it arrives, so the command's
		// queue slot is still freed (it must not land in the Reap buffer
		// nobody is polling).
		q.waiters[id] = nil
	}
	q.mu.Unlock()
	return HostResponse{}, gaveUp
}

// Outstanding returns the commands currently occupying queue slots
// (submitted and not yet consumed).
func (q *Queue) Outstanding() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.outstanding
}

// Depth returns the pair's configured capacity — the bound admission
// control enforces (SubmitAsync fails with ErrQueueFull at Depth
// outstanding commands).
func (q *Queue) Depth() int { return q.cfg.Depth }

// Occupancy returns Outstanding()/Depth() in [0, 1] — the load signal
// replica routers compare across queue pairs (least-loaded /
// power-of-two-choices routing; see internal/serve).
func (q *Queue) Occupancy() float64 {
	return float64(q.Outstanding()) / float64(q.cfg.Depth)
}

// Stats returns a snapshot of the pair's event counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Close marks the queue closed, completes every still-pending command
// with ErrQueueClosed, waits for the dispatcher to exit, and
// deregisters the pair from its host. Close is idempotent and safe to
// call from multiple goroutines — every call returns only after the
// dispatcher has exited. A command already executing completes
// normally first.
func (q *Queue) Close() error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.wake.Broadcast()
		q.capFree.Broadcast()
	}
	q.mu.Unlock()
	<-q.done
	q.h.reg.remove(q)
	return nil
}

// pause / resume freeze and thaw the dispatcher — test hooks that make
// scheduling decisions (stride order, coalescing extents) observable
// deterministically: pause, submit a known set, resume. Setting solo in
// between makes every command a dispatch of its own, so the order of
// dispatches is the order of completions.
func (q *Queue) pause() {
	q.mu.Lock()
	q.paused = true
	q.mu.Unlock()
}

func (q *Queue) resume() {
	q.mu.Lock()
	q.paused = false
	q.wake.Broadcast()
	q.mu.Unlock()
}

// releaseSlotLocked frees one queue slot and wakes a blocked submitter.
func (q *Queue) releaseSlotLocked() {
	q.outstanding--
	q.capFree.Signal()
}

// dispatch is the queue's dispatcher goroutine: it drains the
// submission side group by group until the queue closes.
func (q *Queue) dispatch() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for !q.closed && (q.paused || !q.hasDispatchableLocked()) {
			q.wake.Wait()
		}
		if q.closed {
			aborted := q.drainPendingLocked()
			flights := make([]*gcFlight, 0, len(q.gc))
			for _, f := range q.gc {
				flights = append(flights, f)
			}
			q.gc = make(map[int]*gcFlight)
			q.mu.Unlock()
			for i := range aborted {
				q.complete(aborted[i].id, HostResponse{}, ErrQueueClosed)
			}
			// In-flight compactions abort deterministically too: the
			// rows already collected stay collected (every step commits
			// a consistent state), the original command reports
			// ErrQueueClosed. Exactly-once is structural — gcStepExec
			// runs on this goroutine and removes a flight from q.gc
			// before completing it.
			slices.SortFunc(flights, func(a, b *gcFlight) int { return cmp.Compare(a.orig.id, b.orig.id) })
			for _, f := range flights {
				q.complete(f.orig.id, HostResponse{}, ErrQueueClosed)
			}
			return
		}
		q.pickGroupLocked()
		q.mu.Unlock()
		q.execGroup()
		// Drop the group's contexts, queries and payloads with it.
		clear(q.group)
	}
}

// blockedLocked reports whether a pending head must wait: mutations on
// a database with an active compaction flight are held back until the
// flight completes, so the journal's record order equals application
// order and a flight's victim plan stays valid across its steps.
// Searches, scans and deploys are never blocked — interleaving them is
// the point — and GC steps themselves never block.
func (q *Queue) blockedLocked(head *qcmd) bool {
	if head.gcf != nil || len(q.gc) == 0 {
		return false
	}
	if !isMutationOp(head.cmd.Opcode) {
		return false
	}
	_, busy := q.gc[head.cmd.DBID]
	return busy
}

// hasDispatchableLocked reports whether any pending head can dispatch
// now. Distinct from pendingN > 0: every pending command may be a
// mutation held back behind an active GC flight whose next step has
// not been enqueued yet.
func (q *Queue) hasDispatchableLocked() bool {
	for _, list := range q.pending {
		if len(list) > 0 && !q.blockedLocked(&list[0]) {
			return true
		}
	}
	return false
}

// drainPendingLocked removes every pending command, in submission
// order. Internal GC-step entries are dropped, not returned: their
// flight's original command is completed by the close path.
func (q *Queue) drainPendingLocked() []qcmd {
	var all []qcmd
	for _, list := range q.pending {
		for _, qc := range list {
			if qc.gcf == nil {
				all = append(all, qc)
			}
		}
	}
	q.pending = make(map[int][]qcmd)
	q.pendingN = 0
	// Submission order == CommandID order.
	slices.SortFunc(all, func(a, b qcmd) int { return cmp.Compare(a.id, b.id) })
	return all
}

// pickGroupLocked selects the next database by stride scheduling
// (lowest pass wins, ties to the lowest database id) and takes its FIFO
// head plus the adjacent commands that can coalesce with it into one
// batched execution. The group is left in q.group.
func (q *Queue) pickGroupLocked() {
	bestKey, found := 0, false
	for key, list := range q.pending {
		if len(list) == 0 || q.blockedLocked(&list[0]) {
			continue
		}
		if !found || q.pass[key] < q.pass[bestKey] ||
			(q.pass[key] == q.pass[bestKey] && key < bestKey) {
			bestKey, found = key, true
		}
	}
	list := q.pending[bestKey]
	head := &list[0]
	n := 1
	if !q.solo && isSearchOp(head.cmd.Opcode) && head.ctx.Err() == nil {
		for n < len(list) && coalescible(head, &list[n]) {
			n++
		}
	}
	q.group = append(q.group[:0], list[:n]...)
	rest := copy(list, list[n:])
	clear(list[rest:])
	q.pending[bestKey] = list[:rest]
	q.pendingN -= n
	q.pass[bestKey] += n
	q.stats.Dispatches++
	if n > 1 {
		q.stats.Coalesced += uint64(n)
	}
}

// coalescible reports whether b can ride in a's batched execution:
// same opcode, database and K, identical nprobe/recall operands and
// search options (every SearchOptions field — the group runs under the
// head's), and not already cancelled.
func coalescible(a, b *qcmd) bool {
	if b.ctx.Err() != nil {
		return false
	}
	ca, cb := &a.cmd, &b.cmd
	if ca.Opcode != cb.Opcode || ca.DBID != cb.DBID || ca.K != cb.K ||
		ca.NProbe != cb.NProbe || ca.TargetRecall != cb.TargetRecall ||
		ca.Opt.NProbe != cb.Opt.NProbe || ca.Opt.SkipDocs != cb.Opt.SkipDocs ||
		ca.Opt.Prune != cb.Opt.Prune {
		return false
	}
	ta, tb := ca.Opt.MetaTag, cb.Opt.MetaTag
	if (ta == nil) != (tb == nil) || (ta != nil && *ta != *tb) {
		return false
	}
	return true
}

// execGroup executes the dispatch group in q.group on the host and
// delivers its completions.
func (q *Queue) execGroup() {
	// Members already cancelled complete now; the live ones close ranks.
	live := q.group[:0]
	for _, qc := range q.group {
		// GC steps have no CommandID of their own; cancellation of the
		// original command is handled inside gcStepExec, which must also
		// retire the flight.
		if qc.gcf == nil {
			if err := qc.ctx.Err(); err != nil {
				q.complete(qc.id, HostResponse{}, err)
				continue
			}
		}
		live = append(live, qc)
	}
	if len(live) == 0 {
		return
	}
	// Only searches coalesce: anything else is a group of one.
	switch head := &live[0]; {
	case head.gcf != nil:
		q.gcStepExec(head)
	case head.cmd.Opcode == OpcodeCompact:
		q.gcStart(head)
	case isSearchOp(head.cmd.Opcode):
		q.execSearch(live)
	default:
		resp, err := q.h.execCmd(&head.cmd)
		q.complete(head.id, resp, err)
	}
}

// execSearch serves a dispatch group of search commands — one, or several
// coalesced under the head's parameters — as one batched pass over their
// concatenated Q operands, and completes each with its share. Batch
// results are bit-identical to per-command execution, so splitting the
// output per command is exact; a group of one hands the pass's slices on
// as they are.
func (q *Queue) execSearch(live []qcmd) {
	head := &live[0]
	queries := head.cmd.Queries
	if len(live) > 1 {
		total := 0
		for i := range live {
			total += len(live[i].cmd.Queries)
		}
		queries = make([][]float32, 0, total)
		for i := range live {
			queries = append(queries, live[i].cmd.Queries...)
		}
	}
	results, sts, perShard, err := q.h.search(mergeCtxs(live), &head.cmd, queries, true)
	if err != nil {
		if len(live) == 1 {
			q.complete(head.id, HostResponse{}, err)
			return
		}
		// Group abort — a member's cancellation, or an execution error.
		// Re-execute members individually so unaffected commands still
		// complete with precise per-command outcomes.
		for i := range live {
			if cerr := live[i].ctx.Err(); cerr != nil {
				q.complete(live[i].id, HostResponse{}, cerr)
				continue
			}
			q.execSearch(live[i : i+1])
		}
		return
	}
	off := 0
	for i := range live {
		qc := &live[i]
		n := len(qc.cmd.Queries)
		resp := HostResponse{
			Done:       true,
			Results:    results[off : off+n : off+n],
			QueryStats: sts[off : off+n : off+n],
			PerShard:   perShard,
		}
		if perShard != nil && len(live) > 1 {
			resp.PerShard = make([][]QueryStats, len(perShard))
			for s := range perShard {
				resp.PerShard[s] = perShard[s][off : off+n : off+n]
			}
		}
		for _, st := range resp.QueryStats {
			resp.Stats.Add(st)
		}
		off += n
		q.complete(qc.id, resp, nil)
	}
}

// gcStart opens a background compaction flight for a dispatched
// OpcodeCompact command: plan the victim rows once, then (if any) queue
// the first copy-forward step under gcSchedKey. A database with no
// victims completes immediately — the fast path a compaction of an
// already-clean database takes.
func (q *Queue) gcStart(qc *qcmd) {
	victims, err := q.h.gcPlan(&qc.cmd)
	if err != nil {
		q.complete(qc.id, HostResponse{}, err)
		return
	}
	f := &gcFlight{orig: *qc, victims: victims}
	if len(victims) == 0 {
		resp, err := q.h.gcFinish(&qc.cmd, &f.acc)
		q.complete(qc.id, resp, err)
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.complete(qc.id, HostResponse{}, ErrQueueClosed)
		return
	}
	q.gc[qc.cmd.DBID] = f
	q.enqueueStepLocked(f)
	q.mu.Unlock()
}

// enqueueStepLocked queues a flight's next copy-forward step under the
// reserved GC scheduling key. Step entries carry no CommandID and no
// queue slot — the flight's original command holds both.
func (q *Queue) enqueueStepLocked(f *gcFlight) {
	step := qcmd{ctx: f.orig.ctx, cmd: f.orig.cmd, gcf: f}
	if len(q.pending[gcSchedKey]) == 0 {
		if m, ok := q.minPassLocked(); ok && q.pass[gcSchedKey] < m {
			q.pass[gcSchedKey] = m
		}
	}
	q.pending[gcSchedKey] = append(q.pending[gcSchedKey], step)
	q.pendingN++
	q.wake.Signal()
}

// gcStepExec runs one copy-forward step of a flight on the dispatcher
// goroutine. The flight retires — removed from q.gc, original command
// completed — on cancellation, step error, or after the last step;
// otherwise the next step is queued and foreground commands dispatch in
// between. Running on the dispatcher goroutine makes retirement
// single-threaded with the close path's flight sweep: a flight is
// completed exactly once.
func (q *Queue) gcStepExec(qc *qcmd) {
	f := qc.gcf
	finish := func(resp HostResponse, err error) {
		q.mu.Lock()
		delete(q.gc, f.orig.cmd.DBID)
		q.mu.Unlock()
		q.complete(f.orig.id, resp, err)
	}
	if err := f.orig.ctx.Err(); err != nil {
		finish(HostResponse{}, err)
		return
	}
	if err := q.h.gcStep(&f.orig.cmd, f.victims[f.next], &f.acc); err != nil {
		finish(HostResponse{}, err)
		return
	}
	f.next++
	if f.next >= len(f.victims) {
		resp, err := q.h.gcFinish(&f.orig.cmd, &f.acc)
		finish(resp, err)
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		finish(HostResponse{}, ErrQueueClosed)
		return
	}
	q.enqueueStepLocked(f)
	q.mu.Unlock()
}

// complete delivers one completion: to a registered waiter first,
// otherwise to the Completions channel, otherwise to the Reap buffer.
//
// Slot contract: a completion is observable only after its slot is
// free, for every sink — the waiter's channel and the Completions channel
// are fed after releaseSlotLocked, and Reap releases under the same lock
// hold that hands the entry out. A caller that reacts to a completion by
// submitting again therefore never sees ErrQueueFull on account of the
// command it just consumed.
func (q *Queue) complete(id CommandID, resp HostResponse, err error) {
	c := Completion{ID: id, Resp: resp, Err: err}
	q.mu.Lock()
	q.stats.Completed++
	if w, ok := q.waiters[id]; ok {
		delete(q.waiters, id)
		q.releaseSlotLocked()
		q.mu.Unlock()
		if w != nil {
			w <- c
		}
		// A nil entry is an abandoned Wait: discard the completion,
		// the slot above is all that had to be released.
		return
	}
	if q.cfg.Completions == nil {
		q.completed = append(q.completed, c)
		q.mu.Unlock()
		return
	}
	q.releaseSlotLocked()
	q.mu.Unlock()
	q.cfg.Completions <- c
}

// mergeCtxs returns the context governing a coalesced execution: the
// shared context when every member carries the same one, otherwise a
// groupCtx polling all of them.
func mergeCtxs(group []qcmd) context.Context {
	ctx := group[0].ctx
	same := true
	for i := 1; i < len(group); i++ {
		if group[i].ctx != ctx {
			same = false
			break
		}
	}
	if same {
		return ctx
	}
	ctxs := make([]context.Context, len(group))
	for i := range group {
		ctxs[i] = group[i].ctx
	}
	return groupCtx{ctxs: ctxs}
}

// groupCtx aggregates the member contexts of a coalesced dispatch. The
// execution core polls Err() at its checkpoints and never selects on
// Done, so Done may return nil (the "may never be canceled" contract);
// groupCtx never escapes the queue internals.
type groupCtx struct{ ctxs []context.Context }

func (g groupCtx) Deadline() (time.Time, bool) {
	var earliest time.Time
	ok := false
	for _, c := range g.ctxs {
		if d, has := c.Deadline(); has && (!ok || d.Before(earliest)) {
			earliest, ok = d, true
		}
	}
	return earliest, ok
}

func (g groupCtx) Done() <-chan struct{} { return nil }

func (g groupCtx) Err() error {
	for _, c := range g.ctxs {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (g groupCtx) Value(any) any { return nil }
