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
// by the queue's dispatcher goroutine, and handed back through one
// path: Wait on the command's id. Like a hardware CQ slot, a command
// occupies queue capacity from SubmitAsync until Wait returns its
// completion. The slot is always freed before Wait returns (see
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

// completion is one completion-queue entry.
type completion struct {
	id   CommandID
	resp HostResponse
	err  error
}

// DefaultQueueDepth is the queue-pair depth used when QueueConfig.Depth
// is zero.
const DefaultQueueDepth = 32

// QueueConfig configures one submission/completion queue pair.
type QueueConfig struct {
	// Depth bounds the commands outstanding on the pair — submitted and
	// not yet consumed by Wait. SubmitAsync fails with ErrQueueFull
	// beyond it. Zero means DefaultQueueDepth.
	Depth int
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
	// full is the ErrQueueFull rejection, built once so that refusing a
	// command allocates nothing.
	full error

	mu      sync.Mutex
	wake    *sync.Cond // dispatcher: work available / unpaused / closed
	capFree *sync.Cond // blocking submitters: a slot freed / closed

	nextID      CommandID
	outstanding int
	pendingN    int
	pending     map[int][]qcmd    // per-database FIFO (gcSchedKey: GC steps)
	pass        map[int]int       // stride-scheduling pass per database: commands dispatched
	gc          map[int]*gcFlight // active compaction flight per database
	paused      bool              // test hook: freeze dispatch to observe scheduling
	solo        bool              // test hook, set while paused: never coalesce
	closed      bool
	stats       QueueStats

	// waiters holds every admitted command not yet completed: the channel
	// of the Wait blocked on it, nil while none is. An abandoned Wait
	// removes its entry, which tells complete to discard the completion.
	waiters map[CommandID]chan completion
	// parked holds completions no Wait was blocked on, in completion
	// order, until their Wait comes; each still holds its slot.
	parked []completion

	// group, queries, gctx and out are the dispatcher goroutine's own,
	// read only while a dispatch runs: the dispatch group being executed,
	// a coalesced group's concatenated Q operands and merged context, and
	// the output blocks of a search dispatch that found no released
	// record in outPool (emptied before its completions leave).
	group   []qcmd
	queries [][]float32
	gctx    groupCtx
	out     outBlocks

	done chan struct{} // closed when the dispatcher has exited
}

// waiterPool recycles Wait's one-shot completion channels: a channel
// goes back once its completion has been received, or once its wait was
// abandoned before any sender could learn of it — empty either way.
var waiterPool = sync.Pool{New: func() any { return make(chan completion, 1) }}

// newQueue builds a queue pair over a host core and starts its
// dispatcher.
func newQueue(h *hostCore, cfg QueueConfig) (*Queue, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultQueueDepth
	}
	q := &Queue{
		h:       h,
		cfg:     cfg,
		full:    fmt.Errorf("%w (depth %d)", ErrQueueFull, cfg.Depth),
		pending: make(map[int][]qcmd),
		pass:    make(map[int]int),
		gc:      make(map[int]*gcFlight),
		// Neither ever holds more than the Depth commands that hold slots.
		waiters: make(map[CommandID]chan completion, cfg.Depth),
		parked:  make([]completion, 0, cfg.Depth),
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
			return 0, q.full
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
	q.waiters[id] = nil
	q.pendingN++
	q.outstanding++
	q.stats.Submitted++
	q.wake.Signal()
	return id, nil
}

// SubmitDrain keeps the pair full with n commands — next(i) builds the
// i-th: whenever admission control answers ErrQueueFull it Waits on the
// oldest of its commands still in flight and retries, and after the last
// submission it Waits on the rest, oldest first. done, when non-nil,
// receives each successful response with the index of the command it
// answers. The first submission or completion error, or ctx ending (it
// also governs every command), ends the run, leaving commands still in
// flight to the caller's Close.
func (q *Queue) SubmitDrain(ctx context.Context, n int, next func(i int) HostCommand, done func(i int, resp HostResponse)) error {
	// Commands served..i-1 are in flight, command j's id at ids[j%Depth]:
	// each holds a slot, so no more than Depth of them ever are.
	ids := make([]CommandID, q.cfg.Depth)
	served := 0
	wait := func() error {
		resp, err := q.Wait(ctx, ids[served%len(ids)])
		if err != nil {
			return err
		}
		if done != nil {
			done(served, resp)
		}
		served++
		return nil
	}
	for i := 0; i < n; i++ {
		cmd := next(i)
		for {
			id, err := q.SubmitAsync(ctx, cmd)
			if errors.Is(err, ErrQueueFull) && served < i {
				if err := wait(); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			ids[i%len(ids)] = id
			break
		}
	}
	for served < n {
		if err := wait(); err != nil {
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

// Wait blocks until the identified command completes and returns its
// completion, freeing its queue slot — the one way a completion leaves
// the pair. ctx bounds the wait only: a timed-out Wait leaves the
// command running but abandons its completion — when it arrives it is
// discarded and its queue slot freed, so a caller that gives up (e.g. an
// HTTP handler whose request context ended) cannot leak slots. A Wait
// nothing can answer fails at once: on an id the pair never issued, on
// one another Wait is blocked on, and on one whose completion was
// already returned or abandoned — with ErrQueueClosed once the pair is
// closed. Every admitted command completes before Close returns (pending
// ones with ErrQueueClosed), so no other Wait outlives the dispatcher.
func (q *Queue) Wait(ctx context.Context, id CommandID) (HostResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	if id == 0 || id > q.nextID {
		q.mu.Unlock()
		return HostResponse{}, fmt.Errorf("reis: Wait on command %d, which this queue pair never issued", id)
	}
	for i, c := range q.parked {
		if c.id == id {
			q.parked = slices.Delete(q.parked, i, i+1)
			q.releaseSlotLocked()
			q.mu.Unlock()
			return c.resp, c.err
		}
	}
	w, inFlight := q.waiters[id]
	var refused error
	switch {
	case !inFlight && q.closed:
		refused = ErrQueueClosed
	case !inFlight:
		refused = fmt.Errorf("reis: Wait on command %d, whose completion was already returned or abandoned", id)
	case w != nil:
		refused = fmt.Errorf("reis: Wait on command %d, which another Wait is blocked on", id)
	}
	if refused != nil {
		q.mu.Unlock()
		return HostResponse{}, refused
	}
	ch := waiterPool.Get().(chan completion)
	defer waiterPool.Put(ch)
	q.waiters[id] = ch
	q.mu.Unlock()
	select {
	case c := <-ch:
		return c.resp, c.err
	case <-ctx.Done():
	}
	q.mu.Lock()
	if _, inFlight := q.waiters[id]; !inFlight {
		q.mu.Unlock()
		// The completion raced in while we were giving up.
		c := <-ch
		return c.resp, c.err
	}
	// Abandon the wait: with its entry gone, complete discards the
	// completion when it arrives and still frees the command's slot.
	delete(q.waiters, id)
	q.mu.Unlock()
	return HostResponse{}, ctx.Err()
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
		ca.TargetRecall != cb.TargetRecall || ca.Opt.NProbe != cb.Opt.NProbe ||
		ca.Opt.SkipDocs != cb.Opt.SkipDocs || ca.Opt.Prune != cb.Opt.Prune {
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
// as they are. Members share the pass's blocks through capacity-bounded
// windows, their PerShard headers included (one block per group). The
// blocks are a released record's when outPool holds one, and every member
// points to it, so the last member's Release hands it back; otherwise
// they are fresh, in the dispatcher's own outBlocks, which lets go of
// them once the group has completed.
func (q *Queue) execSearch(live []qcmd) {
	head := &live[0]
	queries := head.cmd.Queries
	if len(live) > 1 {
		queries = q.queries[:0]
		for i := range live {
			queries = append(queries, live[i].cmd.Queries...)
		}
		q.queries = queries
	}
	var rec *outRecord
	if outPoolUsed.Load() {
		rec, _ = outPool.Get().(*outRecord)
	}
	out := &q.out
	if rec != nil {
		out = &rec.outBlocks
	}
	err := q.h.search(q.mergeCtxs(live), &head.cmd, queries, true, out)
	if len(live) > 1 {
		// The members' operands and contexts are theirs again.
		clear(queries)
		clear(q.gctx.ctxs)
	}
	if err != nil {
		q.out = outBlocks{}
		if rec != nil {
			outPool.Put(rec) // nothing of it was handed out
		}
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
	results, sts, perShard := out.results, out.sts, out.rows
	ns := len(perShard)
	var hdrs [][]QueryStats
	if ns > 0 && len(live) > 1 {
		out.hdrs = reuse(out.hdrs, len(live)*ns)
		hdrs = out.hdrs
	}
	if rec != nil {
		rec.refs.Store(int32(len(live)))
	}
	q.out = outBlocks{}
	off := 0
	for i := range live {
		qc := &live[i]
		n := len(qc.cmd.Queries)
		resp := HostResponse{
			Results:    results[off : off+n : off+n],
			QueryStats: sts[off : off+n : off+n],
			PerShard:   perShard,
			out:        rec,
		}
		if hdrs != nil {
			resp.PerShard, hdrs = hdrs[:ns:ns], hdrs[ns:]
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

// complete delivers one completion: to the Wait blocked on it —
// discarding it if that Wait was abandoned — or, with no Wait yet, to
// the parked buffer, where it keeps its slot until Wait takes it.
//
// Slot contract: Wait returns a completion only after its slot is free.
// A blocked Wait's channel is fed after releaseSlotLocked, and Wait
// frees a parked completion's slot under the lock hold that takes it
// out. A caller that reacts to a completion by submitting again
// therefore never sees ErrQueueFull on account of the command it just
// consumed.
func (q *Queue) complete(id CommandID, resp HostResponse, err error) {
	c := completion{id: id, resp: resp, err: err}
	q.mu.Lock()
	q.stats.Completed++
	w, inFlight := q.waiters[id]
	delete(q.waiters, id)
	if inFlight && w == nil {
		q.parked = append(q.parked, c)
		q.mu.Unlock()
		return
	}
	q.releaseSlotLocked()
	q.mu.Unlock()
	if w != nil {
		w <- c
	}
	// No entry at all is an abandoned Wait: the completion is discarded,
	// the slot above is all that had to be released.
}

// mergeCtxs returns the context governing a coalesced execution: the
// shared context when every member carries the same one, otherwise the
// dispatcher's groupCtx, set to poll all of them.
func (q *Queue) mergeCtxs(group []qcmd) context.Context {
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
	ctxs := q.gctx.ctxs[:0]
	for i := range group {
		ctxs = append(ctxs, group[i].ctx)
	}
	q.gctx.ctxs = ctxs
	return &q.gctx
}

// groupCtx aggregates the member contexts of a coalesced dispatch. The
// execution core polls Err() at its checkpoints and never selects on
// Done, so Done may return nil (the "may never be canceled" contract);
// groupCtx never escapes the queue internals.
type groupCtx struct{ ctxs []context.Context }

func (g *groupCtx) Deadline() (time.Time, bool) {
	var earliest time.Time
	ok := false
	for _, c := range g.ctxs {
		if d, has := c.Deadline(); has && (!ok || d.Before(earliest)) {
			earliest, ok = d, true
		}
	}
	return earliest, ok
}

func (g *groupCtx) Done() <-chan struct{} { return nil }

func (g *groupCtx) Err() error {
	for _, c := range g.ctxs {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (g *groupCtx) Value(any) any { return nil }
