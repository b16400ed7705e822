// Package serve implements the replicated serving tier: a Group of N
// replicas — single-device engines or sharded routers — holding the
// same corpus, fronted by load-aware routing and a production HTTP
// gateway (gateway.go).
//
// Routing. Each search command goes to exactly one replica, chosen by
// power-of-two-choices over per-queue occupancy (two distinct replicas
// sampled, the one with fewer outstanding commands wins; with a single
// healthy replica the choice is degenerate). Routing is free to be
// random because replicas are bit-identical by construction: any
// replica's answer is THE answer, so the group's results are
// bit-identical to a single replica no matter how commands are spread
// (pinned by TestReplicaGroupMatchesSingleReplica).
//
// Failover and health. When the chosen replica's queue rejects with
// ErrQueueFull, the command fails over through the remaining replicas
// in ascending-occupancy order. A replica that rejects failStreak
// consecutive submissions is retired — taken out of the routing set —
// and readmitted once its queue drains to readmitBelow of its depth.
// Retirement is purely a load signal: a retired replica still receives
// every mutation broadcast, so its data never diverges and readmission
// needs no catch-up.
//
// Mutation barrier. Deploys and mutations (Append/Delete/Compact)
// broadcast to ALL replicas under a write barrier (an RWMutex searches
// hold in read mode for their whole submit-to-completion window): new
// searches stop admitting, in-flight ones finish, then every replica
// applies the mutation through its host's blocking submit path and the
// responses are checked bit-identical before the barrier lifts.
// Replicas therefore observe the same totally-ordered mutation history
// and never diverge.
package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"reis/internal/reis"
	"reis/internal/xrand"
)

// Host is the engine surface one replica exposes to the group. Both
// *reis.Engine and *reis.ShardedEngine satisfy it with the same four
// methods — they are promoted from the one host core the two types are
// facades of (internal/reis/host.go), so a replica behaves identically
// whether it is one device or a router over several.
type Host interface {
	// Submit executes one command synchronously (blocking admission on
	// the host's built-in queue pair) — the broadcast path mutations
	// take.
	Submit(reis.HostCommand) (reis.HostResponse, error)
	// NewQueue creates the replica's routed queue pair.
	NewQueue(reis.QueueConfig) (*reis.Queue, error)
	// Ready is the health probe: false once the host is closed.
	Ready() bool
	Close() error
}

var (
	// errNoReplicas: NewGroup needs at least one host.
	errNoReplicas = errors.New("serve: replica group needs at least one host")
	// errAllSaturated: every replica (healthy and retired) rejected the
	// command with ErrQueueFull; the wrapped error chain also matches
	// reis.ErrQueueFull so callers keep their existing backpressure
	// handling.
	errAllSaturated = errors.New("serve: every replica queue is full")
	// errDiverged: a mutation broadcast produced non-identical
	// responses across replicas — the determinism contract is broken
	// (or the hosts were not built over the same corpus).
	errDiverged = errors.New("serve: replica responses diverged")
	// errGroupClosed: the group has been Closed.
	errGroupClosed = errors.New("serve: group closed")
)

// Config tunes a replica group. The zero value is usable.
type Config struct {
	// QueueDepth is the per-replica routed queue depth (zero means
	// reis.DefaultQueueDepth).
	QueueDepth int
	// Seed seeds the routing RNG (zero means 1). Routing randomness
	// never affects results — only which replica does the work.
	Seed uint64
}

const (
	// failStreak is the consecutive-ErrQueueFull count that retires a
	// replica.
	failStreak = 3
	// readmitBelow is the occupancy fraction at or below which a retired
	// replica rejoins the routing set.
	readmitBelow = 0.5
	// broadcastRetries bounds the roll-forward attempts per replica when
	// a mutation broadcast fails on some members but succeeds on others:
	// each failed member is retried up to this many times before the
	// group declares errDiverged. Mutations validate before applying any
	// state, so a failed attempt leaves the replica untouched and a retry
	// is safe.
	broadcastRetries = 3
)

// ReplicaStats is one replica's routing view in a stats snapshot.
type ReplicaStats struct {
	Routed      uint64 `json:"routed"`
	Rejected    uint64 `json:"rejected"`
	Retired     bool   `json:"retired"`
	Ready       bool   `json:"ready"`
	Outstanding int    `json:"outstanding"`
	Depth       int    `json:"depth"`
}

// GroupStats is a snapshot of the group's routing counters.
type GroupStats struct {
	// Routed counts search commands accepted by some replica;
	// Failovers counts those accepted only after at least one
	// rejection; Rejected counts per-replica ErrQueueFull rejections
	// (one command may contribute several).
	Routed    uint64 `json:"routed"`
	Failovers uint64 `json:"failovers"`
	Rejected  uint64 `json:"rejected"`
	// Broadcasts counts mutation/deploy commands applied to every
	// replica under the barrier.
	Broadcasts uint64 `json:"broadcasts"`
	// Retirements / Readmissions count health transitions.
	Retirements  uint64         `json:"retirements"`
	Readmissions uint64         `json:"readmissions"`
	Replicas     []ReplicaStats `json:"replicas"`
}

// replica is one member host plus the group's routed queue into it.
type replica struct {
	host Host
	q    *reis.Queue

	// Health/routing state, guarded by Group.mu.
	retired bool
	streak  int
	routed  uint64
	rejects uint64
}

// Group is a replica group: N hosts over the same corpus behind one
// routing front. All methods are safe for concurrent use.
type Group struct {
	reps []*replica

	// barrier orders searches against mutations: searches hold the
	// read side from submission through completion; broadcasts hold
	// the write side while every replica applies the mutation.
	barrier sync.RWMutex

	mu     sync.Mutex // routing + health state, RNG, counters
	rng    *xrand.RNG
	stats  GroupStats
	closed bool
}

// NewGroup builds a replica group over hosts, creating one routed
// queue pair per replica. The group takes ownership: Close closes the
// queues and the hosts. The caller must have built every host over
// identical data (or deploy through the group, whose deploy commands
// broadcast).
func NewGroup(hosts []Host, cfg Config) (*Group, error) {
	return newGroup(hosts, cfg, func(int) int { return cfg.QueueDepth })
}

// newGroup is NewGroup with replica i's queue depth given by depth(i);
// the failover test gives the members uneven depths to force a
// retirement.
func newGroup(hosts []Host, cfg Config, depth func(i int) int) (*Group, error) {
	if len(hosts) == 0 {
		return nil, errNoReplicas
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Group{rng: xrand.New(cfg.Seed)}
	for i, h := range hosts {
		q, err := h.NewQueue(reis.QueueConfig{Depth: depth(i)})
		if err != nil {
			for _, r := range g.reps {
				r.q.Close()
			}
			return nil, fmt.Errorf("serve: replica %d queue: %w", i, err)
		}
		g.reps = append(g.reps, &replica{host: h, q: q})
	}
	return g, nil
}

// Replicas returns the group size.
func (g *Group) Replicas() int { return len(g.reps) }

// Queue exposes replica i's routed queue pair (tests and load
// injection).
func (g *Group) Queue(i int) *reis.Queue { return g.reps[i].q }

// ready reports whether at least one replica host is healthy — the
// group-level liveness probe behind the gateway's health endpoint.
func (g *Group) ready() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.mu.Unlock()
	for _, r := range g.reps {
		if r.host.Ready() {
			return true
		}
	}
	return false
}

// retire removes replica i from the routing set. In-flight commands on
// the replica complete normally, and the replica keeps receiving
// mutation broadcasts. g.mu must be held.
func (g *Group) retire(i int) {
	if !g.reps[i].retired {
		g.reps[i].retired = true
		g.stats.Retirements++
	}
}

// readmit returns replica i to the routing set. g.mu must be held.
func (g *Group) readmit(i int) {
	if g.reps[i].retired {
		g.reps[i].retired = false
		g.reps[i].streak = 0
		g.stats.Readmissions++
	}
}

// Stats returns a snapshot of the routing counters and per-replica
// state.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.stats
	out.Replicas = make([]ReplicaStats, len(g.reps))
	for i, r := range g.reps {
		out.Replicas[i] = ReplicaStats{
			Routed: r.routed, Rejected: r.rejects, Retired: r.retired,
			Ready: r.host.Ready(), Outstanding: r.q.Outstanding(), Depth: r.q.Depth(),
		}
	}
	return out
}

// Close closes every replica's routed queue and host. Idempotent.
func (g *Group) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	for _, r := range g.reps {
		r.q.Close()
		r.host.Close()
	}
	return nil
}

// isBroadcastOp reports whether the opcode mutates replica state and
// must be applied to every replica (deploys included: a group-deployed
// database exists on all members).
func isBroadcastOp(op uint8) bool {
	switch op {
	case reis.OpcodeDBDeploy, reis.OpcodeIVFDeploy,
		reis.OpcodeAppend, reis.OpcodeDelete, reis.OpcodeCompact:
		return true
	}
	return false
}

// Submit executes one command through the group synchronously:
// searches route to one replica, mutations broadcast to all.
func (g *Group) Submit(cmd reis.HostCommand) (reis.HostResponse, error) {
	return g.Do(context.Background(), cmd)
}

// Do executes one command through the group under ctx. Search results
// are bit-identical regardless of which replica serves them; mutation
// responses are verified identical across replicas before returning.
func (g *Group) Do(ctx context.Context, cmd reis.HostCommand) (reis.HostResponse, error) {
	if isBroadcastOp(cmd.Opcode) {
		return g.broadcast(ctx, cmd)
	}
	g.barrier.RLock()
	defer g.barrier.RUnlock()
	var buf [stackReplicas]int
	order, err := g.route(buf[:0])
	if err != nil {
		return reis.HostResponse{}, err
	}
	var lastErr error
	for hop, i := range order {
		r := g.reps[i]
		id, err := r.q.SubmitAsync(ctx, cmd)
		if err == nil {
			g.noteAccept(i, hop > 0)
			return r.q.Wait(ctx, id)
		}
		if !errors.Is(err, reis.ErrQueueFull) {
			return reis.HostResponse{}, err
		}
		g.noteReject(i)
		lastErr = err
	}
	return reis.HostResponse{}, fmt.Errorf("%w: %w", errAllSaturated, lastErr)
}

// stackReplicas is the group size up to which routing a command
// allocates nothing: the candidate list and the preference order of a
// group this small live on the router's stack.
const stackReplicas = 8

// routeCand is one replica's routing snapshot.
type routeCand struct {
	i, out  int
	retired bool
}

// before orders candidates by ascending occupancy, healthy before
// retired, index breaking ties (deterministic given the occupancy
// snapshot).
func (a routeCand) before(b routeCand) bool {
	if a.retired != b.retired {
		return !a.retired
	}
	if a.out != b.out {
		return a.out < b.out
	}
	return a.i < b.i
}

// route fills order (handed in empty) with the replica indexes in
// submission-preference order: the power-of-two-choices winner among
// healthy replicas first, then the remaining healthy replicas by
// ascending occupancy (the failover chain), then retired replicas by
// ascending occupancy (last resort — a command is only refused when
// literally every queue is full). It also runs the readmission check: a
// retired replica whose queue has drained to readmitBelow of its depth
// rejoins the healthy set.
func (g *Group) route(order []int) ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errGroupClosed
	}
	var buf [stackReplicas]routeCand
	cands := buf[:0]
	healthy := 0
	for i, r := range g.reps {
		out := r.q.Outstanding()
		if float64(out) <= readmitBelow*float64(r.q.Depth()) {
			g.readmit(i)
		}
		// Insertion sort: a group is a handful of replicas.
		c := routeCand{i: i, out: out, retired: r.retired}
		cands = append(cands, c)
		j := len(cands) - 1
		for ; j > 0 && c.before(cands[j-1]); j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = c
		if !r.retired {
			healthy++
		}
	}
	for _, c := range cands {
		order = append(order, c.i)
	}
	if healthy >= 2 {
		// Power-of-two-choices over the healthy prefix: sample two
		// distinct replicas, promote the less loaded of the pair to the
		// front. Cheaper than a full scan at scale, and it keeps a
		// mildly stale occupancy signal from herding every command onto
		// one replica.
		a := g.rng.Intn(healthy)
		b := g.rng.Intn(healthy - 1)
		if b >= a {
			b++
		}
		if cands[b].before(cands[a]) {
			a = b
		}
		order[0], order[a] = order[a], order[0]
	}
	return order, nil
}

// noteAccept records a successful submission on replica i.
func (g *Group) noteAccept(i int, failover bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.reps[i]
	r.streak = 0
	r.routed++
	g.stats.Routed++
	if failover {
		g.stats.Failovers++
	}
}

// noteReject records an ErrQueueFull rejection on replica i and
// retires it when the consecutive-rejection streak reaches failStreak.
func (g *Group) noteReject(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.reps[i]
	r.rejects++
	r.streak++
	g.stats.Rejected++
	if r.streak >= failStreak {
		g.retire(i)
	}
}

// broadcast applies one mutation/deploy command to every replica under
// the write barrier, waits for all of them (the barrier proper), and
// verifies the responses are bit-identical before lifting it. Retired
// replicas are included — retirement is a load signal, not a data
// state, so readmission never needs catch-up.
//
// A mixed first round — some replicas applied the mutation, others
// failed — is NOT immediately divergence: the group rolls forward,
// retrying each failed member up to broadcastRetries times (a
// failed mutation validates before touching state, so the retry reruns
// the identical command on unchanged state). Only a member that stays
// failed after the retry budget, or a member whose response differs
// from the others', diverges the group. A unanimous failure is a plain
// command error: no replica changed state and the group is still
// consistent.
func (g *Group) broadcast(ctx context.Context, cmd reis.HostCommand) (reis.HostResponse, error) {
	if err := ctx.Err(); err != nil {
		return reis.HostResponse{}, err
	}
	g.barrier.Lock()
	defer g.barrier.Unlock()
	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if closed {
		return reis.HostResponse{}, errGroupClosed
	}
	n := len(g.reps)
	resps := make([]reis.HostResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, r := range g.reps {
		wg.Add(1)
		go func(i int, h Host) {
			defer wg.Done()
			// The host's blocking submit path: a mutation is never
			// dropped because a routed queue is momentarily full.
			resps[i], errs[i] = h.Submit(cmd)
		}(i, r.host)
	}
	wg.Wait()
	failed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			failed++
		}
	}
	if failed == n {
		// No replica changed state; the command itself failed.
		return reis.HostResponse{}, errs[0]
	}
	if failed > 0 {
		// Roll forward: the succeeded majority has already applied the
		// mutation, so the only way back to a consistent group is to
		// drive the failed members to the same state.
		for i := 0; i < n; i++ {
			for attempt := 0; errs[i] != nil && attempt < broadcastRetries; attempt++ {
				resps[i], errs[i] = g.reps[i].host.Submit(cmd)
			}
			if errs[i] != nil {
				return reis.HostResponse{}, fmt.Errorf(
					"%w: replica %d still failed after %d roll-forward retries (%v)",
					errDiverged, i, broadcastRetries, errs[i])
			}
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(resps[i], resps[0]) {
			return reis.HostResponse{}, fmt.Errorf("%w: opcode %#x response differs between replica 0 and %d", errDiverged, cmd.Opcode, i)
		}
	}
	g.mu.Lock()
	g.stats.Broadcasts++
	g.mu.Unlock()
	return resps[0], nil
}
