package reis

import (
	"math"
	"time"

	"reis/internal/xrand"
)

// This file holds the pure pieces of the latency-distribution layer
// (DESIGN.md, "Latency distributions and SLOs"). QPS summarizes a batch;
// what a user feels is the latency of their own command while it queues
// behind everyone else's. A caller that has the per-query device stats
// of a command stream (one batched command returns them, bit-identical
// to any other admission of the same queries) replays a deterministic
// arrival schedule through SimulateLoad's virtual-time model of the
// dispatcher — commands arrive at a configured rate, coalesce up to the
// pair's depth exactly as the live dispatcher would, and are served for
// the makespan the occupancy timing model assigns the coalesced batch.
// Per-command latency (completion minus arrival) streams into a
// LatencySketch for p50/p95/p99/p999.
//
// Nothing here consults a wall clock: the schedule is SplitMix64-seeded
// and the replay is a pure function of it and the cost function — so
// the quantiles are identical across runs, hosts and GOMAXPROCS
// settings, which is what lets cmd/benchdiff gate on p99.

// PoissonArrivals returns n arrival offsets of a Poisson process with
// the given mean rate (commands per second of modeled time):
// exponential interarrival gaps drawn from a SplitMix64 stream, summed
// into a sorted schedule starting near zero. The schedule depends only
// on (n, rate, seed).
func PoissonArrivals(n int, rate float64, seed uint64) []time.Duration {
	if n <= 0 || rate <= 0 {
		return nil
	}
	rng := xrand.New(seed)
	arrivals := make([]time.Duration, n)
	t := 0.0
	for i := range arrivals {
		// Inverse-CDF sample; Float64 is in [0,1), so the log argument
		// stays in (0,1] and the gap is finite and non-negative.
		t += -math.Log(1-rng.Float64()) / rate
		arrivals[i] = time.Duration(t * float64(time.Second))
	}
	return arrivals
}

// LoadResult is the outcome of one load-generator run.
type LoadResult struct {
	// Rate is the arrival rate of the schedule, set by callers that
	// resolved it from a utilization target.
	Rate float64
	// SaturationQPS is the modeled throughput ceiling of the same
	// command stream at this depth: every arrival at t=0, dispatcher
	// always coalescing full groups.
	SaturationQPS float64
	// ModelQPS is the served command count over the modeled time from
	// the start of the schedule to the last completion.
	ModelQPS float64
	// MeanBatch is the mean commands per dispatch of the replay; at
	// low rates it sits near 1 (no queueing, nothing to coalesce) and
	// grows toward Depth as the arrival rate approaches saturation.
	MeanBatch float64
	// MaxBacklog is the peak number of arrived-but-unserved commands.
	MaxBacklog int
	// P50/P95/P99/P999 are latency quantiles (completion minus
	// arrival) from a LatencySketch, within its relative-accuracy
	// bound.
	P50, P95, P99, P999 time.Duration
}

// SimulateLoad replays an arrival schedule through a virtual-time
// model of one queue pair's dispatcher: a single server that, whenever
// it frees up, coalesces every command that has already arrived — up
// to depth, in arrival order, exactly like the live dispatcher's group
// picking — and serves the group for cost(first, n), the timing
// model's makespan of commands [first, first+n). Arrivals beyond the
// depth wait, modeling a host that retries ErrQueueFull immediately.
//
// The replay is a pure function of (arrivals, depth, cost): no clocks,
// no goroutines, no randomness.
func SimulateLoad(arrivals []time.Duration, depth int, cost func(first, n int) time.Duration, accuracy float64) LoadResult {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	sketch := NewLatencySketch(accuracy)
	var res LoadResult
	if len(arrivals) == 0 {
		return res
	}
	var busyUntil, last time.Duration
	dispatches := 0
	for i := 0; i < len(arrivals); {
		start := arrivals[i]
		if busyUntil > start {
			start = busyUntil
		}
		// Backlog at dispatch time: everything that arrived while the
		// server was busy, including beyond the coalescing bound.
		backlog := 0
		for k := i; k < len(arrivals) && arrivals[k] <= start; k++ {
			backlog++
		}
		if backlog > res.MaxBacklog {
			res.MaxBacklog = backlog
		}
		j := i + 1
		for j < len(arrivals) && j-i < depth && arrivals[j] <= start {
			j++
		}
		done := start + cost(i, j-i)
		for k := i; k < j; k++ {
			sketch.Observe(done - arrivals[k])
		}
		busyUntil, last = done, done
		dispatches++
		i = j
	}
	if last > 0 {
		res.ModelQPS = float64(len(arrivals)) / last.Seconds()
	}
	res.MeanBatch = float64(len(arrivals)) / float64(dispatches)
	res.P50 = sketch.Quantile(0.50)
	res.P95 = sketch.Quantile(0.95)
	res.P99 = sketch.Quantile(0.99)
	res.P999 = sketch.Quantile(0.999)
	return res
}
