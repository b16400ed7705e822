package reis

import (
	"testing"
	"time"
)

// TestPoissonArrivalsDeterministic pins the arrival schedule: sorted,
// seed-reproducible, and with the configured mean rate to within a few
// percent over a long stream.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(4096, 1000, 0x5eed)
	b := PoissonArrivals(4096, 1000, 0x5eed)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across runs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	if c := PoissonArrivals(4096, 1000, 1); c[4095] == a[4095] {
		t.Fatal("different seeds produced the same schedule")
	}
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if mean < 0.0009 || mean > 0.0011 {
		t.Fatalf("mean interarrival %.6fs, want ~0.001s", mean)
	}
}

// TestSimulateLoadShape checks the queueing model against behaviour
// that must hold for any work-conserving single server: a slow trickle
// sees bare service time with no coalescing, and a saturating rate
// drives MeanBatch toward the depth bound while tails stretch.
func TestSimulateLoadShape(t *testing.T) {
	const service = time.Millisecond
	cost := func(first, n int) time.Duration { return time.Duration(n) * service }
	// 100/s against a 1000/s server: essentially no queueing.
	trickle := SimulateLoad(PoissonArrivals(512, 100, 1), 8, cost, 0.01)
	if trickle.MeanBatch > 1.2 {
		t.Fatalf("trickle coalesced %.2f commands/dispatch, want ~1", trickle.MeanBatch)
	}
	if trickle.P50 > 2*service {
		t.Fatalf("trickle p50 %v, want ~%v", trickle.P50, service)
	}
	// 5000/s against the same server: overload — the backlog grows and
	// dispatches run at the coalescing bound.
	overload := SimulateLoad(PoissonArrivals(512, 5000, 1), 8, cost, 0.01)
	if overload.MeanBatch < 6 {
		t.Fatalf("overload coalesced %.2f commands/dispatch, want near depth 8", overload.MeanBatch)
	}
	if overload.P99 <= trickle.P99 {
		t.Fatalf("overload p99 %v not above trickle p99 %v", overload.P99, trickle.P99)
	}
	if overload.MaxBacklog <= 8 {
		t.Fatalf("overload max backlog %d, want > depth", overload.MaxBacklog)
	}
}
