package reis

import (
	"math"
	"sort"
	"testing"
	"time"

	"reis/internal/xrand"
)

// exactQuantile returns the ceil-rank q-quantile of a sorted sample —
// the same rank convention LatencySketch.Quantile uses, so the two are
// directly comparable.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// assertSketchWithin feeds samples into a fresh sketch and checks
// every probed quantile against the exact answer under the sketch's
// relative-error bound.
func assertSketchWithin(t *testing.T, label string, samples []time.Duration, alpha float64) {
	t.Helper()
	s := NewLatencySketch(alpha)
	for _, d := range samples {
		s.Observe(d)
	}
	if s.n != int64(len(samples)) {
		t.Fatalf("%s: count %d, want %d", label, s.n, len(samples))
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := exactQuantile(sorted, q)
		got := s.Quantile(q)
		if exact == 0 {
			if got != 0 {
				t.Errorf("%s q=%v: got %v, want 0", label, q, got)
			}
			continue
		}
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		// The bucket midpoint is within alpha of every value the
		// bucket can hold; the tiny epsilon absorbs float rounding in
		// the bucket index computation.
		if relErr > alpha+1e-9 {
			t.Errorf("%s q=%v: sketch %v vs exact %v (rel err %.4f > %.4f)",
				label, q, got, exact, relErr, alpha)
		}
	}
}

// TestSketchErrorBound checks the relative-accuracy guarantee on known
// distributions spanning several orders of magnitude.
func TestSketchErrorBound(t *testing.T) {
	const n = 10000
	rng := xrand.New(0xdd)
	uniform := make([]time.Duration, n)
	exponential := make([]time.Duration, n)
	lognormal := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		uniform[i] = time.Duration(1 + rng.Float64()*float64(10*time.Millisecond))
		exponential[i] = time.Duration(-math.Log(1-rng.Float64()) * float64(2*time.Millisecond))
		lognormal[i] = time.Duration(math.Exp(rng.NormFloat64()*1.5) * float64(time.Millisecond))
	}
	for _, alpha := range []float64{0.01, 0.05} {
		assertSketchWithin(t, "uniform", uniform, alpha)
		assertSketchWithin(t, "exponential", exponential, alpha)
		assertSketchWithin(t, "lognormal", lognormal, alpha)
	}
}

// TestSketchZeroAndEmpty pins the edge cases: empty sketches answer 0,
// and non-positive samples land in the zero bucket below every
// positive value.
func TestSketchZeroAndEmpty(t *testing.T) {
	s := NewLatencySketch(0.01)
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
	for i := 0; i < 60; i++ {
		s.Observe(0)
	}
	for i := 0; i < 40; i++ {
		s.Observe(time.Millisecond)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("p50 of 60%% zeros = %v, want 0", got)
	}
	if got := s.Quantile(0.9); got == 0 {
		t.Fatal("p90 of 40% 1ms samples = 0, want positive")
	}
}

// TestSketchMerge pins that merging two halves of a stream answers
// identically to observing the whole stream in one sketch.
func TestSketchMerge(t *testing.T) {
	rng := xrand.New(7)
	whole := NewLatencySketch(0.01)
	a := NewLatencySketch(0.01)
	b := NewLatencySketch(0.01)
	for i := 0; i < 5000; i++ {
		d := time.Duration(1 + rng.Float64()*float64(50*time.Millisecond))
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%v: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	if err := a.Merge(NewLatencySketch(0.05)); err == nil {
		t.Fatal("merging sketches of different accuracy should fail")
	}
}
