package reis

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file implements the streaming quantile sketch behind the
// latency-distribution layer (see DESIGN.md, "Latency distributions
// and SLOs"). The load generator (loadgen.go) feeds one modeled
// latency per served command into a LatencySketch and the SLO sweeps
// report p50/p95/p99/p999 from it.
//
// The sketch is a DDSketch-style logarithmic histogram: bucket i holds
// every value v with gamma^(i-1) < v <= gamma^i, where
// gamma = (1+alpha)/(1-alpha). Reporting the bucket midpoint
// 2*gamma^i/(gamma+1) guarantees a relative error of at most alpha for
// every quantile, with O(log(max/min)/alpha) buckets regardless of
// stream length. Unlike sampling sketches the answer is a pure
// function of the observed multiset — no randomness, no insertion-
// order dependence — which is what lets the SLO sweeps promise
// bit-identical JSON across runs and GOMAXPROCS.

// defaultSketchAccuracy is the relative-accuracy bound alpha used when
// a caller passes none: quantiles are within 1% of the true value.
const defaultSketchAccuracy = 0.01

// LatencySketch is a deterministic streaming quantile sketch over
// durations with a bounded relative error. The zero value is not
// usable; construct with NewLatencySketch.
type LatencySketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64
	// counts maps bucket index to occupancy; zero and negative
	// durations land in the dedicated zero bucket below every key.
	counts map[int]int64
	zero   int64
	n      int64
}

// NewLatencySketch builds a sketch whose Quantile answers are within a
// relative error of alpha (0 < alpha < 1); alpha <= 0 selects
// defaultSketchAccuracy.
func NewLatencySketch(alpha float64) *LatencySketch {
	if alpha <= 0 {
		alpha = defaultSketchAccuracy
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("reis: sketch accuracy %v out of range (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &LatencySketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		counts:  make(map[int]int64),
	}
}

// Observe records one latency sample.
func (s *LatencySketch) Observe(d time.Duration) {
	s.n++
	ns := d.Nanoseconds()
	if ns <= 0 {
		s.zero++
		return
	}
	s.counts[s.bucket(ns)]++
}

// bucket returns the index i with gamma^(i-1) < ns <= gamma^i.
func (s *LatencySketch) bucket(ns int64) int {
	return int(math.Ceil(math.Log(float64(ns)) / s.lnGamma))
}

// Merge folds another sketch of the same accuracy into s. Merging is
// exact: the merged sketch answers as if it had observed both streams.
func (s *LatencySketch) Merge(o *LatencySketch) error {
	if o == nil {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("reis: cannot merge sketches of accuracy %v and %v", s.alpha, o.alpha)
	}
	s.n += o.n
	s.zero += o.zero
	for k, c := range o.counts {
		s.counts[k] += c
	}
	return nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observed
// stream, within the sketch's relative-error bound. It returns 0 on an
// empty sketch.
func (s *LatencySketch) Quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	cum := s.zero
	if cum >= rank {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		cum += s.counts[k]
		if cum >= rank {
			// Bucket midpoint under the ratio metric: within alpha of
			// every value the bucket can hold.
			v := 2 * math.Exp(float64(k)*s.lnGamma) / (s.gamma + 1)
			return time.Duration(v + 0.5)
		}
	}
	// Unreachable: bucket counts sum to n - zero.
	return 0
}
