package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: fewer and the number is one unlucky request, not a
// distribution.
const tailSamples = 10

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of v and returns its middle value (the mean of
// the two middle values for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile picks the highest percentile of the ladder
// 90, 95, 99, 99.9, 99.99 that still has at least tailSamples samples
// beyond it in a sample of n, e.g. p99 needs n >= 1000. ok is false
// when even p90 is not supported (n < 100).
func tailPercentile(n int) (pct float64, ok bool) {
	// beyond is the share of samples above the percentile, per 100000, so
	// the test is exact integer arithmetic.
	for _, p := range []struct {
		pct    float64
		beyond int
	}{{99.99, 10}, {99.9, 100}, {99, 1000}, {95, 5000}, {90, 10000}} {
		if n*p.beyond >= tailSamples*100000 {
			return p.pct, true
		}
	}
	return 0, false
}

// timing summarises one set of wall-clock samples as the guide asks:
// the median, the highest percentile with ten samples beyond it, and
// the sample count.
type timing struct {
	N       int
	P50     float64
	TailPct float64 // 0 when the sample supports no tail percentile
	Tail    float64
	// P99 is the nearest-rank p99 whatever the count; the per-layer pass
	// reports it by that name beside the sample count.
	P99 float64
}

// summarize reduces durations to a timing in milliseconds.
func summarize(d []time.Duration) timing {
	if len(d) == 0 {
		return timing{}
	}
	ms := make([]float64, len(d))
	for i, x := range d {
		ms[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	t := timing{N: len(ms), P50: quantile(ms, 0.5), P99: quantile(ms, 0.99)}
	if pct, ok := tailPercentile(len(ms)); ok {
		t.TailPct, t.Tail = pct, quantile(ms, pct/100)
	}
	return t
}

// medianUs is the median of d in microseconds.
func medianUs(d []time.Duration) float64 {
	us := make([]float64, len(d))
	for i, x := range d {
		us[i] = float64(x) / float64(time.Microsecond)
	}
	return median(us)
}

// ratio is a/b, and 0 when b is 0 — per-layer shares of a layer that
// did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
