// Package xrand provides a small, deterministic pseudo-random number
// generator used throughout the repository.
//
// All experiments in this reproduction must be reproducible bit-for-bit
// across platforms and Go releases, so we do not rely on math/rand's
// unspecified stream. The generator is SplitMix64 (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014), which
// passes BigCrush for the 64-bit output sizes we need and is trivially
// seedable and splittable.
package xrand

import (
	"math"
	"math/bits"
	"sort"
)

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64

	// cached spare Gaussian sample from the Box-Muller transform.
	haveSpare bool
	spare     float64

	// memoized Zipf CDF table for the last (n, s) pair sampled.
	zipfN   int
	zipfS   float64
	zipfCDF []float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a statistically independent generator from r.
// Both r and the returned generator remain usable.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n).
// It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method over 64 bits.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniformly distributed float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal (mean 0, stddev 1) sample using
// the Box-Muller transform. Deterministic given the generator state.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.haveSpare = true
	return u * f
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf returns a sample in [0, n) distributed with P(i) proportional to
// 1/(i+1)^s, so rank 0 is the most popular element. s = 0 degenerates
// to the uniform distribution. The sampler is rejection-free: one
// Float64 draw is inverted through a cumulative-distribution table, so
// the number of generator steps per sample is fixed and the output
// stream stays aligned across platforms. The table is memoized on the
// generator per (n, s) pair, making repeated draws O(log n).
// It panics if n <= 0 or s < 0.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if s < 0 || math.IsNaN(s) {
		panic("xrand: Zipf with negative s")
	}
	if r.zipfCDF == nil || r.zipfN != n || r.zipfS != s {
		cdf := make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += math.Pow(float64(i+1), -s)
			cdf[i] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
		// Guard against accumulated rounding leaving the final bucket
		// fractionally below 1: every u in [0, 1) must land in range.
		cdf[n-1] = 1
		r.zipfN, r.zipfS, r.zipfCDF = n, s, cdf
	}
	u := r.Float64()
	// Smallest i with u < cdf[i]; u < 1 = cdf[n-1] keeps it in range.
	return sort.Search(n, func(i int) bool { return u < r.zipfCDF[i] })
}

// Shuffle pseudo-randomizes the order of n elements by calling swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
