package ann

import (
	"fmt"
	"math"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// KMeansConfig controls Lloyd's-algorithm clustering used to train IVF
// centroids (the indexing stage of the RAG pipeline, Sec 2.1).
type KMeansConfig struct {
	K    int // number of centroids
	Seed uint64
	// SampleLimit caps the number of training points considered (0 =
	// use all); FAISS-style subsampling keeps training tractable.
	SampleLimit int
}

// kmeansIters is the number of Lloyd iterations KMeans runs.
const kmeansIters = 15

// KMeans clusters vectors into cfg.K centroids and returns the
// centroids along with each input's assignment.
func KMeans(vectors [][]float32, cfg KMeansConfig) (centroids [][]float32, assign []int) {
	return kmeans(vectors, cfg, kmeansIters)
}

// kmeans is KMeans with at most iters Lloyd iterations.
func kmeans(vectors [][]float32, cfg KMeansConfig, iters int) (centroids [][]float32, assign []int) {
	if cfg.K <= 0 {
		panic(fmt.Sprintf("ann: KMeans invalid K=%d", cfg.K))
	}
	if len(vectors) == 0 {
		panic("ann: KMeans on empty input")
	}
	if cfg.K > len(vectors) {
		cfg.K = len(vectors)
	}
	rng := xrand.New(cfg.Seed + 0x9e37)
	dim := len(vectors[0])

	train := vectors
	if cfg.SampleLimit > 0 && cfg.SampleLimit < len(vectors) {
		perm := rng.Perm(len(vectors))
		train = make([][]float32, cfg.SampleLimit)
		for i := range train {
			train[i] = vectors[perm[i]]
		}
	}

	// k-means++ seeding for stable, well-spread initial centroids.
	centroids = kmeansPlusPlusInit(train, cfg.K, dim, rng)

	counts := make([]int, cfg.K)
	sums := make([][]float32, cfg.K)
	for c := range sums {
		sums[c] = make([]float32, dim)
	}
	trainAssign := make([]int, len(train))
	apart := make([]float64, cfg.K*cfg.K)
	converged := false // the last iteration moved no point and re-seeded no cluster
	for iter := 0; iter < iters; iter++ {
		fillApart(centroids, apart)
		changed := 0
		for c := 0; c < cfg.K; c++ {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, v := range train {
			best := nearestFrom(centroids, v, trainAssign[i], apart)
			if trainAssign[i] != best {
				changed++
				trainAssign[i] = best
			}
			counts[best]++
			s := sums[best]
			for j := range v {
				s[j] += v[j]
			}
		}
		reseeded := false
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point to keep
				// all nlist clusters populated.
				copy(centroids[c], train[rng.Intn(len(train))])
				reseeded = true
				continue
			}
			inv := 1 / float32(counts[c])
			for j := 0; j < dim; j++ {
				centroids[c][j] = sums[c][j] * inv
			}
		}
		if changed == 0 && iter > 0 {
			converged = !reseeded
			break
		}
	}

	assign = make([]int, len(vectors))
	if len(train) == len(vectors) {
		copy(assign, trainAssign) // the last iteration's assignment as a start
		if converged {
			// The same assignment summed to the same means: the
			// centroids did not move, so it still stands.
			return centroids, assign
		}
	}
	fillApart(centroids, apart)
	for i, v := range vectors {
		assign[i] = nearestFrom(centroids, v, assign[i], apart)
	}
	return centroids, assign
}

// kmeansPlusPlusInit picks k seeds by D² sampling. After each pick it
// updates every point's distance to its nearest seed so far, skipping
// the points the new seed provably cannot bring closer: a new seed at
// least twice a point's distance from its nearest one is no nearer
// (skipPoint, with the rounding margin).
func kmeansPlusPlusInit(train [][]float32, k, dim int, rng *xrand.RNG) [][]float32 {
	centroids := make([][]float32, k)
	first := train[rng.Intn(len(train))]
	centroids[0] = append(make([]float32, 0, dim), first...)
	dists := make([]float64, len(train))
	near := make([]int32, len(train)) // the seed dists[i] is measured to
	for i, v := range train {
		dists[i] = float64(vecmath.L2Squared(v, centroids[0]))
	}
	apart := make([]float64, k) // apart[j]: the new seed's distance to seed j
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dists {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(len(train))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = len(train) - 1
			for i, d := range dists {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		centroids[c] = append(make([]float32, 0, dim), train[pick]...)
		for j := range c {
			apart[j] = apartOf(centroids[c], centroids[j])
		}
		for i, v := range train {
			if skipPoint(apart[near[i]], dists[i], dim) {
				continue
			}
			if d, below := vecmath.L2SquaredBelow(v, centroids[c], float32(dists[i])); below {
				dists[i], near[i] = float64(d), int32(c)
			}
		}
	}
	return centroids
}

// skipPoint reports whether a point whose float32 squared distance to
// one centroid is dist is provably farther from a second centroid, whose
// float32 squared distance to the first is apart: the point's distance
// to the second, as vecmath.L2Squared computes it, is strictly above
// dist, so it neither wins nor ties. With E the exact distances,
// τ = n·2⁻¹⁴⁹ and γ = vecmath.L2Margin(n), a computed squared distance D
// satisfies (1−γ)E² − τ/2 ≤ D ≤ (1+γ)E² + τ (τ covers terms that
// underflow). So ρ = √((dist+τ)/(1−γ)) bounds the point's exact
// distance to the first centroid, and an exact distance of ρ to the
// second gives D ≥ dist + τ/2. The triangle inequality gives that once
// the centroids are 2ρ apart, which apart ≥ 4(dist+τ)(1+4γ) + τ proves
// ((1+γ)/(1−γ) ≤ 1+4γ, with room for float64 rounding) — Elkan's
// "Using the Triangle Inequality to Accelerate k-Means", Lemma 1.
func skipPoint(apart, dist float64, n int) bool {
	tau := float64(n) * 0x1p-149
	return apart >= 4*(1+4*vecmath.L2Margin(n))*(dist+tau)+tau
}

// apartOf is the float32 squared distance between two centroids as
// skipPoint reads it: 0, which proves nothing, where it overflowed or is
// NaN.
func apartOf(a, b []float32) float64 {
	if d := vecmath.L2Squared(a, b); d <= math.MaxFloat32 {
		return float64(d)
	}
	return 0
}

// NearestCentroid returns the index of the centroid closest to v
// under squared L2, the lowest index on a tie — the assignment rule
// KMeans itself uses, exported so callers assigning new vectors to an
// existing centroid set (e.g. IVF appends) cannot drift from it.
func NearestCentroid(centroids [][]float32, v []float32) int {
	return nearestFrom(centroids, v, 0, nil)
}

// fillApart sets apart[i*k+j] to apartOf(centroids[i], centroids[j]).
func fillApart(centroids [][]float32, apart []float64) {
	k := len(centroids)
	for i := range centroids {
		for j := range i {
			apart[i*k+j] = apartOf(centroids[i], centroids[j])
			apart[j*k+i] = apart[i*k+j]
		}
	}
}

// nearestFrom is NearestCentroid with the first full distance taken to
// centroids[start], a likely winner (a point's previous assignment), so
// that every other centroid's distance can stop summing once it reaches
// the best so far (vecmath.L2SquaredBelow). A centroid below the best's
// index wins an exact tie, so it is bounded by the next float above the
// best distance. An infinite or NaN start distance gives no bound and
// falls back to a scan from centroid 0. With apart (fillApart's
// matrix, or nil) a centroid that skipPoint proves farther than the
// best so far is not scored at all.
func nearestFrom(centroids [][]float32, v []float32, start int, apart []float64) int {
	best, bestDist := start, vecmath.L2Squared(v, centroids[start])
	if start != 0 && !(bestDist <= math.MaxFloat32) {
		return nearestFrom(centroids, v, 0, apart)
	}
	k := len(centroids)
	for c, cent := range centroids {
		if c == start {
			continue
		}
		if apart != nil && skipPoint(apart[best*k+c], float64(bestDist), len(v)) {
			continue
		}
		bound := bestDist
		if c < best {
			bound = math.Nextafter32(bestDist, float32(math.Inf(1)))
		}
		if d, below := vecmath.L2SquaredBelow(v, cent, bound); below {
			best, bestDist = c, d
		}
	}
	return best
}
