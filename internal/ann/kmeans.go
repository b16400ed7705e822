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
	K        int // number of centroids
	MaxIters int // Lloyd iterations (default 15)
	Seed     uint64
	// SampleLimit caps the number of training points considered (0 =
	// use all); FAISS-style subsampling keeps training tractable.
	SampleLimit int
}

// KMeans clusters vectors into cfg.K centroids and returns the
// centroids along with each input's assignment.
func KMeans(vectors [][]float32, cfg KMeansConfig) (centroids [][]float32, assign []int) {
	if cfg.K <= 0 {
		panic(fmt.Sprintf("ann: KMeans invalid K=%d", cfg.K))
	}
	if len(vectors) == 0 {
		panic("ann: KMeans on empty input")
	}
	if cfg.K > len(vectors) {
		cfg.K = len(vectors)
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 15
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
	for iter := 0; iter < cfg.MaxIters; iter++ {
		changed := 0
		for c := 0; c < cfg.K; c++ {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, v := range train {
			best := nearestFrom(centroids, v, trainAssign[i])
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
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point to keep
				// all nlist clusters populated.
				copy(centroids[c], train[rng.Intn(len(train))])
				continue
			}
			inv := 1 / float32(counts[c])
			for j := 0; j < dim; j++ {
				centroids[c][j] = sums[c][j] * inv
			}
		}
		if changed == 0 && iter > 0 {
			break
		}
	}

	assign = make([]int, len(vectors))
	if len(train) == len(vectors) {
		copy(assign, trainAssign) // the last iteration's assignment as a start
	}
	for i, v := range vectors {
		assign[i] = nearestFrom(centroids, v, assign[i])
	}
	return centroids, assign
}

func kmeansPlusPlusInit(train [][]float32, k, dim int, rng *xrand.RNG) [][]float32 {
	centroids := make([][]float32, k)
	first := train[rng.Intn(len(train))]
	centroids[0] = append(make([]float32, 0, dim), first...)
	dists := make([]float64, len(train))
	for i, v := range train {
		dists[i] = float64(vecmath.L2Squared(v, centroids[0]))
	}
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
		for i, v := range train {
			if d, below := vecmath.L2SquaredBelow(v, centroids[c], float32(dists[i])); below {
				dists[i] = float64(d)
			}
		}
	}
	return centroids
}

// NearestCentroid returns the index of the centroid closest to v
// under squared L2, the lowest index on a tie — the assignment rule
// KMeans itself uses, exported so callers assigning new vectors to an
// existing centroid set (e.g. IVF appends) cannot drift from it.
func NearestCentroid(centroids [][]float32, v []float32) int {
	return nearestFrom(centroids, v, 0)
}

// nearestFrom is NearestCentroid with the first full distance taken to
// centroids[start], a likely winner (a point's previous assignment), so
// that every other centroid's distance can stop summing once it reaches
// the best so far (vecmath.L2SquaredBelow). A centroid below the best's
// index wins an exact tie, so it is bounded by the next float above the
// best distance. An infinite or NaN start distance gives no bound and
// falls back to a scan from centroid 0.
func nearestFrom(centroids [][]float32, v []float32, start int) int {
	best, bestDist := start, vecmath.L2Squared(v, centroids[start])
	if start != 0 && !(bestDist <= math.MaxFloat32) {
		return nearestFrom(centroids, v, 0)
	}
	for c, cent := range centroids {
		if c == start {
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
