// Package dataset provides the vector-database workloads used by every
// experiment in this reproduction.
//
// The paper evaluates on real embedding corpora (BEIR NQ and HotpotQA,
// the Cohere multilingual Wikipedia dump wiki_en / wiki_full, and the
// billion-scale SIFT-1B / DEEP-1B collections). Those datasets are not
// available offline, so this package generates deterministic synthetic
// equivalents: clustered Gaussian mixtures on the unit sphere whose
// cluster structure, dimensionality and document-chunk sizes mimic the
// originals at a configurable scale. Queries are generated near data
// points so that exact top-k ground truth is meaningful, and Recall@k
// is computed exactly.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// Dataset is a fully materialized retrieval workload: database
// embeddings with linked document chunks, query embeddings, and exact
// ground-truth nearest neighbors for the queries.
type Dataset struct {
	Name string
	Dim  int

	// Vectors holds the database embeddings, row-major.
	Vectors [][]float32
	// Docs[i] is the document chunk linked to Vectors[i].
	Docs [][]byte
	// Queries holds the query embeddings.
	Queries [][]float32
	// GroundTruth[q] lists the indices of the exact top-k nearest
	// database vectors for Queries[q], closest first.
	GroundTruth [][]int
	// groundTruthK is the k used when computing GroundTruth.
	groundTruthK int
	// ClusterOf[i] is the generator topic that produced Vectors[i];
	// filtered-search tests use it as the metadata tag.
	ClusterOf []int
}

// Len returns the number of database entries.
func (d *Dataset) Len() int { return len(d.Vectors) }

// Config controls synthetic dataset generation.
type Config struct {
	Name     string
	N        int // number of database vectors
	Dim      int // embedding dimensionality
	Clusters int // number of generator clusters (semantic topics)
	Queries  int // number of query vectors
	K        int // ground-truth depth
	DocBytes int // size of each generated document chunk
	// QueryNoise is the expected norm of the noise vector added to a
	// database vector to form a query (per-component std is
	// QueryNoise/sqrt(Dim), so the value is dimension-independent).
	QueryNoise float64
	Seed       uint64
}

const (
	// clusterStd is the expected norm of the within-cluster noise
	// vector before normalization (per-component std is
	// clusterStd/sqrt(Dim)); smaller values make the data more
	// clustered, which is what makes IVF effective on text embeddings.
	clusterStd = 0.35
	// backgroundFrac is the fraction of points drawn with
	// backgroundStd noise instead of clusterStd. Real embedding
	// corpora are not clean mixtures: most members of an IVF cell are
	// only loosely related to its centroid, which is what makes the
	// paper's distance filtering effective inside probed clusters.
	backgroundFrac = 0.5
	// backgroundStd is the noise norm for background points.
	backgroundStd = 1.2
)

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = max(1, c.N/256)
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.DocBytes == 0 {
		c.DocBytes = 1024
	}
	if c.QueryNoise == 0 {
		c.QueryNoise = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Generate builds a synthetic dataset per cfg. Generation is fully
// deterministic given cfg.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("dataset: invalid config N=%d Dim=%d", cfg.N, cfg.Dim))
	}
	rng := xrand.New(cfg.Seed)

	// Cluster centers: random unit vectors.
	centers := make([][]float32, cfg.Clusters)
	for c := range centers {
		v := gaussVec(rng, cfg.Dim)
		vecmath.Normalize(v)
		centers[c] = v
	}

	d := &Dataset{
		Name:         cfg.Name,
		Dim:          cfg.Dim,
		Vectors:      make([][]float32, cfg.N),
		Docs:         make([][]byte, cfg.N),
		groundTruthK: cfg.K,
	}

	invSqrtDim := 1 / float32(sqrtf(float64(cfg.Dim)))
	clusterSigma := float32(clusterStd) * invSqrtDim
	querySigma := float32(cfg.QueryNoise) * invSqrtDim
	backgroundSigma := float32(backgroundStd) * invSqrtDim
	d.ClusterOf = make([]int, cfg.N)
	core := make([]int, 0, cfg.N) // indices of tight (non-background) points
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.Clusters)
		d.ClusterOf[i] = c
		sigma := clusterSigma
		if rng.Float64() < backgroundFrac {
			sigma = backgroundSigma
		} else {
			core = append(core, i)
		}
		v := make([]float32, cfg.Dim)
		for j := range v {
			v[j] = centers[c][j] + sigma*float32(rng.NormFloat64())
		}
		vecmath.Normalize(v)
		d.Vectors[i] = v
		d.Docs[i] = makeDoc(cfg.Name, i, c, cfg.DocBytes)
	}
	if len(core) == 0 {
		for i := range d.Vectors {
			core = append(core, i)
		}
	}

	// Queries: perturbations of random core database vectors,
	// mimicking queries semantically close to some stored chunk.
	d.Queries = make([][]float32, cfg.Queries)
	for q := range d.Queries {
		base := d.Vectors[core[rng.Intn(len(core))]]
		v := make([]float32, cfg.Dim)
		for j := range v {
			v[j] = base[j] + querySigma*float32(rng.NormFloat64())
		}
		vecmath.Normalize(v)
		d.Queries[q] = v
	}

	d.GroundTruth = pivotTopK(d.Vectors, d.Queries, cfg.K, centers, ringMinQueries)
	return d
}

// ringMinQueries is the fewest queries a pivot must serve for pivotTopK
// to build its ring: the ring costs one float64 distance per vector and
// a sort, about three ExactTopK scans, and saves most of a scan per query.
const ringMinQueries = 4

// pivotTopK returns ExactTopK(vectors, q, k) for every query q, the
// same lists, computed as one batch with pivots (Generate passes its
// cluster centres). Each query pivots on its nearest pivot: a vector at
// distance b from it, the query being at distance a, is at least
// |a − b| from the query (the triangle inequality). The vectors are
// sorted by b, once per pivot for all the queries on it, and scored
// outward from a, smallest |a − b| first, until the window |a − b| ≤ W
// closes on both sides, W being the current k-th distance's root
// widened by pivotWindow's rounding margin. A vector outside it is
// provably farther, as float32 computes it, than the k-th kept one, so
// it could not have entered. The kept set is the k smallest
// (distance, index) pairs, ExactTopK's order, so neither the pivots
// nor the visiting order can change a result, only how many distances
// are computed. A pivot serving fewer than minQueries queries gets no
// ring: its queries run ExactTopK. Vectors, queries and pivots must be
// finite, and there must be fewer than 2³² vectors.
func pivotTopK(vectors, queries [][]float32, k int, pivots [][]float32, minQueries int) [][]int {
	out := make([][]int, len(queries))
	pivotOf := make([]int, len(queries))
	queryToPivot := make([]float64, len(queries))
	byPivot := make([]int, len(queries))
	for q, qv := range queries {
		for p, pv := range pivots {
			if d := dist64(qv, pv); p == 0 || d < queryToPivot[q] {
				pivotOf[q], queryToPivot[q] = p, d
			}
		}
		byPivot[q] = q
	}
	slices.SortFunc(byPivot, func(x, y int) int { return cmp.Compare(pivotOf[x], pivotOf[y]) })

	// ring holds the vectors by distance to the current pivot, each as
	// that distance rounded to float32, its bits over the vector's index:
	// non-negative floats order as their bits do, so a plain sort orders
	// by (b, index).
	n, dim := len(vectors), len(vectors[0])
	k = min(k, n)
	ring := make([]uint64, n)
	b := func(j int) float64 { return float64(math.Float32frombits(uint32(ring[j] >> 32))) }
	nearest := kNearest{top: make([]cand, 0, max(k, 0)), k: k}
	for len(byPivot) > 0 {
		p, m := pivotOf[byPivot[0]], 1
		for m < len(byPivot) && pivotOf[byPivot[m]] == p {
			m++
		}
		group := byPivot[:m]
		byPivot = byPivot[m:]
		if m < minQueries || k <= 0 {
			for _, q := range group {
				out[q] = ExactTopK(vectors, queries[q], k)
			}
			continue
		}
		for i, v := range vectors {
			ring[i] = uint64(math.Float32bits(float32(dist64(v, pivots[p]))))<<32 | uint64(i)
		}
		slices.Sort(ring)
		bmax := b(n - 1)
		for _, q := range group {
			a := queryToPivot[q]
			nearest.reset(queries[q])
			w := math.Inf(1)
			hi := sort.Search(n, func(j int) bool { return b(j) >= a })
			lo := hi - 1
			for lo >= 0 || hi < n {
				var j int
				if hi == n || lo >= 0 && a-b(lo) <= b(hi)-a {
					if a-b(lo) > w {
						break // the other side is no nearer
					}
					j, lo = lo, lo-1
				} else {
					if b(hi)-a > w {
						break
					}
					j, hi = hi, hi+1
				}
				id := int(uint32(ring[j]))
				if nearest.offer(id, vectors[id]) && len(nearest.top) == k {
					w = pivotWindow(nearest.top[k-1].dist, a, bmax, dim)
				}
			}
			out[q] = nearest.ids()
		}
	}
	return out
}

// pivotWindow returns the half-width W of pivotTopK's window: a vector
// x at distance b from a pivot that is at distance a from the query,
// with |a − b| > W, has a float32 squared distance to the query (as
// vecmath.L2Squared computes it) strictly above kth. By the triangle
// inequality the exact distance E to the query is at least |A − B|,
// the exact pivot distances. The float32 one is at least
// (1−γ)E² − n·2⁻¹⁵⁰ (γ = vecmath.L2Margin(n); the second term covers
// terms that underflow), so E ≥ R = √((kth + n·2⁻¹⁴⁹)/(1−γ)) suffices.
// a is a float64 sum of float64 squares of float32 differences, within
// a relative (n+4)·2⁻⁵³ of the exact distance, and b is such a sum
// rounded to float32, within 2⁻²⁴ more; the slack e·(a + bmax + R),
// with e = 2⁻²² + (n+8)·2⁻⁵⁰ and bmax the largest b, covers those
// errors and the rounding of the window's own arithmetic.
func pivotWindow(kth float32, a, bmax float64, n int) float64 {
	g := vecmath.L2Margin(n)
	if math.IsInf(g, 1) {
		return math.Inf(1)
	}
	r := math.Sqrt((float64(kth) + float64(n)*0x1p-149) / (1 - g))
	return r + (0x1p-22+float64(n+8)*0x1p-50)*(a+bmax+r)
}

// dist64 is the Euclidean distance between a and b in float64, summed
// on four interleaved partial sums (any order keeps pivotWindow's error
// bound).
func dist64(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1 := float64(a[i])-float64(b[i]), float64(a[i+1])-float64(b[i+1])
		d2, d3 := float64(a[i+2])-float64(b[i+2]), float64(a[i+3])-float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return math.Sqrt((s0 + s1) + (s2 + s3))
}

func sqrtf(x float64) float64 { return math.Sqrt(x) }

func gaussVec(r *xrand.RNG, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// makeDoc produces a deterministic pseudo-text document chunk of
// exactly size bytes, tagged with the entry and cluster ids so tests
// can verify end-to-end retrieval returns the right chunk.
func makeDoc(name string, id, cluster, size int) []byte {
	header := fmt.Sprintf("[%s doc=%d topic=%d] ", name, id, cluster)
	b := make([]byte, size)
	copy(b, header)
	const filler = "the quick brown fox jumps over the lazy dog. "
	for i := len(header); i < size; i++ {
		b[i] = filler[(i-len(header))%len(filler)]
	}
	return b
}

// ExactTopK returns the indices of the k nearest vectors to query by
// squared L2 distance, closest first. Ties break toward the lower
// index so results are deterministic. k <= 0 returns an empty list.
// It offers every vector, in index order, to a kNearest.
func ExactTopK(vectors [][]float32, query []float32, k int) []int {
	k = min(k, len(vectors))
	if k <= 0 {
		return []int{}
	}
	nearest := kNearest{top: make([]cand, 0, k), k: k}
	nearest.reset(query)
	for i, v := range vectors {
		nearest.offer(i, v)
	}
	return nearest.ids()
}

// cand is a kept vector: its squared distance and index.
type cand struct {
	dist float32
	idx  int
}

// kNearest keeps the k smallest (distance, index) pairs among the
// vectors offered to it, in that order, whatever order they come in: a
// vector enters if it is strictly closer than the k-th kept one, or as
// close with a lower index. Each distance stops summing as soon as it
// cannot enter (vecmath.L2SquaredBelow).
type kNearest struct {
	query []float32
	top   []cand
	k     int
}

// reset starts a new query.
func (t *kNearest) reset(query []float32) {
	t.query, t.top = query, t.top[:0]
}

// offer scores vector id and keeps it if it enters; it reports whether
// it did.
func (t *kNearest) offer(id int, v []float32) bool {
	var d float32
	if len(t.top) < t.k {
		d = vecmath.L2Squared(t.query, v)
	} else {
		// Below the next float up: a tie with the k-th enters if its
		// index is lower.
		kth := t.top[t.k-1]
		var below bool
		d, below = vecmath.L2SquaredBelow(t.query, v, math.Nextafter32(kth.dist, float32(math.Inf(1))))
		if !below || d == kth.dist && id > kth.idx {
			return false
		}
		t.top = t.top[:t.k-1]
	}
	j := len(t.top)
	for j > 0 && (t.top[j-1].dist > d || t.top[j-1].dist == d && t.top[j-1].idx > id) {
		j--
	}
	t.top = append(t.top, cand{})
	copy(t.top[j+1:], t.top[j:])
	t.top[j] = cand{d, id}
	return true
}

// ids returns the kept indices, closest first.
func (t *kNearest) ids() []int {
	out := make([]int, len(t.top))
	for i, c := range t.top {
		out[i] = c.idx
	}
	return out
}

// Recall computes Recall@k: the fraction of ground-truth neighbors
// that appear in the retrieved lists, averaged over queries. retrieved
// may contain more than k entries per query; only the first k count.
// k <= 0 counts no neighbors and returns 0.
func Recall(groundTruth, retrieved [][]int, k int) float64 {
	if len(groundTruth) != len(retrieved) {
		panic(fmt.Sprintf("dataset: Recall length mismatch %d != %d", len(groundTruth), len(retrieved)))
	}
	if len(groundTruth) == 0 || k <= 0 {
		return 0
	}
	var total float64
	for q := range groundTruth {
		gt := groundTruth[q]
		if len(gt) > k {
			gt = gt[:k]
		}
		got := retrieved[q]
		if len(got) > k {
			got = got[:k]
		}
		set := make(map[int]struct{}, len(got))
		for _, id := range got {
			set[id] = struct{}{}
		}
		hits := 0
		for _, id := range gt {
			if _, ok := set[id]; ok {
				hits++
			}
		}
		if len(gt) > 0 {
			total += float64(hits) / float64(len(gt))
		}
	}
	return total / float64(len(groundTruth))
}
