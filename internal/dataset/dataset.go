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
	"fmt"
	"math"

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
	// GroundTruthK is the k used when computing GroundTruth.
	GroundTruthK int
	// ClusterOf[i] is the generator topic that produced Vectors[i];
	// used as the metadata tag in filtered-search experiments.
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
	// ClusterStd is the expected norm of the within-cluster noise
	// vector before normalization (per-component std is
	// ClusterStd/sqrt(Dim)); smaller values make the data more
	// clustered, which is what makes IVF effective on text embeddings.
	ClusterStd float64
	// BackgroundFrac is the fraction of points drawn with
	// BackgroundStd noise instead of ClusterStd. Real embedding
	// corpora are not clean mixtures: most members of an IVF cell are
	// only loosely related to its centroid, which is what makes the
	// paper's distance filtering effective inside probed clusters.
	// Defaults to 0.5.
	BackgroundFrac float64
	// BackgroundStd is the noise norm for background points
	// (default 1.2).
	BackgroundStd float64
	Seed          uint64
}

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
	if c.ClusterStd == 0 {
		c.ClusterStd = 0.35
	}
	if c.BackgroundFrac == 0 {
		c.BackgroundFrac = 0.5
	}
	if c.BackgroundFrac < 0 { // explicit "no background" marker
		c.BackgroundFrac = 0
	}
	if c.BackgroundStd == 0 {
		c.BackgroundStd = 1.2
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
		GroundTruthK: cfg.K,
	}

	invSqrtDim := 1 / float32(sqrtf(float64(cfg.Dim)))
	clusterSigma := float32(cfg.ClusterStd) * invSqrtDim
	querySigma := float32(cfg.QueryNoise) * invSqrtDim
	backgroundSigma := float32(cfg.BackgroundStd) * invSqrtDim
	d.ClusterOf = make([]int, cfg.N)
	core := make([]int, 0, cfg.N) // indices of tight (non-background) points
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.Clusters)
		d.ClusterOf[i] = c
		sigma := clusterSigma
		if rng.Float64() < cfg.BackgroundFrac {
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

	d.GroundTruth = make([][]int, len(d.Queries))
	for q, qv := range d.Queries {
		d.GroundTruth[q] = ExactTopK(d.Vectors, qv, cfg.K)
	}
	return d
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
//
// It keeps the k best (distance, index) pairs seen so far and visits
// the vectors in index order, so a vector enters only if it is strictly
// closer than the k-th kept one (an equal distance never displaces a
// lower index), and its distance stops summing as soon as it reaches
// the k-th's (vecmath.L2SquaredBelow).
func ExactTopK(vectors [][]float32, query []float32, k int) []int {
	k = min(k, len(vectors))
	if k <= 0 {
		return []int{}
	}
	type cand struct {
		idx  int
		dist float32
	}
	top := make([]cand, 0, k)
	for i, v := range vectors {
		var d float32
		if len(top) < k {
			d = vecmath.L2Squared(query, v)
		} else {
			var below bool
			if d, below = vecmath.L2SquaredBelow(query, v, top[k-1].dist); !below {
				continue
			}
			top = top[:k-1]
		}
		j := len(top)
		for j > 0 && top[j-1].dist > d {
			j--
		}
		top = append(top, cand{})
		copy(top[j+1:], top[j:])
		top[j] = cand{i, d}
	}
	out := make([]int, k)
	for i, c := range top {
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
