package ann

import (
	"fmt"

	"reis/internal/vecmath"
)

// IVFMode selects the precision the fine-grained IVF scan runs in.
type IVFMode int

const (
	// IVFFloat scans full-precision float32 vectors.
	IVFFloat IVFMode = iota
	// IVFBinary scans binary-quantized vectors with Hamming distance
	// and reranks the survivors with INT8 — the configuration REIS
	// executes in storage.
	IVFBinary
)

// IVFConfig parameterizes index construction.
type IVFConfig struct {
	NList int     // number of clusters (FAISS nlist)
	Mode  IVFMode // scan precision
	Seed  uint64
}

// IVF is the Inverted File index (Sec 2.2, Sec 4.2): k-means clusters
// with a coarse centroid search followed by a fine scan of the nprobe
// closest clusters.
type IVF struct {
	mode      IVFMode
	dim       int
	centroids [][]float32
	// lists[c] holds the database IDs assigned to cluster c.
	lists [][]int

	vectors [][]float32 // retained for float mode and reranking
	codes   [][]uint64  // binary mode
	int8s   [][]int8
	params  vecmath.Int8Params
}

// NewIVF trains an IVF index over vectors.
func NewIVF(vectors [][]float32, cfg IVFConfig) *IVF {
	if len(vectors) == 0 {
		panic("ann: NewIVF on empty input")
	}
	if cfg.NList <= 0 {
		// FAISS rule of thumb: ~sqrt(N) to 4*sqrt(N) clusters.
		cfg.NList = max(1, isqrt(len(vectors)))
	}
	centroids, assign := KMeans(vectors, KMeansConfig{K: cfg.NList, Seed: cfg.Seed})
	idx := &IVF{
		mode:      cfg.Mode,
		dim:       len(vectors[0]),
		centroids: centroids,
		lists:     make([][]int, len(centroids)),
		vectors:   vectors,
	}
	for i, c := range assign {
		idx.lists[c] = append(idx.lists[c], i)
	}
	if cfg.Mode == IVFBinary {
		idx.params = vecmath.ComputeInt8Params(vectors)
		idx.codes = make([][]uint64, len(vectors))
		idx.int8s = make([][]int8, len(vectors))
		for i, v := range vectors {
			idx.codes[i] = vecmath.BinaryQuantize(v, nil)
			idx.int8s[i] = idx.params.Int8Quantize(v, nil)
		}
	}
	return idx
}

func isqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}

// Search implements Searcher with the index's default nprobe of 1.
func (idx *IVF) Search(query []float32, k int) []Result {
	return idx.SearchNProbe(query, k, 1)
}

// SearchNProbe performs a coarse search over centroids, then a fine
// scan of the nprobe closest clusters.
func (idx *IVF) SearchNProbe(query []float32, k, nprobe int) []Result {
	if len(query) != idx.dim {
		panic(fmt.Sprintf("ann: IVF query dim %d != index dim %d", len(query), idx.dim))
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(idx.centroids) {
		nprobe = len(idx.centroids)
	}
	probes := idx.coarseSearch(query, nprobe)
	switch idx.mode {
	case IVFFloat:
		return idx.fineFloat(query, probes, k)
	case IVFBinary:
		return idx.fineBinary(query, probes, k)
	default:
		panic(fmt.Sprintf("ann: unknown IVF mode %d", idx.mode))
	}
}

// coarseSearch returns the indices of the nprobe centroids closest to
// query, closest first.
func (idx *IVF) coarseSearch(query []float32, nprobe int) []int {
	rs := make([]Result, len(idx.centroids))
	for c, cent := range idx.centroids {
		rs[c] = Result{ID: c, dist: vecmath.L2Squared(query, cent)}
	}
	top := topK(rs, nprobe)
	out := make([]int, len(top))
	for i, r := range top {
		out[i] = r.ID
	}
	return out
}

func (idx *IVF) fineFloat(query []float32, probes []int, k int) []Result {
	var rs []Result
	for _, c := range probes {
		for _, id := range idx.lists[c] {
			rs = append(rs, Result{ID: id, dist: vecmath.L2Squared(query, idx.vectors[id])})
		}
	}
	return topK(rs, k)
}

func (idx *IVF) fineBinary(query []float32, probes []int, k int) []Result {
	qCode := vecmath.BinaryQuantize(query, nil)
	var rs []Result
	for _, c := range probes {
		for _, id := range idx.lists[c] {
			rs = append(rs, Result{ID: id, dist: float32(vecmath.Hamming(qCode, idx.codes[id]))})
		}
	}
	cut := k * RerankFactor
	if cut > len(rs) {
		cut = len(rs)
	}
	cands := topK(rs, cut)
	q8 := idx.params.Int8Quantize(query, nil)
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.ID, dist: float32(vecmath.L2SquaredInt8(q8, idx.int8s[c.ID]))}
	}
	return topK(out, k)
}
