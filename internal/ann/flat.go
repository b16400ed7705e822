package ann

import (
	"fmt"

	"reis/internal/vecmath"
)

// Searcher is the interface every index in this package implements.
type Searcher interface {
	// Search returns the approximate k nearest neighbors of query,
	// sorted ascending by distance.
	Search(query []float32, k int) []Result
}

// Flat is the exhaustive (brute-force) float32 index — the paper's
// "BF" configuration and the reference every ANNS algorithm is
// normalized against.
type Flat struct {
	vectors [][]float32
	dim     int
}

// NewFlat builds a flat index over vectors. The slice is retained,
// not copied.
func NewFlat(vectors [][]float32) *Flat {
	if len(vectors) == 0 {
		panic("ann: NewFlat on empty input")
	}
	return &Flat{vectors: vectors, dim: len(vectors[0])}
}

// Search implements Searcher with exact L2 distances.
func (f *Flat) Search(query []float32, k int) []Result {
	if len(query) != f.dim {
		panic(fmt.Sprintf("ann: Flat query dim %d != index dim %d", len(query), f.dim))
	}
	rs := make([]Result, len(f.vectors))
	for i, v := range f.vectors {
		rs[i] = Result{ID: i, dist: vecmath.L2Squared(query, v)}
	}
	return topK(rs, k)
}

// BinaryFlat is an exhaustive index over binary-quantized embeddings
// with optional INT8 reranking — the "CPU + BQ" configuration of
// Fig 3 / Table 4 and the computation REIS performs in-storage.
type BinaryFlat struct {
	dim    int
	codes  [][]uint64
	int8s  [][]int8
	params vecmath.Int8Params
	// factor is the multiple of k fetched from the binary stage before
	// INT8 rescoring (RerankFactor; tests narrow it).
	factor int
}

// RerankFactor is the multiple of k a binary scan keeps for INT8
// rescoring. The paper selects the 10k closest binary candidates before
// reranking (Sec 4.3.2 step 6), i.e. a factor of 10. The REIS engine's
// rerank pool (internal/reis) uses the same constant.
const RerankFactor = 10

// NewBinaryFlat quantizes vectors to binary codes and INT8 rerank
// copies.
func NewBinaryFlat(vectors [][]float32) *BinaryFlat {
	if len(vectors) == 0 {
		panic("ann: NewBinaryFlat on empty input")
	}
	b := &BinaryFlat{
		dim:    len(vectors[0]),
		codes:  make([][]uint64, len(vectors)),
		int8s:  make([][]int8, len(vectors)),
		params: vecmath.ComputeInt8Params(vectors),
		factor: RerankFactor,
	}
	for i, v := range vectors {
		b.codes[i] = vecmath.BinaryQuantize(v, nil)
		b.int8s[i] = b.params.Int8Quantize(v, nil)
	}
	return b
}

// Search implements Searcher: Hamming scan then INT8 rerank.
func (b *BinaryFlat) Search(query []float32, k int) []Result {
	if len(query) != b.dim {
		panic(fmt.Sprintf("ann: BinaryFlat query dim %d != index dim %d", len(query), b.dim))
	}
	qCode := vecmath.BinaryQuantize(query, nil)
	rs := make([]Result, len(b.codes))
	for i, c := range b.codes {
		rs[i] = Result{ID: i, dist: float32(vecmath.Hamming(qCode, c))}
	}
	cut := k * b.factor
	if cut > len(rs) {
		cut = len(rs)
	}
	cands := topK(rs, cut)
	return b.rerank(query, cands, k)
}

// rerank rescores candidates with INT8 L2 distance, the second-stage
// kernel the SSD embedded core executes (Sec 4.3.2 step 7-8).
func (b *BinaryFlat) rerank(query []float32, cands []Result, k int) []Result {
	q8 := b.params.Int8Quantize(query, nil)
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.ID, dist: float32(vecmath.L2SquaredInt8(q8, b.int8s[c.ID]))}
	}
	return topK(out, k)
}
