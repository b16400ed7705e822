package ann

import (
	"fmt"

	"reis/internal/vecmath"
)

// PQConfig parameterizes Product Quantization (Jégou et al., TPAMI
// 2011), evaluated in Fig 5 as "PQ IVF".
type PQConfig struct {
	M    int // number of sub-quantizers (must divide dim; default 8)
	KS   int // centroids per sub-quantizer (default 256, one byte/code)
	Seed uint64
	// TrainIters bounds the per-subspace k-means iterations.
	TrainIters int
}

// productQuantizer splits each vector into M sub-vectors and encodes
// each as the ID of its nearest sub-centroid. Distances are computed
// with asymmetric distance computation (ADC) lookup tables.
type productQuantizer struct {
	cfg    PQConfig
	dim    int
	subDim int
	// codebooks[m][c] is centroid c of sub-quantizer m.
	codebooks [][][]float32
	codes     [][]uint8 // codes[i][m] = centroid id of vector i in subspace m
}

// newPQ trains the codebooks and encodes vectors.
func newPQ(vectors [][]float32, cfg PQConfig) *productQuantizer {
	if len(vectors) == 0 {
		panic("ann: newPQ on empty input")
	}
	dim := len(vectors[0])
	if cfg.M <= 0 {
		cfg.M = 8
	}
	if dim%cfg.M != 0 {
		panic(fmt.Sprintf("ann: PQ M=%d does not divide dim=%d", cfg.M, dim))
	}
	if cfg.KS <= 0 {
		cfg.KS = 256
	}
	if cfg.KS > 256 {
		panic("ann: PQ KS > 256 does not fit a byte code")
	}
	if cfg.TrainIters == 0 {
		cfg.TrainIters = 10
	}
	p := &productQuantizer{
		cfg:       cfg,
		dim:       dim,
		subDim:    dim / cfg.M,
		codebooks: make([][][]float32, cfg.M),
		codes:     make([][]uint8, len(vectors)),
	}
	for i := range p.codes {
		p.codes[i] = make([]uint8, cfg.M)
	}
	sub := make([][]float32, len(vectors))
	for m := 0; m < cfg.M; m++ {
		lo, hi := m*p.subDim, (m+1)*p.subDim
		for i, v := range vectors {
			sub[i] = v[lo:hi]
		}
		cents, assign := kmeans(sub, KMeansConfig{
			K: cfg.KS, Seed: cfg.Seed + uint64(m), SampleLimit: 16384,
		}, cfg.TrainIters)
		p.codebooks[m] = cents
		for i, a := range assign {
			p.codes[i][m] = uint8(a)
		}
	}
	return p
}

// adcTable builds the per-subspace distance lookup table for query.
func (p *productQuantizer) adcTable(query []float32) [][]float32 {
	table := make([][]float32, p.cfg.M)
	for m := 0; m < p.cfg.M; m++ {
		lo, hi := m*p.subDim, (m+1)*p.subDim
		q := query[lo:hi]
		row := make([]float32, len(p.codebooks[m]))
		for c, cent := range p.codebooks[m] {
			row[c] = vecmath.L2Squared(q, cent)
		}
		table[m] = row
	}
	return table
}

// Search implements Searcher with an exhaustive ADC scan.
func (p *productQuantizer) Search(query []float32, k int) []Result {
	if len(query) != p.dim {
		panic(fmt.Sprintf("ann: PQ query dim %d != index dim %d", len(query), p.dim))
	}
	table := p.adcTable(query)
	rs := make([]Result, len(p.codes))
	for i, code := range p.codes {
		var d float32
		for m, c := range code {
			d += table[m][c]
		}
		rs[i] = Result{ID: i, dist: d}
	}
	return topK(rs, k)
}

// searchSubset scores only the listed candidate IDs — used to build
// "PQ IVF" (IVF coarse search + PQ fine scan) for Fig 5.
func (p *productQuantizer) searchSubset(query []float32, ids []int, k int) []Result {
	table := p.adcTable(query)
	rs := make([]Result, len(ids))
	for i, id := range ids {
		var d float32
		for m, c := range p.codes[id] {
			d += table[m][c]
		}
		rs[i] = Result{ID: id, dist: d}
	}
	return topK(rs, k)
}

// PQIVF composes an IVF coarse quantizer with PQ fine codes.
type PQIVF struct {
	ivf *IVF
	pq  *productQuantizer
}

// NewPQIVF trains both stages over the same vectors.
func NewPQIVF(vectors [][]float32, ivfCfg IVFConfig, pqCfg PQConfig) *PQIVF {
	ivfCfg.Mode = IVFFloat
	return &PQIVF{ivf: NewIVF(vectors, ivfCfg), pq: newPQ(vectors, pqCfg)}
}

// SearchNProbe runs the coarse IVF search, then PQ-ADC scores the
// probed lists.
func (p *PQIVF) SearchNProbe(query []float32, k, nprobe int) []Result {
	probes := p.ivf.coarseSearch(query, nprobe)
	var ids []int
	for _, c := range probes {
		ids = append(ids, p.ivf.lists[c]...)
	}
	return p.pq.searchSubset(query, ids, k)
}

// Search implements Searcher with nprobe=1.
func (p *PQIVF) Search(query []float32, k int) []Result {
	return p.SearchNProbe(query, k, 1)
}
