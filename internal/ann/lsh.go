package ann

import (
	"fmt"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// LSHConfig parameterizes random-hyperplane Locality-Sensitive Hashing
// (the hash-based family of Sec 4.2, shown in Fig 5 to underperform
// IVF and HNSW at high recall).
type LSHConfig struct {
	Tables int // number of independent hash tables (default 8)
	Bits   int // hash bits per table (default 16)
	Seed   uint64
}

// LSH is a multi-probe, multi-table random-hyperplane index: a search
// inspects, in every table, the query's bucket and the buckets within
// Hamming radius 1 of it, and rescores the candidates from all of them
// with exact L2.
type LSH struct {
	cfg     LSHConfig
	dim     int
	vectors [][]float32
	// planes[t][b] is the normal of hyperplane b in table t.
	planes [][][]float32
	tables []map[uint32][]int32
}

// NewLSH builds the hash tables.
func NewLSH(vectors [][]float32, cfg LSHConfig) *LSH {
	if len(vectors) == 0 {
		panic("ann: NewLSH on empty input")
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 8
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 16
	}
	if cfg.Bits > 30 {
		panic(fmt.Sprintf("ann: LSH bits %d too large", cfg.Bits))
	}
	rng := xrand.New(cfg.Seed + 0x714)
	l := &LSH{
		cfg:     cfg,
		dim:     len(vectors[0]),
		vectors: vectors,
		planes:  make([][][]float32, cfg.Tables),
		tables:  make([]map[uint32][]int32, cfg.Tables),
	}
	for t := 0; t < cfg.Tables; t++ {
		l.planes[t] = make([][]float32, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			p := make([]float32, l.dim)
			for j := range p {
				p[j] = float32(rng.NormFloat64())
			}
			l.planes[t][b] = p
		}
		l.tables[t] = make(map[uint32][]int32)
		for i, v := range vectors {
			h := l.hash(t, v)
			l.tables[t][h] = append(l.tables[t][h], int32(i))
		}
	}
	return l
}

func (l *LSH) hash(table int, v []float32) uint32 {
	var h uint32
	for b, plane := range l.planes[table] {
		if vecmath.Dot(v, plane) > 0 {
			h |= 1 << uint(b)
		}
	}
	return h
}

// Search implements Searcher: collect the candidates of every probed
// bucket, then rescore exactly.
func (l *LSH) Search(query []float32, k int) []Result {
	if len(query) != l.dim {
		panic(fmt.Sprintf("ann: LSH query dim %d != index dim %d", len(query), l.dim))
	}
	seen := l.candidates(query)
	rs := make([]Result, 0, len(seen))
	for id := range seen {
		rs = append(rs, Result{ID: int(id), dist: vecmath.L2Squared(query, l.vectors[id])})
	}
	return topK(rs, k)
}

// candidates returns the distinct ids of the buckets a search for query
// probes: in every table, the query's bucket and the Bits buckets one
// bit flip away from it.
func (l *LSH) candidates(query []float32) map[int32]struct{} {
	seen := make(map[int32]struct{})
	for t := 0; t < l.cfg.Tables; t++ {
		h := l.hash(t, query)
		l.collect(t, h, seen)
		for b := 0; b < l.cfg.Bits; b++ {
			l.collect(t, h^(1<<uint(b)), seen)
		}
	}
	return seen
}

func (l *LSH) collect(table int, h uint32, seen map[int32]struct{}) {
	for _, id := range l.tables[table][h] {
		seen[id] = struct{}{}
	}
}

// CandidateCount reports how many distinct candidates a search for
// query rescores; the Fig 5 discussion uses this to show LSH's poor
// work-recall tradeoff.
func (l *LSH) CandidateCount(query []float32) int {
	return len(l.candidates(query))
}
