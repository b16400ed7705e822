package ann

import (
	"fmt"
	"math"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// HNSWConfig parameterizes graph construction (Malkov & Yashunin,
// TPAMI 2018). The paper's Fig 5 uses M=128; smaller values are used
// in tests.
type HNSWConfig struct {
	M              int // max neighbors per node per layer (default 16)
	EfConstruction int // candidate pool during build (default max(100, 2*M))
	Seed           uint64
	// Binary enables BQ distance for graph traversal with INT8
	// reranking (the "BQ HNSW" series of Fig 5).
	Binary bool
}

// HNSW is a Hierarchical Navigable Small World graph index — the
// graph-based algorithm whose irregular access pattern makes it a poor
// fit for in-storage execution (Sec 4.2), included as the strongest
// host-side baseline.
type HNSW struct {
	cfg HNSWConfig
	// efSearch is the candidate pool during search (SetEfSearch;
	// default 2*M).
	efSearch int
	dim      int
	vectors  [][]float32
	codes    [][]uint64
	int8s    [][]int8
	params   vecmath.Int8Params

	// neighbors[layer][node] lists the node's out-edges on the layer.
	neighbors [][][]int32
	levels    []int
	entry     int
	maxLevel  int
	levelMult float64
	rng       *xrand.RNG

	// HopCount accumulates graph hops across searches; the NDSearch
	// comparison model reads it to derive access-pattern statistics.
	HopCount int64
}

// NewHNSW builds the graph by inserting vectors one at a time.
func NewHNSW(vectors [][]float32, cfg HNSWConfig) *HNSW {
	if len(vectors) == 0 {
		panic("ann: NewHNSW on empty input")
	}
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction <= 0 {
		// Construction quality dominates achievable recall; FAISS and
		// hnswlib default to 100-200 regardless of M.
		cfg.EfConstruction = max(100, 2*cfg.M)
	}
	h := &HNSW{
		cfg:       cfg,
		efSearch:  2 * cfg.M,
		dim:       len(vectors[0]),
		vectors:   vectors,
		levels:    make([]int, len(vectors)),
		entry:     -1,
		maxLevel:  -1,
		levelMult: 1 / math.Log(float64(cfg.M)),
		rng:       xrand.New(cfg.Seed + 0x15),
	}
	if cfg.Binary {
		h.params = vecmath.ComputeInt8Params(vectors)
		h.codes = make([][]uint64, len(vectors))
		h.int8s = make([][]int8, len(vectors))
		for i, v := range vectors {
			h.codes[i] = vecmath.BinaryQuantize(v, nil)
			h.int8s[i] = h.params.Int8Quantize(v, nil)
		}
	}
	for i := range vectors {
		h.insert(i)
	}
	return h
}

// dist is the traversal distance: L2 in float mode, Hamming in binary
// mode (graph structure is built under the same metric used to search).
func (h *HNSW) dist(query []float32, qCode []uint64, id int) float32 {
	if h.cfg.Binary {
		return float32(vecmath.Hamming(qCode, h.codes[id]))
	}
	return vecmath.L2Squared(query, h.vectors[id])
}

func (h *HNSW) distNodes(a, b int) float32 {
	if h.cfg.Binary {
		return float32(vecmath.Hamming(h.codes[a], h.codes[b]))
	}
	return vecmath.L2Squared(h.vectors[a], h.vectors[b])
}

// nodesCloser reports whether distNodes(a, b) < bound; in float mode
// the distance stops summing once it cannot be below bound.
func (h *HNSW) nodesCloser(a, b int, bound float32) bool {
	if h.cfg.Binary {
		return h.distNodes(a, b) < bound
	}
	_, below := vecmath.L2SquaredBelow(h.vectors[a], h.vectors[b], bound)
	return below
}

func (h *HNSW) randomLevel() int {
	return int(-math.Log(1-h.rng.Float64()) * h.levelMult)
}

func (h *HNSW) insert(id int) {
	level := h.randomLevel()
	h.levels[id] = level
	for len(h.neighbors) <= level {
		h.neighbors = append(h.neighbors, make([][]int32, len(h.vectors)))
	}
	if h.entry < 0 {
		h.entry = id
		h.maxLevel = level
		return
	}

	var qCode []uint64
	if h.cfg.Binary {
		qCode = h.codes[id]
	}
	query := h.vectors[id]

	cur := h.entry
	// Greedy descent through layers above the insertion level.
	for l := h.maxLevel; l > level; l-- {
		cur = h.greedyClosest(query, qCode, cur, l)
	}
	// Insert with beam search on each layer at or below level.
	for l := min(level, h.maxLevel); l >= 0; l-- {
		cands := h.searchLayer(query, qCode, cur, h.cfg.EfConstruction, l)
		m := h.cfg.M
		if l == 0 {
			m = 2 * h.cfg.M // standard HNSW uses M0 = 2M on layer 0
		}
		selected := h.selectNeighbors(cands, m)
		for _, n := range selected {
			h.neighbors[l][id] = append(h.neighbors[l][id], int32(n.ID))
			h.neighbors[l][n.ID] = append(h.neighbors[l][n.ID], int32(id))
			if len(h.neighbors[l][n.ID]) > m {
				h.pruneNeighbors(l, n.ID, m)
			}
		}
		if len(cands) > 0 {
			cur = cands[0].ID
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = id
	}
}

func (h *HNSW) greedyClosest(query []float32, qCode []uint64, start, layer int) int {
	cur := start
	curDist := h.dist(query, qCode, cur)
	for {
		improved := false
		for _, n := range h.neighbors[layer][cur] {
			h.HopCount++
			if d := h.dist(query, qCode, int(n)); d < curDist {
				cur, curDist = int(n), d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the beam search primitive (Algorithm 2 of the HNSW
// paper), returning up to ef candidates sorted ascending.
func (h *HNSW) searchLayer(query []float32, qCode []uint64, start, ef, layer int) []Result {
	visited := map[int]struct{}{start: {}}
	best := newBoundedList(ef)
	startDist := h.dist(query, qCode, start)
	best.push(Result{ID: start, dist: startDist})
	// frontier: min-heap approximated with a sorted slice; sizes are
	// small (<= ef) so linear insertion is fine.
	frontier := []Result{{ID: start, dist: startDist}}
	for len(frontier) > 0 {
		// Pop closest.
		c := frontier[0]
		frontier = frontier[1:]
		if w, ok := best.worst(); ok && c.dist > w.dist {
			break
		}
		for _, nb := range h.neighbors[layer][c.ID] {
			n := int(nb)
			if _, seen := visited[n]; seen {
				continue
			}
			visited[n] = struct{}{}
			h.HopCount++
			d := h.dist(query, qCode, n)
			if w, ok := best.worst(); !ok || d < w.dist {
				best.push(Result{ID: n, dist: d})
				frontier = insertSorted(frontier, Result{ID: n, dist: d})
			}
		}
	}
	return best.results()
}

func insertSorted(rs []Result, r Result) []Result {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].dist < r.dist {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rs = append(rs, Result{})
	copy(rs[lo+1:], rs[lo:])
	rs[lo] = r
	return rs
}

// selectNeighbors applies the diversification heuristic of Algorithm 4
// in the HNSW paper: a candidate is kept only if it is closer to the
// query node than to every already-selected neighbor, which spreads
// edges across clusters and substantially improves recall on clustered
// data.
func (h *HNSW) selectNeighbors(cands []Result, m int) []Result {
	if len(cands) <= m {
		return cands
	}
	selected := make([]Result, 0, m)
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		keep := true
		for _, s := range selected {
			if h.nodesCloser(c.ID, s.ID, c.dist) {
				keep = false
				break
			}
		}
		if keep {
			selected = append(selected, c)
		}
	}
	// Backfill with the closest remaining candidates if the heuristic
	// was too aggressive.
	if len(selected) < m {
		have := make(map[int]struct{}, len(selected))
		for _, s := range selected {
			have[s.ID] = struct{}{}
		}
		for _, c := range cands {
			if len(selected) >= m {
				break
			}
			if _, ok := have[c.ID]; !ok {
				selected = append(selected, c)
			}
		}
	}
	return selected
}

func (h *HNSW) pruneNeighbors(layer, id, m int) {
	ns := h.neighbors[layer][id]
	rs := make([]Result, len(ns))
	for i, n := range ns {
		rs[i] = Result{ID: int(n), dist: h.distNodes(id, int(n))}
	}
	top := topK(rs, m)
	pruned := make([]int32, len(top))
	for i, r := range top {
		pruned[i] = int32(r.ID)
	}
	h.neighbors[layer][id] = pruned
}

// SetEfSearch adjusts the search-time candidate pool (recall knob).
func (h *HNSW) SetEfSearch(ef int) {
	if ef > 0 {
		h.efSearch = ef
	}
}

// Search implements Searcher.
func (h *HNSW) Search(query []float32, k int) []Result {
	if len(query) != h.dim {
		panic(fmt.Sprintf("ann: HNSW query dim %d != index dim %d", len(query), h.dim))
	}
	var qCode []uint64
	if h.cfg.Binary {
		qCode = vecmath.BinaryQuantize(query, nil)
	}
	cur := h.entry
	for l := h.maxLevel; l > 0; l-- {
		cur = h.greedyClosest(query, qCode, cur, l)
	}
	ef := h.efSearch
	if ef < k {
		ef = k
	}
	cands := h.searchLayer(query, qCode, cur, ef, 0)
	if h.cfg.Binary {
		// INT8 rerank, mirroring the BQ+rescore recipe.
		q8 := h.params.Int8Quantize(query, nil)
		for i := range cands {
			cands[i].dist = float32(vecmath.L2SquaredInt8(q8, h.int8s[cands[i].ID]))
		}
	}
	return topK(cands, k)
}
