// Package ann implements the host-side Approximate Nearest Neighbor
// Search algorithms the REIS paper evaluates and compares against:
// exhaustive (flat) search, the Inverted File algorithm (IVF) that REIS
// adopts, Hierarchical Navigable Small World graphs (HNSW),
// Locality-Sensitive Hashing (LSH), and Product Quantization (PQ), each
// optionally combined with Binary Quantization and INT8 reranking.
//
// The selection kernel is quickselect (Hoare's FIND), the same kernel
// the paper runs on the SSD's embedded cores (Sec 4.3.1).
//
// Beyond results, the indexes expose the per-query work their search
// actually did — HNSW.HopCount accumulates neighbor evaluations,
// LSH.CandidateCount sizes the rescored union — which the frontier
// experiment (internal/experiments) feeds to the DRAM-side cost
// models of internal/rivals to price each operating point at paper
// scale.
package ann

import "sort"

// Result is a single search hit. dist is the distance in whatever
// metric the producing index uses (lower is better).
type Result struct {
	ID   int
	dist float32
}

// quickselect partially sorts rs so that the k smallest results under
// the (dist, ID) total order occupy rs[:k] (in arbitrary order within
// the prefix), using Hoare's FIND with median-of-three pivoting. It
// runs in O(n) expected time and is the selection kernel modeled for
// the SSD embedded cores. Selecting under the total order — not
// distance alone — makes membership at the k-boundary deterministic
// among equal distances, which scatter-gather reductions depend on
// (FuzzTopKMerge: a partitioned stream's merged top-k must equal the
// unpartitioned top-k exactly).
// If k >= len(rs) the slice is left as is.
func quickselect(rs []Result, k int) {
	if k <= 0 || k >= len(rs) {
		return
	}
	lo, hi := 0, len(rs)-1
	for lo < hi {
		// Hoare partition: rs[lo..p] <= pivot <= rs[p+1..hi]. The pivot
		// is not placed at a final position, so recurse on whichever
		// side straddles index k-1 (inclusive on the left half).
		p := partition(rs, lo, hi)
		if p < k-1 {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

func partition(rs []Result, lo, hi int) int {
	// Median-of-three pivot to avoid quadratic behaviour on sorted
	// input.
	mid := lo + (hi-lo)/2
	if lessResult(rs[mid], rs[lo]) {
		rs[mid], rs[lo] = rs[lo], rs[mid]
	}
	if lessResult(rs[hi], rs[lo]) {
		rs[hi], rs[lo] = rs[lo], rs[hi]
	}
	if lessResult(rs[hi], rs[mid]) {
		rs[hi], rs[mid] = rs[mid], rs[hi]
	}
	pivot := rs[mid]
	i, j := lo, hi
	for {
		for lessResult(rs[i], pivot) {
			i++
		}
		for lessResult(pivot, rs[j]) {
			j--
		}
		if i >= j {
			return j
		}
		rs[i], rs[j] = rs[j], rs[i]
		i++
		j--
	}
}

// topK returns the k smallest-distance results sorted ascending by
// distance (ties broken by ID for determinism). rs is modified.
func topK(rs []Result, k int) []Result {
	if k > len(rs) {
		k = len(rs)
	}
	quickselect(rs, k)
	out := rs[:k]
	sortResults(out)
	return out
}

// lessResult is the (dist, ID) total order shared by quickselect and
// sortResults.
func lessResult(a, b Result) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.ID < b.ID
}

// sortResults sorts ascending by distance, breaking ties by ID. This
// is the quicksort step the paper runs after the final selection
// (Sec 4.3.1).
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return lessResult(rs[i], rs[j]) })
}

// boundedList maintains the k best (smallest-distance) results seen so
// far using a binary max-heap, for streaming candidate generation.
// The zero value is not usable; construct with newBoundedList.
type boundedList struct {
	k    int
	heap []Result // max-heap by dist
}

// newBoundedList returns a list that retains the k best results.
func newBoundedList(k int) *boundedList {
	if k <= 0 {
		panic("ann: newBoundedList k must be positive")
	}
	return &boundedList{k: k, heap: make([]Result, 0, k)}
}

// push offers a candidate.
func (b *boundedList) push(r Result) {
	if len(b.heap) < b.k {
		b.heap = append(b.heap, r)
		b.up(len(b.heap) - 1)
		return
	}
	if r.dist >= b.heap[0].dist {
		return
	}
	b.heap[0] = r
	b.down(0)
}

// worst returns the current k-th best distance, or +inf semantics via
// ok=false when fewer than k results are held.
func (b *boundedList) worst() (Result, bool) {
	if len(b.heap) < b.k {
		return Result{}, false
	}
	return b.heap[0], true
}

// results returns the retained results sorted ascending by distance.
func (b *boundedList) results() []Result {
	out := make([]Result, len(b.heap))
	copy(out, b.heap)
	sortResults(out)
	return out
}

func (b *boundedList) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.heap[parent].dist >= b.heap[i].dist {
			return
		}
		b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
		i = parent
	}
}

func (b *boundedList) down(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && b.heap[l].dist > b.heap[largest].dist {
			largest = l
		}
		if r < n && b.heap[r].dist > b.heap[largest].dist {
			largest = r
		}
		if largest == i {
			return
		}
		b.heap[i], b.heap[largest] = b.heap[largest], b.heap[i]
		i = largest
	}
}
