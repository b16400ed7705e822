package reis

// This file holds the pieces of threshold-propagated top-k pruning
// (SearchOptions.Prune) the controller (controller.go) is built from:
// the scan runs in controller-driven rounds, and after each round the
// controller tightens a per-query distance bound — the pool-th smallest
// live distance seen so far (pool = k × ann.RerankFactor, the rerank-pool
// size) — that the next round's GEN_DIST_PAGE commands carry. Planes
// drop the TTL transfer of any slot whose distance is strictly above
// the bound, and whole segments whose proven lower bound exceeds it are
// aborted before a page is sensed.
//
// Round structure (identical on every topology, which is what makes
// pruned stats topology-equal):
//
//   - Flat: geometrically growing page chunks over the live scan plan —
//     the first round covers planes pages (one wave), each later round
//     doubles the budget. The first round seeds the bound; later rounds
//     scan under it.
//   - IVF: geometrically growing windows (1, 1, 2, 4, ...) over the
//     selected clusters in coarse (dist, pos) rank order. Each cluster
//     ships the triangle-inequality lower bound max(0, d_c - R_c),
//     where d_c is its coarse distance and R_c its binary covering
//     radius (tracked in the mutable ledger), so far clusters abort
//     whole once the bound tightens below d_c - R_c.
//
// Correctness (results bit-identical to the unpruned path): the bound
// used by any command is the pool-th smallest live distance of a subset
// of the final entry stream, so it is >= the pool-th smallest (Dist,
// DADR)-ordered live distance D* of the full stream. Pruning is strict
// (dist > bound), so every entry with dist <= D* — every possible
// rerank-pool member, ties included — survives. quickselectTTL selects
// under the (Dist, DADR) total order, making the pool a pure set
// function of the surviving stream; identical pool, identical rerank,
// identical results. Bounds are only fed live (tombstone-filtered)
// distances: a tombstoned entry's distance could tighten the bound past
// D*, which would prune true pool members. See DESIGN.md, "Threshold
// propagation and pruning".

import "reis/internal/ann"

// boundTracker maintains one query's running top-k pruning threshold: a
// bounded max-heap over the smallest `capacity` live distances seen so
// far. bound() is 0 (= pruning disabled) until the heap fills — before
// pool entries exist, every entry is still a potential pool member. A
// genuinely zero pool-th distance also reports 0: disabling pruning is
// always conservative.
type boundTracker struct {
	capacity int
	heap     []int // max-heap: heap[0] is the pool-th smallest so far
}

func (t *boundTracker) add(d int) {
	if len(t.heap) < t.capacity {
		t.heap = append(t.heap, d)
		// Sift up.
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if t.heap[p] >= t.heap[i] {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		return
	}
	if t.capacity == 0 || d >= t.heap[0] {
		return
	}
	// Replace the max and sift down.
	t.heap[0] = d
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(t.heap) && t.heap[l] > t.heap[m] {
			m = l
		}
		if r < len(t.heap) && t.heap[r] > t.heap[m] {
			m = r
		}
		if m == i {
			return
		}
		t.heap[i], t.heap[m] = t.heap[m], t.heap[i]
		i = m
	}
}

// bound returns the current pruning threshold, or 0 while the tracker
// has seen fewer than capacity live entries.
func (t *boundTracker) bound() int {
	if t.capacity == 0 || len(t.heap) < t.capacity {
		return 0
	}
	return t.heap[0]
}

// feedTracker folds the live distances of a freshly folded entry run
// into the tracker (tomb nil = nothing deleted). The bound it leaves is
// the pool-th smallest distance, whatever order the run came in.
func feedTracker(t *boundTracker, entries []ttlEntry, tomb []uint64) {
	for i := range entries {
		if tomb == nil || !bitsetGet(tomb, int(entries[i].DADR)) {
			t.add(int(entries[i].Dist))
		}
	}
}

// rerankPool is the selection-pool size of one query — the tracker
// capacity threshold pruning pins its bound to. Every search path bounds
// k by maxK (checkK), so the product cannot overflow.
func rerankPool(k int) int { return k * ann.RerankFactor }

// chunkFlatRounds splits a brute-force scan plan into rounds of
// geometrically growing page budgets: planes pages (one full wave)
// first, then 2×, 4×, ... A range is cut at page boundaries only, so
// every produced slotRange still maps to whole plane spans. The round
// boundaries depend only on the global plan, the slot geometry and the
// global plane count — identical on every topology.
func chunkFlatRounds(plan []slotRange, embPerPage, planes int) [][]slotRange {
	var rounds [][]slotRange
	var cur []slotRange
	budget, used := planes, 0
	flush := func() {
		if len(cur) > 0 {
			rounds = append(rounds, cur)
			cur = nil
		}
	}
	for _, r := range plan {
		first := r.First
		for first <= r.Last {
			if used == budget {
				flush()
				used, budget = 0, budget*2
			}
			avail := budget - used
			firstPage, lastPage := first/embPerPage, r.Last/embPerPage
			if pages := lastPage - firstPage + 1; pages <= avail {
				cur = append(cur, slotRange{First: first, Last: r.Last})
				used += pages
				break
			}
			cut := (firstPage+avail)*embPerPage - 1
			cur = append(cur, slotRange{First: first, Last: cut})
			used += avail
			first = cut + 1
		}
	}
	flush()
	return rounds
}

// probeWindow returns the half-open cluster-rank window of IVF pruning
// round r: sizes 1, 1, 2, 4, 8, ... — the first cluster alone seeds
// the bound before wider windows scan under it.
func probeWindow(r int) (start, size int) {
	if r == 0 {
		return 0, 1
	}
	return 1 << (r - 1), 1 << (r - 1)
}

// prunedCluster is one selected cluster of a pruned IVF query: its
// cluster index and its proven distance lower bound.
type prunedCluster struct {
	cluster int
	lb      int
}

// clusterLB is the triangle-inequality lower bound of a cluster's best
// possible Hamming distance to the query: coarse distance minus the
// cluster's binary covering radius, floored at 0.
func clusterLB(coarseDist, radius int) int {
	if lb := coarseDist - radius; lb > 0 {
		return lb
	}
	return 0
}
