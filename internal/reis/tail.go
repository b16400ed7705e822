package reis

import (
	"slices"
	"sync"
	"sync/atomic"

	"reis/internal/ann"
	"reis/internal/vecmath"
)

// This file is the controller-side pipeline tail (steps 5-9 of
// Fig 6): quickselect to the rerank pool, INT8 rescoring, quicksort,
// and document retrieval. The tail runs on the host core over a query's
// folded entry stream, fetching the records it wants of each page from
// the device that owns it (readTailSlots, host.go), so results are
// bit-identical across device counts by construction.

// tailScratch holds the tail's pooled working sets. Exactly one
// goroutine owns a tailScratch at a time (the host core's execution
// lock holder); the results handed back to the caller are carved from
// the command's output blocks (outBlocks), never from scratch, and
// their documents are views of flash.
type tailScratch struct {
	q8         []int8
	reranked   []rankedCand
	groups     []pageIdx
	planePages []int
	// One page's read: the slots wanted of it, the views of their
	// records (flash.Device.ReadSlots), and, for the rerank, the INT8
	// record the page's stored bytes end inside.
	slots []int
	views [][]byte
	recs  []byte
	// docSpill holds the documents the page's stored bytes end inside,
	// which the caller keeps: a read only appends to it, and a block of
	// 16 documents replaces it when it has no room for one more.
	docSpill []byte
}

// rankedCand is one reranked candidate: its result and the slot of its
// INT8 copy, which locates its document (mutState.docSlot).
type rankedCand struct {
	DocResult
	radr uint32
}

func cmpRankedCand(a, b rankedCand) int { return cmpDocResult(a.DocResult, b.DocResult) }

// tail executes the controller tail over a query's folded entry stream,
// which it reads as a set: selection runs under the (Dist, DADR) total
// order, both groupings read each page once whatever its slots' order,
// and the reranked pool sorts by (Dist, ID).
// Working sets live in the tail scratch; the returned results and their
// document bytes are windows of the run's output blocks (dst). Tombstoned
// entries are dropped from the stream before selection, so deleted
// documents never surface;
// the scan side stays tombstone-oblivious (dies have no DRAM for the
// bitmap), which keeps scan-phase stats equal across topologies. Rerank
// waves are counted per *global* plane (page mod total planes) — exactly
// the plane the page occupies on the single-device reference — so wave
// accounting matches bit for bit on every topology.
func (c *hostCore) tail(db *rdbEntry, query []float32, entries []ttlEntry, k int, opt SearchOptions, st *QueryStats, dst *outBlocks) ([]DocResult, error) {
	ts, f, planes := &c.scr.tail, &db.lay.pageFormat, c.cfg.Geo.Planes()
	if db.mut.deadCount > 0 {
		entries = filterTombstoned(entries, db.mut.tomb)
	}
	st.SelectInput += len(entries)
	// min(k × ann.RerankFactor, len(entries)): the product is formed
	// only when it fits the stream, so no k can overflow it.
	pool := len(entries)
	if k <= pool/ann.RerankFactor {
		pool = rerankPool(k)
	}
	quickselectTTL(entries, pool)
	cands := entries[:pool]

	// Rerank: fetch INT8 embeddings by RADR, grouped by page so each
	// page is sensed once. Grouping sorts a pooled (page, index) slice
	// instead of building a map: iteration order becomes deterministic
	// and the grouping is allocation-free.
	q8 := f.params.Int8Quantize(query, ts.q8)
	ts.q8 = q8
	groups := ts.groups[:0]
	for i, c := range cands {
		groups = append(groups, pageIdx{page: int(c.RADR) / f.int8PerPage, slot: int(c.RADR) % f.int8PerPage, idx: i})
	}
	slices.SortFunc(groups, cmpPageIdx)
	ts.groups = groups

	planePages := resizeInts(ts.planePages, planes)
	ts.planePages = planePages
	reranked := ts.reranked[:0]
	for gi := 0; gi < len(groups); {
		page := groups[gi].page
		ts.recs = ts.recs[:0]
		recs, err := c.readTailSlots(db, int8Region, groups, gi, f.int8Bytes, &ts.recs)
		if err != nil {
			return nil, err
		}
		st.RerankPages++
		planePages[page%planes]++
		for _, rec := range recs {
			c := cands[groups[gi].idx]
			d := vecmath.L2SquaredInt8Bytes(q8, rec)
			reranked = append(reranked, rankedCand{DocResult{ID: int(c.DADR), Dist: float32(d)}, c.RADR})
			gi++
		}
	}
	ts.reranked = reranked
	for _, n := range planePages {
		if n > st.RerankWaves {
			st.RerankWaves = n
		}
	}
	st.RerankCount += len(cands)

	// Quicksort the reranked pool, keep top-k in a caller-owned window
	// (the rerank scratch recycles across queries).
	slices.SortFunc(reranked, cmpRankedCand)
	st.SortedEntries += len(reranked)
	n := len(reranked)
	if k < n {
		n = k
	}
	out := window(&dst.res, n, dst.waiting)
	for i := range out {
		out[i] = reranked[i].DocResult
	}

	if opt.SkipDocs {
		return out, nil
	}

	// Document identification and retrieval (step 9): locate each
	// result's document from its RADR — documents sit in the slots their
	// INT8 copies do, so a query's documents share pages as its copies
	// do — and group them by page with the same sorted pooled grouping.
	// Every result's document is the read's view of its page: nothing is
	// copied, and the view outlives the response.
	groups = groups[:0]
	for i := range out {
		d := db.mut.docSlot(reranked[i].radr)
		groups = append(groups, pageIdx{page: d / f.docsPerPage, slot: d % f.docsPerPage, idx: i})
	}
	slices.SortFunc(groups, cmpPageIdx)
	ts.groups = groups
	for gi := 0; gi < len(groups); {
		if cap(ts.docSpill)-len(ts.docSpill) < f.docBytes {
			ts.docSpill = make([]byte, 0, 16*f.docBytes)
		}
		docs, err := c.readTailSlots(db, docRegion, groups, gi, f.docBytes, &ts.docSpill)
		if err != nil {
			return nil, err
		}
		st.DocPages++
		for _, doc := range docs {
			out[groups[gi].idx].Doc = doc
			st.DocBytes += int64(f.docBytes)
			gi++
		}
	}
	return out, nil
}

// outBlocks is a search command's output: the results header, the
// QueryStats, the [device][query] PerShard rows and their block (nil
// unless the host reports them), a coalesced group's per-member PerShard
// headers, and the block every query's results are a window of. (The
// documents are no block's: each is a read-only view of flash.) The
// results block is replaced when a query's share does not fit what is
// left of it, by one sized for what the command took of the old block
// plus that share times the queries still waiting for their tail or
// their hit's copy (waiting, this one included) — so a command whose
// queries return equally many results fills one block, whatever its
// query count and its mix of hits and misses, and a recycled block too
// short for its command grows to the command's shape at once. Every
// window is capacity-bounded: appending to one query's results
// reallocates instead of writing over a neighbour's.
//
// The blocks of a command's record (outRecord) are handed back by
// HostResponse.Release and reused, in place, by a later command: reset
// overwrites every header and zeroes every QueryStats, and every window
// a command hands out is written whole, so nothing of the earlier
// command shows through.
type outBlocks struct {
	results [][]DocResult
	sts     []QueryStats
	rows    [][]QueryStats
	rowBlk  []QueryStats
	hdrs    [][]QueryStats
	res     []DocResult
	waiting int
}

// outRecord is the pooled holder of one command's outBlocks. A search
// dispatch takes one from outPool and its responses point to it
// (HostResponse.out); refs counts the responses that have not been
// released — a coalesced group's members share the record — and the last
// Release puts it back. A response nobody releases leaves its record to
// the garbage collector.
type outRecord struct {
	outBlocks
	refs atomic.Int32
}

// outPool holds released records. It has no New: a dispatch that finds
// it empty runs into fresh blocks with no record, exactly as a command
// whose caller never releases always did, and the Release of such a
// response puts an empty record in for a later dispatch to fill (see
// HostResponse.Release). So callers that never release allocate what
// they always did, and callers that do allocate nothing once the pool
// holds a record per command in flight. A dispatch consults the pool
// only once some response has been released (outPoolUsed): until then it
// is empty, and a Get on a sync.Pool allocates its per-P array again
// after every garbage collection.
var (
	outPool     sync.Pool
	outPoolUsed atomic.Bool
)

// reset sizes the blocks for a command of nq queries on devs devices,
// keeping their capacity: every header and every stats row is zeroed,
// and the results block is emptied. PerShard rows are
// carved, one capacity-bounded window of rowBlk per device, only when
// perShard is set; otherwise rows is nil (an Engine's responses carry
// none).
func (o *outBlocks) reset(nq, devs int, perShard bool) {
	o.results = reuse(o.results, nq)
	o.sts = reuse(o.sts, nq)
	if !perShard {
		o.rows = nil
	} else {
		o.rows = reuse(o.rows, devs)
		o.rowBlk = reuse(o.rowBlk, devs*nq)
		for s := range o.rows {
			o.rows[s] = o.rowBlk[s*nq : (s+1)*nq : (s+1)*nq]
		}
	}
	o.res = o.res[:0]
}

// reuse returns s resized to n zeroed elements, in its own array when
// that is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// window returns the next n free elements of *blk as a len-n, cap-n
// slice, first replacing the block by one of len(*blk)+n·waiting
// elements when fewer than n are free.
func window[T any](blk *[]T, n, waiting int) []T {
	b := *blk
	if b == nil || cap(b)-len(b) < n {
		b = make([]T, 0, len(b)+n*waiting)
	}
	*blk = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// serve copies a result-cache hit's records into a window of the
// results block — the shape tail builds. Their documents are shared:
// views of flash, which nobody writes.
func (o *outBlocks) serve(res []DocResult) []DocResult {
	out := window(&o.res, len(res), o.waiting)
	copy(out, res)
	return out
}

// filterTombstoned compacts the entry stream in place, keeping only
// entries whose DADR is not tombstoned.
func filterTombstoned(es []ttlEntry, tomb []uint64) []ttlEntry {
	out := es[:0]
	for _, e := range es {
		if !bitsetGet(tomb, int(e.DADR)) {
			out = append(out, e)
		}
	}
	return out
}
