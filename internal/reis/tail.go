package reis

import (
	"slices"

	"reis/internal/vecmath"
)

// This file is the controller-side pipeline tail (steps 5-9 of
// Fig 6): quickselect to the rerank pool, INT8 rescoring, quicksort,
// and document retrieval. The tail runs on the host core over a query's
// merged entry stream, fetching each page from the device that owns it
// (tailSource, host.go), so results are bit-identical across device
// counts by construction.

// tailScratch holds the tail's pooled working sets. Exactly one
// goroutine owns a tailScratch at a time (the host core's execution
// lock holder); everything handed back to the caller is freshly
// allocated.
type tailScratch struct {
	q8         []int8
	emb        []int8
	reranked   []DocResult
	groups     []pageIdx
	planePages []int
	pageBuf    []byte
	oobBuf     []byte
}

// tailParams are the layout constants the tail needs; identical
// between a single device and the shards built from the same plan.
// planes is the *global* plane count — on a sharded host the union of
// the member devices' planes — so wave accounting matches a single
// device bit for bit.
type tailParams struct {
	int8Bytes   int
	int8PerPage int
	docsPerPage int
	docBytes    int
	planes      int
	params      vecmath.Int8Params
	// dead is the database's tombstone bitmap (indexed by DADR), or
	// nil when nothing is deleted. The tail drops tombstoned entries
	// from the merged stream before selection, so deleted documents
	// never surface; the scan side stays tombstone-oblivious (dies
	// have no DRAM for the bitmap), which keeps scan-phase stats
	// equal across topologies.
	dead []uint64
}

// runTail executes the controller tail over a merged entry stream.
// Working sets live in ts; only the returned results (and their
// document bytes) are allocated.
func runTail(src *tailSource, ts *tailScratch, tp tailParams, query []float32, entries []TTLEntry, k int, opt SearchOptions, st *QueryStats) ([]DocResult, error) {
	if tp.dead != nil {
		entries = filterTombstoned(entries, tp.dead)
	}
	st.SelectInput += len(entries)
	pool := k * RerankFactor
	if pool > len(entries) {
		pool = len(entries)
	}
	quickselectTTL(entries, pool)
	cands := entries[:pool]

	// Rerank: fetch INT8 embeddings by RADR, grouped by page so each
	// page is sensed once. Grouping sorts a pooled (page, index) slice
	// instead of building a map: iteration order becomes deterministic
	// and the grouping is allocation-free.
	q8 := tp.params.Int8Quantize(query, ts.q8)
	ts.q8 = q8
	groups := ts.groups[:0]
	for i, c := range cands {
		groups = append(groups, pageIdx{page: int(c.RADR) / tp.int8PerPage, idx: i})
	}
	slices.SortFunc(groups, cmpPageIdx)
	ts.groups = groups

	planePages := resizeInts(ts.planePages, tp.planes)
	ts.planePages = planePages
	reranked := ts.reranked[:0]
	for gi := 0; gi < len(groups); {
		page := groups[gi].page
		data, plane, err := src.readRerankPage(ts, page)
		if err != nil {
			return nil, err
		}
		st.RerankPages++
		planePages[plane]++
		for ; gi < len(groups) && groups[gi].page == page; gi++ {
			c := cands[groups[gi].idx]
			slot := int(c.RADR) % tp.int8PerPage
			emb := vecmath.UnpackInt8Bytes(data[slot*tp.int8Bytes:(slot+1)*tp.int8Bytes], ts.emb)
			ts.emb = emb
			d := vecmath.L2SquaredInt8(q8, emb)
			reranked = append(reranked, DocResult{ID: int(c.DADR), Dist: float32(d)})
		}
	}
	ts.reranked = reranked
	for _, n := range planePages {
		if n > st.RerankWaves {
			st.RerankWaves = n
		}
	}
	st.RerankCount += len(cands)

	// Quicksort the reranked pool, keep top-k in a fresh caller-owned
	// slice (the rerank scratch recycles across queries).
	slices.SortFunc(reranked, cmpDocResult)
	st.SortedEntries += len(reranked)
	n := len(reranked)
	if k < n {
		n = k
	}
	out := make([]DocResult, n)
	copy(out, reranked[:n])

	if opt.SkipDocs {
		return out, nil
	}

	// Document identification and retrieval (step 9): group DADRs by
	// document page with the same sorted pooled grouping.
	groups = groups[:0]
	for i, r := range out {
		groups = append(groups, pageIdx{page: r.ID / tp.docsPerPage, idx: i})
	}
	slices.SortFunc(groups, cmpPageIdx)
	ts.groups = groups
	for gi := 0; gi < len(groups); {
		page := groups[gi].page
		data, _, err := src.readDocPage(ts, page)
		if err != nil {
			return nil, err
		}
		st.DocPages++
		for ; gi < len(groups) && groups[gi].page == page; gi++ {
			i := groups[gi].idx
			slot := out[i].ID % tp.docsPerPage
			doc := make([]byte, tp.docBytes)
			copy(doc, data[slot*tp.docBytes:(slot+1)*tp.docBytes])
			out[i].Doc = doc
			st.DocBytes += int64(tp.docBytes)
		}
	}
	return out, nil
}

// filterTombstoned compacts the merged entry stream in place, keeping
// only entries whose DADR is not tombstoned. Order is preserved, so
// downstream selection stays deterministic.
func filterTombstoned(es []TTLEntry, tomb []uint64) []TTLEntry {
	out := es[:0]
	for _, e := range es {
		if !bitsetGet(tomb, int(e.DADR)) {
			out = append(out, e)
		}
	}
	return out
}
