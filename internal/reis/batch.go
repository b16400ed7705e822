package reis

import (
	"context"

	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// This file is the single device's scan backend: one scan round of the
// controller (controller.go) — or one OpcodeScan command of a shard
// router — split into per-plane tasks on the per-die worker pool.
//
//   - A plane only receives an IBC broadcast for queries it actually
//     scans, instead of every query flooding every plane.
//   - Each plane processes its share of every query back to back
//     (query-major order) with no global barrier per query, so device
//     time is occupied continuously — the overlap BatchLatency costs
//     with the channel-occupancy model.
//
// Determinism: per-plane work lists are built in (query, segment)
// order and executed in that order by the plane's die worker, and
// per-query partial results are merged in segment order then position
// order. Surviving entries stay in the worker arenas until the round is
// folded; the per-segment merge then moves them straight into the
// caller's buffer, and every per-round structure is pooled, so the scan
// phase performs no steady-state allocation.

// segScan is the outcome of one query's scan of one segment: the window
// of scanOut.scans holding its per-plane arena windows (merged lazily,
// at fold time) plus the folded event counts. An aborted segment has an
// empty window; prunedPages/abortedWaves account the work it skipped.
type segScan struct {
	lo, hi       int
	waves        int
	pages        int
	scanned      int
	survivors    int
	prunedSlots  int
	prunedPages  int
	abortedWaves int
	ttlBytes     int64
}

// scanOut is the pooled outcome of the last batchScan: segs holds every
// (query, segment) in query-major order, query qi's starting at off[qi];
// ibc[qi] is the number of planes that received query qi's broadcast.
type scanOut struct {
	segs  []segScan
	off   []int
	scans []planeScan
	ibc   []int
}

func (o *scanOut) seg(qi, si int) *segScan { return &o.segs[o.off[qi]+si] }

// batchItem is one plane's share of one query segment in a scan round:
// slot indexes scanOut.scans, bound is the query's pruning threshold at
// dispatch (0 = none).
type batchItem struct {
	qi, slot    int
	span        ssd.PlaneSpan
	first, last int
	bound       int
}

// batchScan executes one scan round for a whole query batch into
// e.scr.out: segs[qi] lists the slot ranges query qi scans in the
// centroid region (coarse — no distance or metadata filtering: TTL-C
// must rank every centroid, Sec 4.3.1) or the binary region. Work is
// split into per-plane tasks dispatched to the die worker pool; each
// plane broadcasts a query's embedding into its cache latch once and
// then scans all of that query's segments resident on the plane before
// moving to the next query. The empty sentinel (Last < First) is a
// segment with no page on this device: no work, zero stats.
// ctx is polled between per-plane work items (a cancelled command
// aborts the round at the next item boundary).
//
// bounds[qi] is query qi's pruning threshold and lbs[qi][si] a proven
// lower bound on every distance of the segment (nil = all zero, i.e.
// off). A segment whose lower bound exceeds its query's bound is
// aborted in place: no page is sensed, no plane task is queued, and the
// pages/waves it would have cost are accounted as prunedPages/
// abortedWaves. The abort decision depends only on (lb, bound), both
// global to a scatter, so every topology skips the same segments.
func (e *Engine) batchScan(ctx context.Context, db *Database, packed [][]byte, coarse bool, segs [][]SlotRange, lbs [][]int, bounds []int, metaTag *uint8) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	region, filter := db.rec.Embeddings, e.Opts.DistanceFilter
	if coarse {
		region, filter, metaTag = db.rec.Centroids, false, nil
	}
	planes := e.SSD.Cfg.Geo.Planes()
	e.pool.resetArenas()
	if e.scr.planeWork == nil {
		e.scr.planeWork = make([][]batchItem, planes)
	}
	planeWork := e.scr.planeWork
	for p := range planeWork {
		planeWork[p] = planeWork[p][:0]
	}
	out := &e.scr.out
	out.segs, out.off, out.scans = out.segs[:0], out.off[:0], out.scans[:0]
	out.ibc = resizeInts(out.ibc, len(packed))
	for qi := range packed {
		out.off = append(out.off, len(out.segs))
		bound := 0
		if bounds != nil {
			bound = bounds[qi]
		}
		for si, sg := range segs[qi] {
			seg := segScan{lo: len(out.scans)}
			if sg.Last >= sg.First {
				spans := region.AppendPlaneSpans(e.scr.spans[:0], planes, sg.First/db.embPerPage, sg.Last/db.embPerPage)
				e.scr.spans = spans
				if bound > 0 && lbs != nil && lbs[qi][si] > bound {
					// Early-abort: even the segment's best possible distance
					// cannot beat the query's current top-k threshold. Count
					// the pages each plane would have sensed.
					for _, v := range spans {
						seg.prunedPages += v.Count
						seg.abortedWaves = max(seg.abortedWaves, v.Count)
					}
				} else {
					for _, v := range spans {
						planeWork[v.Plane] = append(planeWork[v.Plane], batchItem{
							qi: qi, slot: len(out.scans), span: v, first: sg.First, last: sg.Last, bound: bound,
						})
						out.scans = append(out.scans, planeScan{})
					}
				}
			}
			seg.hi = len(out.scans)
			out.segs = append(out.segs, seg)
		}
	}
	// A plane issues one IBC per run of same-query items in its work
	// list; items are appended in ascending query order, so counting
	// the query transitions per plane counts exactly the broadcasts
	// the execution below performs.
	for p := range planeWork {
		prev := -1
		for _, it := range planeWork[p] {
			if it.qi != prev {
				out.ibc[it.qi]++
				prev = it.qi
			}
		}
	}

	tasks := e.scr.tasks[:0]
	scans := out.scans
	run := func(sc *workerScratch, plane, _ int) error {
		curQ := -1
		for _, it := range planeWork[plane] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if it.qi != curQ {
				// One broadcast per query per plane: the cache
				// latch must hold this query before its scans.
				if err := e.ibcPlane(db, plane, packed[it.qi]); err != nil {
					return err
				}
				curQ = it.qi
			}
			ps, err := e.scanPlane(db, region, sc, it.span, it.first, it.last, filter, metaTag, it.bound)
			if err != nil {
				return err
			}
			scans[it.slot] = ps
		}
		return nil
	}
	for p, items := range planeWork {
		if len(items) == 0 {
			continue
		}
		tasks = append(tasks, planeTask{plane: p, run: run})
	}
	if err := e.runTasks(tasks); err != nil {
		return err
	}
	for i := range out.segs {
		s := &out.segs[i]
		for _, ps := range scans[s.lo:s.hi] {
			s.waves = max(s.waves, ps.pages)
			s.pages += ps.pages
			s.scanned += ps.scanned
			s.survivors += ps.survivors
			s.prunedSlots += ps.pruned
			s.ttlBytes += ps.ttlBytes
		}
	}
	return nil
}

// addTo accumulates the segment's event counts into st, as coarse- or
// fine-phase work. Waves sum segment by segment: segments of one query
// run one after another on the planes.
func (s *segScan) addTo(st *QueryStats, coarse bool) {
	if coarse {
		st.CoarseWaves += s.waves
		st.CoarsePages += s.pages
	} else {
		st.FineWaves += s.waves
		st.FinePages += s.pages
	}
	st.EntriesScanned += s.scanned
	st.Survivors += s.survivors
	st.PrunedSlots += s.prunedSlots
	st.PrunedPages += s.prunedPages
	st.AbortedWaves += s.abortedWaves
	st.TTLBytes += s.ttlBytes
}

// packBatch binary-quantizes every query into the pooled per-batch
// encoding arena (one backing buffer, one slot per query).
func (e *Engine) packBatch(db *Database, queries [][]float32) [][]byte {
	slot := db.slotBytes
	need := len(queries) * slot
	if cap(e.scr.packedBuf) < need {
		e.scr.packedBuf = make([]byte, need)
	}
	buf := e.scr.packedBuf[:need]
	packed := e.scr.packed[:0]
	for i, q := range queries {
		e.scr.qbits = vecmath.BinaryQuantize(q, e.scr.qbits)
		packed = append(packed, vecmath.PackBinaryBytes(e.scr.qbits, buf[i*slot:i*slot:(i+1)*slot]))
	}
	e.scr.packed = packed
	return packed
}

// localBackend is the controller's scan backend over the engine's own
// planes: rounds run through batchScan, segments fold straight out of
// the worker arenas, the tail reads the engine's own regions.
type localBackend struct {
	e      *Engine
	db     *Database
	packed [][]byte // the command's query encodings, packed at its first round
}

func (b *localBackend) shardRows(int) [][]QueryStats { return nil }

// fetchPin reads a binary-region page for the hot-cluster cache. The
// SLC-ESP partition has zero raw bit-error rate, so the pinned copy is
// bit-identical to what the sensing latch would hold, and the read
// consumes no error-injection randomness.
func (b *localBackend) fetchPin(page int) ([]byte, []byte, error) {
	addr, err := b.db.rec.Embeddings.AddressOf(b.e.SSD.Cfg.Geo, page)
	if err != nil {
		return nil, nil, err
	}
	return b.e.SSD.Dev.ReadPageInto(addr, nil, nil)
}

func (b *localBackend) scan(ctx context.Context, queries [][]float32, coarse bool, segs [][]SlotRange, lbs [][]int, bounds []int, metaTag *uint8, _ [][]QueryStats) error {
	if b.packed == nil {
		b.packed = b.e.packBatch(b.db, queries)
	}
	return b.e.batchScan(ctx, b.db, b.packed, coarse, segs, lbs, bounds, metaTag)
}

func (b *localBackend) ibc(qi int) int { return b.e.scr.out.ibc[qi] }

func (b *localBackend) fold(qi, si int, coarse bool, st *QueryStats, dst []TTLEntry) []TTLEntry {
	seg := b.e.scr.out.seg(qi, si)
	seg.addTo(st, coarse)
	return b.e.appendMergeByPos(dst, b.e.scr.out.scans[seg.lo:seg.hi])
}

func (b *localBackend) finish(query []float32, entries []TTLEntry, k int, opt SearchOptions, st *QueryStats) ([]DocResult, error) {
	e, db := b.e, b.db
	e.scr.src = engineTailSource{e: e, db: db}
	return runTail(&e.scr.src, &e.scr.tail, db.tailParams(e.SSD.Cfg.Geo.Planes()), query, entries, k, opt, st)
}

// search runs one command's queries — its own Q operand or a coalesced
// group's concatenation — through the controller over the engine's own
// planes (the searcher entry; execSearchGroup is the cached form).
func (e *Engine) search(ctx context.Context, cmd *HostCommand, queries [][]float32, useCache bool) ([][]DocResult, []QueryStats, [][]QueryStats, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	db, err := e.db(cmd.DBID)
	if err != nil {
		return nil, nil, nil, err
	}
	e.scr.local = localBackend{e: e, db: db}
	c := controller{
		b: &e.scr.local, scr: &e.scr.ctrl,
		id: db.ID, dim: db.Dim, calib: db.calib, cache: db.cache, mut: db.mut,
		flat: db.flatSegs(), nlist: len(db.rivf), planes: e.SSD.Cfg.Geo.Planes(),
		pin: cachedScanParams{
			slotBytes: db.slotBytes, embPerPage: db.embPerPage,
			filter: e.Opts.DistanceFilter, threshold: db.filterThreshold,
		},
	}
	return c.search(ctx, cmd, queries, useCache)
}

// Search implements the Search() API command (Table 1): brute-force
// in-storage scan of the whole binary region, rerank, and document
// retrieval. Like the three methods below it is a one-command wrapper
// over the controller that bypasses the result cache.
func (e *Engine) Search(dbID int, query []float32, k int, opt SearchOptions) ([]DocResult, QueryStats, error) {
	return searchOne(e, OpcodeSearch, dbID, query, k, opt)
}

// IVFSearch implements the IVF_Search() API command (Table 1): coarse
// centroid search, fine scan of the NProbe nearest clusters, rerank,
// and document retrieval.
func (e *Engine) IVFSearch(dbID int, query []float32, k int, opt SearchOptions) ([]DocResult, QueryStats, error) {
	return searchOne(e, OpcodeIVFSearch, dbID, query, k, opt)
}

// SearchBatch implements the batched Q operand of the Search() API
// command (Table 1): the queries' brute-force scans are scheduled
// concurrently across planes. Results[i] and Stats[i] are bit-identical
// to what Search(dbID, queries[i], k, opt) returns — every QueryStats
// field, IBCBroadcasts included: a plane broadcasts a query once if and
// only if it scans it, whatever else rides in the batch.
func (e *Engine) SearchBatch(dbID int, queries [][]float32, k int, opt SearchOptions) ([][]DocResult, []QueryStats, error) {
	return searchMany(e, OpcodeSearch, dbID, queries, k, opt)
}

// IVFSearchBatch implements the batched Q operand of IVF_Search(): a
// coarse centroid round for the whole batch, a controller-side cluster
// selection per query, then the fine round(s) over every query's probed
// clusters. Results are bit-identical to per-query IVFSearch calls, and
// so are the stats on an uncached database (the hot-cluster pins refresh
// once per command, so a cached batch may serve from DRAM pages that
// one-query commands sense from flash, and vice versa).
func (e *Engine) IVFSearchBatch(dbID int, queries [][]float32, k int, opt SearchOptions) ([][]DocResult, []QueryStats, error) {
	return searchMany(e, OpcodeIVFSearch, dbID, queries, k, opt)
}
