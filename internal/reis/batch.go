package reis

import (
	"context"

	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// This file is the device's scan path: one scan round of the controller
// (controller.go) over a device scanned in place — or one OpcodeScan
// command scattered to it by a host over several — split into per-plane
// tasks on the per-die worker pool.
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

// stats is query qi's view of the last round as the device reports it
// to a host (an OpcodeScan response, a PerShard row): its broadcasts
// and folded segment events. Every coarse survivor is a TTL-C entry;
// the timing model costs coarse and fine TTL streams under different
// scale factors, so the device's row carries the split. (The host's
// aggregated CoarseEntries is computed centrally from the merged
// stream instead.)
func (o *scanOut) stats(qi int, coarse bool) QueryStats {
	st := QueryStats{IBCBroadcasts: o.ibc[qi]}
	end := len(o.segs)
	if qi+1 < len(o.off) {
		end = o.off[qi+1]
	}
	for i := o.off[qi]; i < end; i++ {
		o.segs[i].addTo(&st, coarse)
		if coarse {
			st.CoarseEntries += o.segs[i].survivors
		}
	}
	return st
}

// localBackend is the controller's scan backend over one device, scanned
// in place: rounds run through batchScan on the plane pool and segments
// fold straight out of the worker arenas. The host core holds the
// device's lock for the command.
type localBackend struct {
	e      *Engine
	db     *Database
	packed [][]byte // the command's query encodings, packed at its first round
}

func (b *localBackend) scan(ctx context.Context, queries [][]float32, coarse bool, segs [][]SlotRange, lbs [][]int, bounds []int, metaTag *uint8, rows [][]QueryStats) error {
	if b.packed == nil {
		b.packed = b.e.packBatch(b.db, queries)
	}
	if err := b.e.batchScan(ctx, b.db, b.packed, coarse, segs, lbs, bounds, metaTag); err != nil {
		return err
	}
	if rows != nil {
		for qi := range queries {
			rows[0][qi].Add(b.e.scr.out.stats(qi, coarse))
		}
	}
	return nil
}

func (b *localBackend) ibc(qi int) int { return b.e.scr.out.ibc[qi] }

func (b *localBackend) fold(qi, si int, coarse bool, st *QueryStats, dst []TTLEntry) []TTLEntry {
	seg := b.e.scr.out.seg(qi, si)
	seg.addTo(st, coarse)
	return b.e.appendMergeByPos(dst, b.e.scr.out.scans[seg.lo:seg.hi])
}
