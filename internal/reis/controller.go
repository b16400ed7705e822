package reis

import (
	"context"
	"fmt"
	"slices"

	"reis/internal/vecmath"
)

// This file is the one search orchestration of the package: the paper's
// query pipeline (Sec 4.3 — IBC broadcast → coarse TTL-C scan → cluster
// selection → fine TTL-E scan → rerank → documents) driven as a
// sequence of scan rounds by a controller that plans every round from
// global state only. Every search variant is a case of it:
//
//   - flat is IVF without the coarse phase and with one segment list
//     (the live scan plan) shared by every query;
//   - unpruned is a single fine round whose bounds stay zero;
//     SearchOptions.Prune splits the same work into geometric rounds
//     (chunkFlatRounds / probeWindow) and tightens a per-query bound
//     between them (see prune.go for the proof that results do not
//     change);
//   - one device and several are the same round (batch.go): every
//     device scans the part of each global range it owns, in place, and
//     a segment folds across them — on one device the part is the whole
//     and the fold a pass-through;
//   - pinned clusters are scanned here, from the DRAM copies, after the
//     query's device segments are folded, so a device never sees them;
//   - a command, a coalesced dispatch group and a CalibrateNProbe step
//     all enter through search; only the last runs past the result
//     cache.
//
// Because rounds, bounds, lower bounds and the pin set are computed
// once, from values that do not depend on the topology, a query's entry
// stream holds the same set of entries on every device count; its order
// varies, and no consumer reads it (see fold). Results and aggregated
// QueryStats are bit-identical across device counts by construction.

// controller is one search command's view of its database: the host
// core (the devices it scans, pin fetches, the tail, the global plane
// count), the pooled scratch (owned by the execMu holder), and the
// host's database entry — the global state rounds are planned from,
// identical whatever the device count.
type controller struct {
	h   *hostCore
	db  *rdbEntry
	scr *ctrlScratch
	// filter is the fine round's distance-filter cutoff, -1 for none,
	// decided once per command: every device's scan and every pinned
	// scan filter under it, and the coarse cut rides it.
	filter int
	// out is the running command's output, which search sizes once for
	// all its queries (outBlocks.reset) in the caller's blocks. Query qi
	// of a run lands at position at(qi): pos maps the miss subset a
	// cached command runs to its queries' places, and is nil when the run
	// is the whole command.
	out *outBlocks
	pos []int
}

// at is the command position of the running batch's query qi.
func (c *controller) at(qi int) int {
	if c.pos == nil {
		return qi
	}
	return c.pos[qi]
}

// ctrlScratch is the controller's pooled working state, embedded in
// hostScratch. Per-query slices are indexed by the
// query's position in the running batch and keep their buffers across
// commands.
type ctrlScratch struct {
	accs     [][]ttlEntry // entries of the rounds before a query's last
	entries  []ttlEntry   // the query's whole stream, handed to the tail
	trackers []boundTracker
	bounds   []int
	sel      [][]prunedCluster // selected clusters in coarse rank order
	cents    []ttlEntry
	// The current round: segs[qi] is what the devices scan (a view of
	// segBuf[qi], or of the shared flat plan), lbs[qi] its lower bounds,
	// and pins[qi] the pinned ranges the controller scans from DRAM
	// instead.
	segs   [][]slotRange
	segBuf [][]slotRange
	lbs    [][]int
	pins   [][]*pinnedRange
	cent   [1]slotRange
	// The batch's packed binary encodings (one backing buffer, one slot
	// per query), shared read-only by every device's broadcasts and by
	// the pinned scans.
	qbits     []uint64
	packedBuf []byte
	packed    [][]byte
	// A cached command's miss subset: missQ[j] is the command's query
	// missIdx[j].
	missIdx []int
	missQ   [][]float32
}

// growTo resizes s to n elements, keeping the existing ones (and the
// buffers they own).
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// reset sizes the per-query state for a batch whose trackers hold pool
// distances (0 = pruning off: bound() stays 0) and binary-quantizes the
// queries into slotBytes-wide packed encodings.
func (s *ctrlScratch) reset(queries [][]float32, pool, slotBytes int) {
	nq := len(queries)
	s.accs = growTo(s.accs, nq)
	s.trackers = growTo(s.trackers, nq)
	s.bounds = growTo(s.bounds, nq)
	s.sel = growTo(s.sel, nq)
	s.segs = growTo(s.segs, nq)
	s.segBuf = growTo(s.segBuf, nq)
	s.lbs = growTo(s.lbs, nq)
	s.pins = growTo(s.pins, nq)
	s.packed = growTo(s.packed, nq)
	if need := nq * slotBytes; cap(s.packedBuf) < need {
		s.packedBuf = make([]byte, need)
	}
	for qi, q := range queries {
		s.accs[qi] = s.accs[qi][:0]
		s.trackers[qi] = boundTracker{capacity: pool, heap: s.trackers[qi].heap[:0]}
		s.bounds[qi] = 0
		s.pins[qi] = s.pins[qi][:0]
		s.qbits = vecmath.BinaryQuantize(q, s.qbits)
		s.packed[qi] = vecmath.PackBinaryBytes(s.qbits, s.packedBuf[qi*slotBytes:qi*slotBytes:(qi+1)*slotBytes])
	}
}

// search resolves one command's queries — its own Q operand, or a
// coalesced group's concatenation — against the database and runs them
// into c.out, wrapped in the result cache when useCache is set (host
// commands; calibration bypasses it). K, a non-empty Q and per-command
// uniform dimensionality were checked at submission (validate). The
// command's results, stats and PerShard rows are sized once, whatever
// mix of hits and misses its queries are. A hit is deep-copied into
// windows of the output blocks at controller cost (QueryStats records
// only ResultCacheHits, the per-shard rows stay zero); the miss subset
// runs as one batch into the misses' own places, so its per-query stats
// are bit-identical to an uncached run, and is then inserted. Every
// lookup precedes every insert, so intra-batch duplicates all miss and
// hit patterns do not depend on batch order.
func (c *controller) search(ctx context.Context, cmd *HostCommand, queries [][]float32, useCache bool) error {
	db, cache := c.db, c.db.cache
	opt, err := resolveSearchOptions(db, cmd)
	if err != nil {
		return err
	}
	for _, q := range queries {
		if len(q) != db.lay.dim {
			return fmt.Errorf("%w (query dim %d, database %d dim %d)",
				errQueryDims, len(q), db.id, db.lay.dim)
		}
	}
	if cmd.Opcode == OpcodeIVFSearch && db.lay.flat() {
		return fmt.Errorf("reis: database %d was not deployed with IVF_Deploy", db.id)
	}
	nq, out := len(queries), c.out
	out.reset(nq, len(c.h.devs), c.h.perShard)
	if !useCache || cache == nil {
		return c.run(ctx, cmd.Opcode, queries, cmd.K, opt)
	}
	s := c.scr
	missIdx, missQ := s.missIdx[:0], s.missQ[:0]
	for i, q := range queries {
		if r, ok := cache.lookupResult(cache.resultKey(cmd.Opcode, cmd.K, opt, q)); ok {
			// Sized for every query still to be served: this one, the
			// ones after it and the misses before it.
			out.waiting = nq - i + len(missIdx)
			out.results[i] = out.serve(r)
			out.sts[i] = QueryStats{ResultCacheHits: 1}
			continue
		}
		missIdx = append(missIdx, i)
		missQ = append(missQ, q)
	}
	s.missIdx, s.missQ = missIdx, missQ
	if len(missIdx) > 0 {
		c.pos = missIdx
		err := c.run(ctx, cmd.Opcode, missQ, cmd.K, opt)
		c.pos = nil
		clear(missQ) // the operands are the caller's again
		if err != nil {
			return err
		}
		for _, i := range missIdx {
			cache.storeResult(cache.resultKey(cmd.Opcode, cmd.K, opt, queries[i]), out.results[i])
		}
	}
	return nil
}

// coarseCut is the coarse round's in-plane cutoff at nprobe, or -1 when
// the cut is off: it rides the distance filter and has nothing to hold
// back once nprobe covers every centroid.
func (c *controller) coarseCut(nprobe int) int {
	cut := c.db.lay.coarseCut
	if c.filter < 0 || nprobe >= c.db.lay.nlist() || cut == nil {
		return -1
	}
	return cut[nprobe-1]
}

// selectClusters ranks query qi's TTL-C entries and keeps the first
// nprobe clusters as its selection, with their pruning lower bounds, and
// returns how many it kept.
func (c *controller) selectClusters(qi int, cents []ttlEntry, nprobe int, st *QueryStats) int {
	cache, mut := c.db.cache, c.db.mut
	st.SelectInput += len(cents)
	slices.SortFunc(cents, cmpTTLDistPos)
	sel := c.scr.sel[qi][:0]
	probePages := 0
	for _, cn := range cents[:min(nprobe, len(cents))] {
		cl := int(cn.Pos)
		probePages += cache.probe(cl, mut.buckets[cl])
		sel = append(sel, prunedCluster{cluster: cl, lb: clusterLB(int(cn.Dist), mut.radius[cl])})
	}
	// The widest probe of this command opens or shuts the next command's
	// pin admission (dbCache.refresh).
	cache.probed(probePages)
	c.scr.sel[qi] = sel
	return len(sel)
}

// run drives one validated batch through the pipeline: plan a round,
// have the devices scan it, fold each query's segments — pinned ones
// from DRAM — into its accumulator, tighten its bound, repeat; the
// tail of a query runs as its last round is folded, into the command's
// output at the query's position (at). ctx is polled before every round
// and every tail.
func (c *controller) run(ctx context.Context, op uint8, queries [][]float32, k int, opt SearchOptions) error {
	nq := len(queries)
	s := c.scr
	pool := 0
	if opt.Prune {
		pool = rerankPool(k)
	}
	s.reset(queries, pool, c.db.lay.slotBytes)
	for _, d := range c.h.devs {
		d.scr.ibc.begin(d.SSD.Cfg.Geo, d.Opts.MPIBC, nq)
	}
	mut, cache, nlist := c.db.mut, c.db.cache, c.db.lay.nlist()
	var tomb []uint64
	if mut.deadCount > 0 {
		tomb = mut.tomb
	}

	// flatRounds is the brute-force round list (a compacted-away plan is
	// one round of nothing); an IVF search's rounds are rank windows over
	// each query's selection, maxSel being the longest.
	var flatRounds [][]slotRange
	maxSel := 0
	if op == OpcodeSearch {
		flatRounds = [][]slotRange{mut.flatPlan}
		if opt.Prune && len(mut.flatPlan) > 0 {
			flatRounds = mut.prunedRounds()
		}
	} else {
		// Pins refresh once per IVF command, before any probe of it counts.
		err := cache.refresh(mut.buckets, func(page int, buf []byte) error { return c.h.fetchPin(c.db, page, buf) })
		if err != nil {
			return err
		}
		// Coarse round: every query ranks the whole centroid region in
		// flash. No pruning bound applies. With the coarse cut on, only
		// centroids at or under it send a TTL-C entry: the check keeps
		// ties, so a query with nprobe survivors selects exactly the
		// (Dist, Pos) top-nprobe of every centroid. A query left with
		// fewer re-runs the round uncut, and its stats count both.
		s.cent[0] = slotRange{First: 0, Last: nlist - 1}
		for qi := range queries {
			s.segs[qi] = s.cent[:]
		}
		for cut := c.coarseCut(opt.NProbe); ; cut = -1 {
			if err := c.scan(ctx, true, cut, s.segs, nil, s.bounds, opt.MetaTag); err != nil {
				return err
			}
			reissue := false
			for qi := range queries {
				if len(s.segs[qi]) == 0 {
					continue // selected in the cut round
				}
				st := &c.out.sts[c.at(qi)]
				c.ibc(qi, st)
				cents := c.fold(qi, 0, true, st, s.cents[:0])
				s.cents = cents
				if cut >= 0 && len(cents) < opt.NProbe {
					reissue = true
					continue
				}
				s.segs[qi] = nil
				maxSel = max(maxSel, c.selectClusters(qi, cents, opt.NProbe, st))
			}
			if !reissue {
				break
			}
		}
	}

	for r, last := 0, false; !last; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Plan round r.
		var lbs [][]int
		if op == OpcodeSearch {
			for qi := range queries {
				s.segs[qi] = flatRounds[r]
			}
			last = r == len(flatRounds)-1
		} else {
			// Unpruned: one window over every selected cluster. Pruned:
			// rank windows 1, 1, 2, 4, ... — the nearest cluster alone
			// seeds the bound before wider windows scan under it.
			start, size := 0, maxSel
			last = true
			if opt.Prune {
				start, size = probeWindow(r)
				next, _ := probeWindow(r + 1)
				last = next >= maxSel
			}
			lbs = s.lbs
			for qi := range queries {
				segs, ql, pins := s.segBuf[qi][:0], s.lbs[qi][:0], s.pins[qi][:0]
				sel := s.sel[qi]
				for i := start; i < min(start+size, len(sel)); i++ {
					pc := cache.pinnedFor(sel[i].cluster)
					for ri, sr := range mut.buckets[sel[i].cluster] {
						if pc != nil {
							pins = append(pins, &pc.ranges[ri])
							continue
						}
						segs = append(segs, sr)
						ql = append(ql, sel[i].lb)
					}
				}
				s.segBuf[qi], s.lbs[qi], s.pins[qi] = segs, ql, pins
				s.segs[qi] = segs
			}
		}
		for qi := range queries {
			s.bounds[qi] = s.trackers[qi].bound()
		}

		if err := c.scan(ctx, false, c.filter, s.segs, lbs, s.bounds, opt.MetaTag); err != nil {
			return err
		}
		for qi := range queries {
			st := &c.out.sts[c.at(qi)]
			c.ibc(qi, st)
			// Earlier rounds wait in the query's accumulator; its final
			// stream is assembled in the one shared buffer and consumed by
			// the tail at once, so an unpruned batch holds one query's
			// entries at a time, not the batch's.
			acc := s.accs[qi]
			if last {
				acc = append(s.entries[:0], acc...)
			}
			mark := len(acc)
			for si := range s.segs[qi] {
				acc = c.fold(qi, si, false, st, acc)
			}
			// Pinned segments: the same kernel and predicates over the
			// DRAM copies, under the round's bound. They are never
			// lb-aborted — the pages are already resident.
			p := cachedScanParams{threshold: c.filter, metaTag: opt.MetaTag, bound: s.bounds[qi]}
			for _, pr := range s.pins[qi] {
				var cp, cs, ps int
				acc, cp, cs, ps = cache.scanPinned(pr, s.packed[qi], &c.db.lay.pageFormat, p, acc)
				st.CachedPages += cp
				st.CachedSlots += cs
				st.PrunedSlots += ps
			}
			if !last {
				feedTracker(&s.trackers[qi], acc[mark:], tomb)
				s.accs[qi] = acc
				continue
			}
			s.entries = acc
			if err := ctx.Err(); err != nil {
				return err
			}
			c.out.waiting = nq - qi
			res, err := c.h.tail(c.db, queries[qi], acc, k, opt, st, c.out)
			if err != nil {
				return err
			}
			c.out.results[c.at(qi)] = res
		}
	}
	return nil
}
