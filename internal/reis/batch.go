package reis

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// This file is the scan path: one scan round of the controller
// (controller.go) run on every device of the host in place — every
// device's share planned and handed to its die workers (startScan), then
// collected device by device (waitScan) — and the cross-device fold of a
// segment's outcome.
//
//   - A die only receives an IBC broadcast for queries it actually
//     scans, latched by the planes that scan them, instead of every
//     query flooding every plane (planBroadcasts); the loads that cross
//     a die port are what the timing model charges (ibcLedger).
//   - Each die runs its share of the round group by group with no global
//     barrier per query, so device time is occupied continuously — the
//     overlap BatchLatency costs with the channel-occupancy model. A
//     group is one query (query-major order), or, in a shared round —
//     one whose queries all scan the same pages: the coarse round, or a
//     flat round — where the timing model finds it cheaper (pageMajor in
//     timing.go), the round's queries, so each die senses a wave of pages
//     once and cycles them through its cache latches. The order is the
//     plan's group size alone (planDie); one runner executes both
//     (runDie).
//
// Determinism: per-plane work lists are built in (query, segment)
// order and executed in that order, page by page, by the plane's die
// worker. Surviving entries stay in the worker arenas until the round is
// folded; the fold then appends each segment's plane windows straight
// into the caller's buffer — a query's stream is a set, so no merge
// orders it — and every per-round structure is pooled, so the scan phase
// performs no steady-state allocation.

// segScan is the outcome of one query's scan of one segment: the window
// of scanOut.scans holding its per-plane arena windows (copied out at
// fold time) plus the folded event counts. An aborted segment has an
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
}

// scanOut is the pooled outcome of the last scan round: segs holds every
// (query, segment) in query-major order, query qi's starting at off[qi];
// ibc[qi] is the number of planes that latched query qi's broadcast.
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

// startScan plans one scan round for a whole query batch and dispatches
// it to the device's dies; waitScan completes it into d.scr.out.
// segs[qi] lists the slot ranges query qi scans in the centroid region
// (coarse — no metadata filter) or the binary region, under the
// distance-filter cutoff the controller decided for the round
// (< 0: none): the fine round's filter threshold, or the coarse cut —
// centroids over it send no TTL-C entry (see controller.run). Work is
// split into per-plane work lists run by the die worker pool; each
// plane latches a query's embedding once and then scans all of that
// query's segments resident on the plane before moving to the next
// query — or, in a shared round the timing model prices cheaper
// page-major, senses each page once for every query. The ranges are
// global; the device scans the part it owns (localRange — all of it on
// one device), and a segment with no page here is no work and zero
// stats. Entry positions come back global. ctx is polled between waves
// (a cancelled command aborts the round at the next page). A closed device
// refuses the round: its plane workers are gone for good. A round that
// startScan refuses has nothing to wait for; one it starts must be
// waited for. inline lets a lone busy die run on the caller's goroutine
// (planePool.dispatch).
//
// bounds[qi] is query qi's pruning threshold and lbs[qi][si] a proven
// lower bound on every distance of the segment (nil = all zero, i.e.
// off). A segment whose lower bound exceeds its query's bound is
// aborted in place: no page is sensed, no plane task is queued, and the
// pages/waves it would have cost are accounted as prunedPages/
// abortedWaves. The abort decision depends only on (lb, bound), both
// global to the round, so every topology skips the same segments.
func (d *device) startScan(ctx context.Context, db *Database, packed [][]byte, coarse bool, cutoff int, segs [][]slotRange, lbs [][]int, bounds []int, metaTag *uint8, inline bool) error {
	if d.closed.Load() {
		return fmt.Errorf("reis: device closed: %w", ErrQueueClosed)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	region := db.rec.Embeddings
	if coarse {
		region, metaTag = db.rec.Centroids, nil
	}
	planes := d.SSD.Cfg.Geo.Planes()
	d.pool.resetArenas()
	if d.scr.planeWork == nil {
		d.scr.planeWork = make([][]batchItem, planes)
	}
	planeWork := d.scr.planeWork
	for p := range planeWork {
		planeWork[p] = planeWork[p][:0]
	}
	out := &d.scr.out
	out.segs, out.off, out.scans = out.segs[:0], out.off[:0], out.scans[:0]
	out.ibc = resizeInts(out.ibc, len(packed))
	// A shared round is the coarse round or a flat database's round, as
	// the timing model prices them (scanCost): no segment is aborted, and
	// every query with pages here (parts) scans the same segments.
	parts, pages, shared := d.scr.parts[:0], 0, lbs == nil && (coarse || db.flat())
	for qi := range packed {
		out.off = append(out.off, len(out.segs))
		bound := 0
		if bounds != nil {
			bound = bounds[qi]
		}
		start := len(out.scans)
		qpages := 0
		for si, sg := range segs[qi] {
			sg = localRange(sg, db.start, db.stride, db.embPerPage)
			seg := segScan{lo: len(out.scans)}
			if sg.Last >= sg.First {
				spans := region.AppendPlaneSpans(d.scr.spans[:0], planes, sg.First/db.embPerPage, sg.Last/db.embPerPage)
				d.scr.spans = spans
				for _, v := range spans {
					qpages += v.Count
				}
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
		if len(out.scans) > start {
			shared = shared && (len(parts) == 0 || qpages == pages && slices.Equal(segs[qi], segs[parts[0]]))
			parts, pages = append(parts, qi), qpages
		}
	}
	d.scr.parts = parts
	pageMajor := false
	if shared && len(parts) > 1 {
		var r sharedRound
		for range parts {
			d.joinRound(&r, float64(pages))
		}
		pageMajor, _, _, _ = d.pageMajor(r)
	}
	busy := d.planBroadcasts(pageMajor)
	d.scr.round = scanRound{ctx: ctx, d: d, db: db, region: region, packed: packed, threshold: cutoff, metaTag: metaTag}
	d.pool.dispatch(&d.scr.round, busy, inline)
	return nil
}

// waitScan waits for the round startScan dispatched and sums each
// segment's per-plane outcome.
func (d *device) waitScan() error {
	err := d.pool.wait()
	d.scr.round = scanRound{} // the command's context and queries go with it
	if err != nil {
		return err
	}
	out := &d.scr.out
	for i := range out.segs {
		s := &out.segs[i]
		for _, ps := range out.scans[s.lo:s.hi] {
			s.waves = max(s.waves, ps.pages)
			s.pages += ps.pages
			s.scanned += ps.scanned
			s.survivors += ps.survivors
			s.prunedSlots += ps.pruned
		}
	}
	return nil
}

// scanRound is what the plane workers of a device share, read-only, while
// they run one scan round: the round's operands. The work lists and the
// outcome slots are the device scratch's (planeWork, out.scans). It lives
// in the scratch too, so starting a round allocates nothing.
type scanRound struct {
	ctx       context.Context
	d         *device
	db        *Database
	region    ssd.Region
	packed    [][]byte
	threshold int
	metaTag   *uint8
}

// runDie executes one die's share of the round on its worker, group by
// group as planned (planDie), wave by wave: every plane of the wave's
// mask senses its next page once, then each query of the group takes its
// turn in the plan's order — its step loaded into the cache latches, its
// distances computed against every sensed page. A query that the die's
// previous step latched (a one-query group past its first wave) is not
// loaded again: the latches still hold it. The group's rank-b query puts
// its entries on plane-in-die pl in arena b·PlanesPerDie + pl, so each
// (query, segment, plane) window stays contiguous although planes and
// queries take turns page by page. ctx is polled before each wave and
// each query's turn in it.
func (r *scanRound) runDie(sc *workerScratch, die int) error {
	d := r.d
	led, work := &d.scr.ibc, d.scr.planeWork
	geo, n := led.geo, led.group
	ppd := geo.PlanesPerDie
	sc.arenas = growTo(sc.arenas, n*ppd)
	sc.oob = growTo(sc.oob, ppd)
	sc.wave = growTo(sc.wave, ppd)
	clear(sc.wave)
	steps := led.steps[die]
	for w := 0; w < len(steps); w += n {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		mask := steps[w].mask
		for m := mask; m != 0; m &= m - 1 {
			pl := bits.TrailingZeros64(m)
			at := &sc.wave[pl]
			it := work[geo.DiePlane(die, pl)][at.item]
			at.p = it.span.First + at.page*it.span.Stride
			var err error
			if at.addr, sc.oob[pl], err = r.sense(at.p, sc.oob[pl]); err != nil {
				return err
			}
		}
		for i := w; i < w+n; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			st := steps[i]
			if i == 0 || steps[i-1].qi != st.qi {
				if err := d.broadcast(r.db, die, st, r.packed[st.qi]); err != nil {
					return err
				}
			}
			for m := mask; m != 0; m &= m - 1 {
				pl := bits.TrailingZeros64(m)
				at, items := &sc.wave[pl], work[geo.DiePlane(die, pl)]
				it := items[at.item+st.rank*(len(items)/n)]
				lane := st.rank*ppd + pl
				ps := &d.scr.out.scans[it.slot]
				if at.page == 0 {
					*ps = planeScan{plane: it.span.Plane, arena: lane, lo: len(sc.arenas[lane])}
				}
				if err := r.dist(sc, ps, &sc.arenas[lane], it, at.p, at.addr, sc.oob[pl]); err != nil {
					return err
				}
				ps.hi = len(sc.arenas[lane])
			}
		}
		for m := mask; m != 0; m &= m - 1 {
			pl := bits.TrailingZeros64(m)
			at := &sc.wave[pl]
			if at.page++; at.page == work[geo.DiePlane(die, pl)][at.item].span.Count {
				at.item, at.page = at.item+1, 0
			}
		}
	}
	return nil
}

// wavePos is where one plane of a die stands in its work list: item
// indexes the plane's items of the group's rank-0 query (every query of
// the group has the same ones), page counts the item's pages done, and p
// and addr are the page the current wave sensed.
type wavePos struct {
	item, page, p int
	addr          flash.Address
}

// ibcStep is one broadcast a die receives in a scan round: query qi,
// the rank-th of its group, latched by the die's planes in mask (bit i =
// plane-in-die i). sent names the loads that cross the die's I/O port
// for it — with MPIBC one for the whole die (sent == mask), without it
// one per plane named; where sent is clear the latches still hold the
// query from an earlier step.
type ibcStep struct {
	qi, rank   int
	mask, sent uint64
}

// ibcLedger is a device's broadcast bookkeeping for one command. A unit
// is what one load fills: a die with MPIBC (Sec 4.3.4), a plane without.
// The controller remembers which query each unit holds, so a later round
// of the command re-sends a query only where another query of a
// coalesced group overwrote it, and which units each query has loaded:
// loads[qi], the distinct units on the busiest channel, is what the
// timing model charges (QueryStats.IBCLoads), and total[qi], the
// distinct units on every channel, what its broadcast energy charges
// (QueryStats.IBCTotalLoads). Both depend on the query's own pages only —
// not on its batch, unlike the re-sends.
type ibcLedger struct {
	geo   flash.Geometry
	mpibc bool
	units int
	// steps[die] is the die's broadcast plan of the current round, in
	// groups of group queries (planDie): every query of a page-major
	// round, else one. cursor[plane] walks the plane's work list while
	// the plan is built.
	steps  [][]ibcStep
	group  int
	cursor []int
	holds  []int32  // holds[unit]: the query the unit's latches hold, -1 none
	loaded []uint64 // bit qi*units+unit: query qi has loaded unit
	perCh  []int32  // perCh[qi*Channels+ch]: units of channel ch in loaded[qi]
	loads  []int
	total  []int
}

// begin opens the ledger for a command of nq queries: no latch is known
// to hold any of them.
func (l *ibcLedger) begin(geo flash.Geometry, mpibc bool, nq int) {
	l.geo, l.mpibc, l.units = geo, mpibc, geo.Planes()
	if mpibc {
		l.units = geo.Dies()
	}
	l.steps = growTo(l.steps, geo.Dies())
	l.cursor = growTo(l.cursor, geo.Planes())
	l.holds = growTo(l.holds, l.units)
	for u := range l.holds {
		l.holds[u] = -1
	}
	l.loaded = growTo(l.loaded, (nq*l.units+63)/64)
	clear(l.loaded)
	l.perCh = growTo(l.perCh, nq*geo.Channels)
	clear(l.perCh)
	l.loads = resizeInts(l.loads, nq)
	l.total = resizeInts(l.total, nq)
}

// send records that unit, on channel ch, must hold query qi and reports
// whether a load has to cross the port for it.
func (l *ibcLedger) send(qi, unit, ch int) bool {
	if l.holds[unit] == int32(qi) {
		return false
	}
	l.holds[unit] = int32(qi)
	bit := qi*l.units + unit
	if w, m := bit>>6, uint64(1)<<uint(bit&63); l.loaded[w]&m == 0 {
		l.loaded[w] |= m
		n := &l.perCh[qi*l.geo.Channels+ch]
		*n++
		l.loads[qi] = max(l.loads[qi], int(*n))
		l.total[qi]++
	}
	return true
}

// planBroadcasts plans every die's share of the round (planDie) and
// returns the dies with work.
func (d *device) planBroadcasts(pageMajor bool) []int {
	led := &d.scr.ibc
	led.group = 1
	if pageMajor {
		led.group = len(d.scr.parts)
	}
	busy := d.scr.busy[:0]
	for die := range led.steps {
		led.steps[die] = d.planDie(die, led.steps[die][:0], pageMajor)
		if len(led.steps[die]) > 0 {
			busy = append(busy, die)
		}
	}
	d.scr.busy = busy
	return busy
}

// planDie appends the die's broadcast plan to steps, group by group in
// ascending query order. A page-major round's one group is the round's
// queries (parts) — they scan the same pages — and a query-major round's
// groups hold one query each. For each wave of a group — the k-th page
// of every plane's share of the group's items — it emits one step per
// query of the group, latched by the wave's planes. Cycling a group's
// queries through the latches wave after wave is what makes a page-major
// query's loads the round's waves on each die; a one-query group loads
// once, since the latches still hold it at its next wave. It also counts
// the planes each query is latched on (scanOut.ibc), which does not
// depend on the order.
func (d *device) planDie(die int, steps []ibcStep, pageMajor bool) []ibcStep {
	led, work, out := &d.scr.ibc, d.scr.planeWork, &d.scr.out
	geo := led.geo
	ch := geo.DieChannel(die)
	for pl := 0; pl < geo.PlanesPerDie; pl++ {
		led.cursor[geo.DiePlane(die, pl)] = 0
	}
	for {
		// The lowest query with items left on the die opens the next group.
		qi := -1
		for pl := 0; pl < geo.PlanesPerDie; pl++ {
			p := geo.DiePlane(die, pl)
			if c := led.cursor[p]; c < len(work[p]) && (qi < 0 || work[p][c].qi < qi) {
				qi = work[p][c].qi
			}
		}
		if qi < 0 {
			return steps
		}
		group := d.scr.parts
		if !pageMajor {
			group = []int{qi}
		}
		// pages[pl]: the pages of qi's items on plane-in-die pl (a mask has
		// 64 bits); the group's items on the plane are len(group) times as
		// many.
		var pages [64]int
		waves := 0
		for pl := 0; pl < geo.PlanesPerDie; pl++ {
			p := geo.DiePlane(die, pl)
			c := led.cursor[p]
			for ; c < len(work[p]) && work[p][c].qi == qi; c++ {
				pages[pl] += work[p][c].span.Count
			}
			led.cursor[p] += (c - led.cursor[p]) * len(group)
			waves = max(waves, pages[pl])
		}
		for k := range waves {
			var mask uint64
			for pl := 0; pl < geo.PlanesPerDie; pl++ {
				if pages[pl] > k {
					mask |= 1 << uint(pl)
				}
			}
			for b, qi := range group {
				if k == 0 {
					out.ibc[qi] += bits.OnesCount64(mask) // the planes that latch qi
				}
				st := ibcStep{qi: qi, rank: b, mask: mask}
				if led.mpibc {
					if led.send(qi, die, ch) {
						st.sent = mask
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						pl := bits.TrailingZeros64(m)
						if led.send(qi, geo.DiePlane(die, pl), ch) {
							st.sent |= 1 << uint(pl)
						}
					}
				}
				steps = append(steps, st)
			}
		}
	}
}

// broadcast issues one planned step to the die: with MPIBC a single
// multi-plane IBC (held when nothing needs to cross the port), without
// it one IBC per plane that does not hold the query yet.
func (d *device) broadcast(db *Database, die int, st ibcStep, qPacked []byte) error {
	if d.scr.ibc.mpibc {
		return d.SSD.Dev.LoadCacheDie(die, st.mask, qPacked, db.slotBytes, st.sent == 0)
	}
	for m := st.sent; m != 0; m &= m - 1 {
		plane := d.scr.ibc.geo.DiePlane(die, bits.TrailingZeros64(m))
		if err := d.SSD.Dev.LoadCache(plane, qPacked, db.slotBytes); err != nil {
			return err
		}
	}
	return nil
}

// addTo accumulates the segment's event counts into st, as coarse- or
// fine-phase work. Waves sum segment by segment: segments of one query
// run one after another on the planes. Every survivor crossed the
// channel as one entryBytes-wide TTL entry.
func (s *segScan) addTo(st *QueryStats, coarse bool, entryBytes int) {
	if coarse {
		st.CoarseWaves += s.waves
		st.CoarsePages += s.pages
		st.CoarseEntries += s.scanned
		st.CoarseSurvivors += s.survivors
	} else {
		st.FineWaves += s.waves
		st.FinePages += s.pages
	}
	st.EntriesScanned += s.scanned
	st.Survivors += s.survivors
	st.PrunedSlots += s.prunedSlots
	st.PrunedPages += s.prunedPages
	st.AbortedWaves += s.abortedWaves
	st.TTLBytes += int64(s.survivors) * int64(entryBytes)
}

// scan runs one round on every device in place: segs[qi] are the global
// slot ranges query qi scans in the centroid (coarse) or binary region,
// under the distance-filter cutoff (< 0: none) — the coarse cut or the
// command's fine-round filter — lbs mirrors segs with each segment's
// proven distance lower bound (nil = none), and bounds[qi] is the query's
// pruning threshold (0 = off).
// Every device's round is dispatched to its die workers before any is
// waited for, so the devices scan side by side without a goroutine of
// their own; only a one-device host runs a lone busy die on this
// goroutine. The host holds every device's lock for the command, so each
// device's scratch and arenas are its dies' alone until waitScan returns.
// Each device's share of a query's events reaches the controller's rows
// when the query is folded (ibc, fold). The lowest-numbered device's
// error is returned.
func (c *controller) scan(ctx context.Context, coarse bool, cutoff int, segs [][]slotRange, lbs [][]int, bounds []int, metaTag *uint8) error {
	devs, inline := c.h.devs, len(c.h.devs) == 1
	var serr error
	started := 0
	for s, d := range devs {
		if serr = d.startScan(ctx, c.db.locals[s], c.scr.packed, coarse, cutoff, segs, lbs, bounds, metaTag, inline); serr != nil {
			break
		}
		started++
	}
	var err error
	for _, d := range devs[:started] {
		if werr := d.waitScan(); err == nil {
			err = werr
		}
	}
	if err == nil {
		err = serr
	}
	return err
}

// ibc adds query qi's broadcasts of the last round to st and to each
// device's row (the controller's rows, when a PerShard caller asks). The
// devices' planes partition the reference device's, so the planes
// latched and the units loaded sum; device s's channel c is the
// reference's channel N·c+s, so the loads on the reference's busiest
// channel are the largest device's. The ledgers count the whole command
// so far, so the loads are set, not added.
func (c *controller) ibc(qi int, st *QueryStats) {
	st.IBCTotalLoads = 0
	for s, d := range c.h.devs {
		planes, loads, total := d.scr.out.ibc[qi], d.scr.ibc.loads[qi], d.scr.ibc.total[qi]
		st.IBCBroadcasts += planes
		st.IBCLoads = max(st.IBCLoads, loads)
		st.IBCTotalLoads += total
		if c.out.rows != nil {
			row := &c.out.rows[s][c.at(qi)]
			row.IBCBroadcasts += planes
			row.IBCLoads, row.IBCTotalLoads = loads, total
		}
	}
}

// fold adds segment (qi, si) of the last round to st and to each
// device's row, and appends its surviving entries to dst straight out of
// the worker arenas, device by device and plane by plane. A query's
// stream is a set — every consumer of it is order-free (the tail selects
// under the (Dist, DADR) total order, the coarse round sorts by
// (Dist, Pos)) — so nothing merges it into position order. Count events
// sum across devices; the wave counts — the segment's parallel critical
// path, real or aborted — aggregate by maximum, which equals the
// reference device's value because per-plane page loads match plane for
// plane. A device's row is its own view of the segment, waves included.
func (c *controller) fold(qi, si int, coarse bool, st *QueryStats, dst []ttlEntry) []ttlEntry {
	eb := c.db.lay.ttlEntryBytes()
	var sum segScan
	for s, d := range c.h.devs {
		out := &d.scr.out
		seg := out.seg(qi, si)
		sum.waves = max(sum.waves, seg.waves)
		sum.abortedWaves = max(sum.abortedWaves, seg.abortedWaves)
		sum.pages += seg.pages
		sum.scanned += seg.scanned
		sum.survivors += seg.survivors
		sum.prunedSlots += seg.prunedSlots
		sum.prunedPages += seg.prunedPages
		if c.out.rows != nil {
			seg.addTo(&c.out.rows[s][c.at(qi)], coarse, eb)
		}
		for _, ps := range out.scans[seg.lo:seg.hi] {
			dst = append(dst, d.pool.scratchOf(ps.plane).arenas[ps.arena][ps.lo:ps.hi]...)
		}
	}
	sum.addTo(st, coarse, eb)
	return dst
}
