package reis

import (
	"math"
	"sort"

	"reis/internal/vecmath"
)

// This file implements the DRAM caching tier above the flash scan path
// (see DESIGN.md, "DRAM caching tier"). A database whose deployment
// config carries ssd.Config.CacheDRAMBytes > 0 owns one dbCache with
// two levels:
//
//   - Hot-cluster cache: binary pages (data + OOB) of the most-probed
//     IVF clusters are pinned in controller DRAM, selected by decayed
//     probe-frequency counters, and scanned with the same
//     XorPopCountSlots kernel the planes run — same distances, same
//     filter and bound predicates, same (Dist, DADR) entry order — so
//     results are bit-identical to the flash scan while the work is
//     reported in the separate CachedPages/CachedSlots counters.
//   - Result cache: a byte-accounted LRU over finished per-query
//     results, keyed on the search opcode, resolved options, and the
//     raw query bits, serving exact repeats at controller cost
//     (ResultCacheHits).
//
// Determinism contract: every cache decision is a pure function of the
// command stream. Counters decay by a fixed factor at the start of each
// IVF search command and increment in cluster-selection order, the pin
// set is a greedy first-fit over (count desc, id asc), and the result
// LRU mutates only on lookups and inserts the single-device reference
// performs identically — so a sharded topology and its N×channels
// reference hold bit-identical cache state at every step. Any mutation
// (append, delete, compact) atomically drops all pinned pages and all
// cached results before the command returns, making a stale hit
// impossible by construction; probe counters survive, so popularity
// re-pins the same clusters from the mutated pages.
const (
	// cacheDecay multiplies every probe counter at each refresh; one
	// refresh happens per IVF search command, so roughly the last few
	// commands dominate the pin choice.
	cacheDecay = 0.75
	// cacheCountFloor zeroes fully-decayed counters so the ranking pass
	// stays proportional to the working set, not the query history.
	cacheCountFloor = 1e-6
	// resultCacheDivisor is the fraction of CacheDRAMBytes reserved for
	// the result cache; the rest pins cluster pages.
	resultCacheDivisor = 8
	// resultCacheHitAccesses is the controller DRAM access count charged
	// per result-cache hit (hash probe plus copying the stored results
	// out of the cache), independent of the workload scale factor.
	resultCacheHitAccesses = 400
)

// pinFetch reads one binary-region page (by global page number) into
// freshly owned buffers — hostCore.fetchPin, from the device that owns
// the page, whose local copy is byte-identical to the reference
// device's (see Engine.install).
type pinFetch func(page int) (data, oob []byte, err error)

// pinnedRange is the DRAM copy of one posting-list slot range.
type pinnedRange struct {
	first, last int // slot positions [first, last], region-global
	firstPage   int
	pages       [][]byte
	oobs        [][]byte
}

// pinnedCluster is the DRAM copy of one cluster's posting list, one
// pinnedRange per SlotRange, in posting-list order.
type pinnedCluster struct {
	ranges []pinnedRange
	bytes  int64
}

// resEntry is one result-cache record on the LRU list.
type resEntry struct {
	key        string
	res        []DocResult
	bytes      int64
	prev, next *resEntry
}

// dbCache is the per-database DRAM caching tier. All methods are
// nil-receiver safe, so call sites stay unconditional; a nil cache
// (CacheDRAMBytes == 0) behaves exactly like the uncached engine.
type dbCache struct {
	pinBudget int64
	resBudget int64
	pageCost  int64 // DRAM bytes per pinned page (page + OOB)

	counts    []float64 // per-cluster decayed probe counters
	pins      map[int]*pinnedCluster
	pinnedLen int64

	res      map[string]*resEntry
	resBytes int64
	lruHead  *resEntry // most recently used
	lruTail  *resEntry

	// scratch
	order  []int
	qRep   []byte
	xorDst []byte
	dists  []int
}

// newDBCache sizes the tier: 1/resultCacheDivisor of the budget goes to
// the result cache, the rest pins cluster pages. nlist is 0 for flat
// databases (result cache only).
func newDBCache(budget int64, pageBytes, oobBytes, nlist int) *dbCache {
	resBudget := budget / resultCacheDivisor
	return &dbCache{
		pinBudget: budget - resBudget,
		resBudget: resBudget,
		pageCost:  int64(pageBytes + oobBytes),
		counts:    make([]float64, nlist),
		pins:      make(map[int]*pinnedCluster),
		res:       make(map[string]*resEntry),
	}
}

// probe records one cluster selection. Called in per-query rank order,
// queries in batch order — the same order on every topology.
func (c *dbCache) probe(cluster int) {
	if c == nil || cluster < 0 || cluster >= len(c.counts) {
		return
	}
	c.counts[cluster]++
}

// pinnedFor returns the pinned copy of a cluster, or nil.
func (c *dbCache) pinnedFor(cluster int) *pinnedCluster {
	if c == nil {
		return nil
	}
	return c.pins[cluster]
}

// refresh runs once at the start of each IVF search command: decay the
// probe counters, recompute the pin set (greedy first-fit over clusters
// by decayed count descending, id ascending, skipping clusters that do
// not fit), drop stale pins and fill new ones through fetch. Pin
// decisions therefore lag the command that makes a cluster hot by one
// command — the fill is modeled as a background prefetch between
// commands and costs nothing in the timing model.
func (c *dbCache) refresh(segsOf func(cluster int) []SlotRange, embPerPage int, fetch pinFetch) error {
	if c == nil || len(c.counts) == 0 || c.pinBudget <= 0 {
		return nil
	}
	order := c.order[:0]
	for i := range c.counts {
		c.counts[i] *= cacheDecay
		if c.counts[i] < cacheCountFloor {
			c.counts[i] = 0
			continue
		}
		order = append(order, i)
	}
	c.order = order
	sort.Slice(order, func(a, b int) bool {
		ca, cb := c.counts[order[a]], c.counts[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	desired := make(map[int]int64, len(order))
	var used int64
	for _, cl := range order {
		cost := c.clusterCost(segsOf(cl), embPerPage)
		if cost == 0 || used+cost > c.pinBudget {
			continue
		}
		desired[cl] = cost
		used += cost
	}
	for cl, pc := range c.pins {
		if _, ok := desired[cl]; !ok {
			c.pinnedLen -= pc.bytes
			delete(c.pins, cl)
		}
	}
	for _, cl := range order {
		cost, ok := desired[cl]
		if !ok {
			continue
		}
		if _, ok := c.pins[cl]; ok {
			continue
		}
		pc := &pinnedCluster{bytes: cost}
		for _, r := range segsOf(cl) {
			pr, err := fillRange(r.First, r.Last, embPerPage, fetch)
			if err != nil {
				return err
			}
			pc.ranges = append(pc.ranges, pr)
		}
		c.pins[cl] = pc
		c.pinnedLen += cost
	}
	return nil
}

// clusterCost is the DRAM bytes pinning a cluster's posting list costs.
func (c *dbCache) clusterCost(segs []SlotRange, embPerPage int) int64 {
	var pages int64
	for _, r := range segs {
		pages += int64(r.Last/embPerPage - r.First/embPerPage + 1)
	}
	return pages * c.pageCost
}

func fillRange(first, last, embPerPage int, fetch pinFetch) (pinnedRange, error) {
	fp, lp := first/embPerPage, last/embPerPage
	pr := pinnedRange{first: first, last: last, firstPage: fp}
	for p := fp; p <= lp; p++ {
		data, oob, err := fetch(p)
		if err != nil {
			return pr, err
		}
		pr.pages = append(pr.pages, data)
		pr.oobs = append(pr.oobs, oob)
	}
	return pr, nil
}

// cachedScanParams carries the per-query predicates of a pinned scan —
// the same predicates, in the same order, the in-plane scan applies. The
// controller fills it.
type cachedScanParams struct {
	filter    bool
	threshold int
	metaTag   *uint8
	bound     int
}

// scanPinned scans one pinned range from DRAM, mirroring scanPlane slot
// for slot: XOR + popcount distances, padding-slot skip, distance
// filter (dist <= threshold, the PassFail predicate), metadata tag, and
// the strict pruning-bound drop. Entries are appended to dst ascending
// by Pos — the order the per-plane merge produces for the same range —
// and the page/slot counts feed CachedPages/CachedSlots. Pinned
// segments never use the segment-level lb abort: the pages are already
// resident, so the scan always runs under the current bound, which
// keeps the surviving-entry stream a superset of what an aborted flash
// segment would have contributed (and therefore the rerank pool
// identical).
func (c *dbCache) scanPinned(pr *pinnedRange, packed []byte, f *pageFormat, p cachedScanParams, dst []TTLEntry) (entries []TTLEntry, pages, slots int) {
	n := f.embPerPage * f.slotBytes
	if cap(c.qRep) < n {
		c.qRep = make([]byte, n)
		c.xorDst = make([]byte, n)
	}
	qRep, xorDst := c.qRep[:n], c.xorDst[:n]
	for off := 0; off < n; off += f.slotBytes {
		copy(qRep[off:off+f.slotBytes], packed)
	}
	if cap(c.dists) < f.embPerPage {
		c.dists = make([]int, f.embPerPage)
	}
	dists := c.dists[:f.embPerPage]
	firstPage, lastPage := pr.first/f.embPerPage, pr.last/f.embPerPage
	for pg := firstPage; pg <= lastPage; pg++ {
		data := pr.pages[pg-pr.firstPage]
		oob := pr.oobs[pg-pr.firstPage]
		pages++
		lo, hi := 0, f.embPerPage-1
		if pg == firstPage {
			lo = pr.first % f.embPerPage
		}
		if pg == lastPage {
			hi = pr.last % f.embPerPage
		}
		vecmath.XorPopCountSlots(xorDst, data[:n], qRep, f.slotBytes, lo, hi-lo+1, dists)
		for s := lo; s <= hi; s++ {
			dist := dists[s-lo]
			l, ok := parseLink(oob, s)
			if !ok {
				continue // cluster-alignment padding slot
			}
			slots++
			if p.filter && dist > p.threshold {
				continue
			}
			if p.metaTag != nil && l.tag != *p.metaTag {
				continue
			}
			if p.bound > 0 && dist > p.bound {
				continue
			}
			dst = append(dst, TTLEntry{
				Dist: dist, Pos: pg*f.embPerPage + s, DADR: l.dadr, RADR: l.radr, Tag: l.tag,
			})
		}
	}
	return dst, pages, slots
}

// resultKey encodes everything a per-query result depends on: the
// opcode kind, k, the resolved options, and the raw float32 bits of the
// query. The cache is per-database, so the db id is implicit.
func resultKey(op uint8, k int, opt SearchOptions, query []float32) string {
	buf := make([]byte, 0, 12+4*len(query))
	var flags uint8
	if opt.MetaTag != nil {
		flags |= 1
	}
	if opt.SkipDocs {
		flags |= 2
	}
	if opt.Prune {
		flags |= 4
	}
	tag := uint8(0)
	if opt.MetaTag != nil {
		tag = *opt.MetaTag
	}
	buf = append(buf, op, flags, tag,
		byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
		byte(opt.NProbe), byte(opt.NProbe>>8), byte(opt.NProbe>>16), byte(opt.NProbe>>24))
	for _, f := range query {
		v := math.Float32bits(f)
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// lookupResult returns a deep copy of the cached results for key, if
// present, and marks the entry most recently used.
func (c *dbCache) lookupResult(key string) ([]DocResult, bool) {
	if c == nil {
		return nil, false
	}
	en, ok := c.res[key]
	if !ok {
		return nil, false
	}
	c.moveFront(en)
	return copyResults(en.res), true
}

// storeResult inserts a deep copy of res under key, evicting from the
// LRU tail until the byte budget holds. Oversized entries are skipped.
func (c *dbCache) storeResult(key string, res []DocResult) {
	if c == nil || c.resBudget <= 0 {
		return
	}
	cp := copyResults(res)
	bytes := resultBytes(key, cp)
	if bytes > c.resBudget {
		return
	}
	if en, ok := c.res[key]; ok {
		c.resBytes += bytes - en.bytes
		en.res, en.bytes = cp, bytes
		c.moveFront(en)
	} else {
		en := &resEntry{key: key, res: cp, bytes: bytes}
		c.res[key] = en
		c.resBytes += bytes
		c.pushFront(en)
	}
	for c.resBytes > c.resBudget && c.lruTail != nil {
		ev := c.lruTail
		c.unlink(ev)
		delete(c.res, ev.key)
		c.resBytes -= ev.bytes
	}
}

// invalidate atomically drops every pinned page and cached result; the
// probe counters survive, so popularity re-pins from the mutated data.
// Runs inside the mutation command, before its response is built.
func (c *dbCache) invalidate() {
	if c == nil {
		return
	}
	clear(c.pins)
	c.pinnedLen = 0
	clear(c.res)
	c.resBytes = 0
	c.lruHead, c.lruTail = nil, nil
}

func (c *dbCache) pushFront(en *resEntry) {
	en.prev, en.next = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = en
	}
	c.lruHead = en
	if c.lruTail == nil {
		c.lruTail = en
	}
}

func (c *dbCache) unlink(en *resEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.lruHead = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.lruTail = en.prev
	}
	en.prev, en.next = nil, nil
}

func (c *dbCache) moveFront(en *resEntry) {
	if c.lruHead == en {
		return
	}
	c.unlink(en)
	c.pushFront(en)
}

func copyResults(res []DocResult) []DocResult {
	cp := make([]DocResult, len(res))
	for i, r := range res {
		cp[i] = r
		if r.Doc != nil {
			cp[i].Doc = append([]byte(nil), r.Doc...)
		}
	}
	return cp
}

func resultBytes(key string, res []DocResult) int64 {
	b := int64(len(key))
	for _, r := range res {
		b += 32 + int64(len(r.Doc))
	}
	return b
}
