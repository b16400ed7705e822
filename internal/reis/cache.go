package reis

import (
	"bytes"
	"math"
	"slices"

	"reis/internal/ssd"
	"reis/internal/vecmath"
)

// This file implements the DRAM caching tier above the flash scan path
// (see DESIGN.md, "DRAM caching tier"). A database whose deployment
// config carries ssd.Config.CacheDRAMBytes > 0 owns one dbCache with
// two levels:
//
//   - Hot-cluster cache: binary pages (data + OOB) of the most-probed
//     IVF clusters are pinned in controller DRAM, ranked by decayed
//     probe-frequency counters and admitted only where the timing model
//     says a DRAM scan beats the flash one (refresh: on a device whose
//     planes take a whole probe in one wave, nothing is), and scanned
//     with the same XorPopCountSlots kernel the planes run — same
//     distances, same filter and bound predicates, same (Dist, DADR)
//     entry order — so results are bit-identical to the flash scan while
//     the work is reported in the separate CachedPages/CachedSlots
//     counters. Pinned pages live in an arena of recycled buffers, so a
//     pin set that churns with popularity allocates nothing.
//   - Result cache: a byte-accounted LRU over finished per-query
//     results, keyed on the search opcode, resolved options, and the
//     raw query bits, serving exact repeats at controller cost
//     (ResultCacheHits).
//
// The two share one budget with a moving boundary: pins are admitted up
// to pinBudget (7/8 of CacheDRAMBytes) and the result cache holds
// whatever CacheDRAMBytes - PinnedBytes is now, so a database that pins
// nothing gives its results the whole tier. A fill that grows PinnedBytes
// trims the LRU tail (trim), and PinnedBytes + ResultBytes <=
// CacheDRAMBytes holds after every fill and every insert.
//
// Determinism contract: every cache decision is a pure function of the
// command stream. Counters decay by a fixed factor at the start of each
// IVF search command and increment in cluster-selection order, the pin
// set is a greedy first-fit over (count desc, id asc) of the clusters
// admission passes — decided from global pages and the host's global
// plane count — and the result LRU mutates only on lookups and inserts
// the single-device reference performs identically — so a sharded
// topology and its N×channels reference hold bit-identical cache state
// at every step. Any mutation (append, delete, compact) atomically drops
// all pinned pages and all cached results before the command returns,
// making a stale hit impossible by construction; probe counters and the
// last command's probe width survive, so popularity re-pins the same
// clusters from the mutated pages.
const (
	// cacheDecay multiplies every probe counter at each refresh; one
	// refresh happens per IVF search command, so roughly the last few
	// commands dominate the pin choice.
	cacheDecay = 0.75
	// cacheCountFloor zeroes fully-decayed counters so the ranking pass
	// stays proportional to the working set, not the query history.
	cacheCountFloor = 1e-6
	// resultCacheDivisor caps the pins at 1 - 1/resultCacheDivisor of
	// CacheDRAMBytes; the rest is the floor no pin set takes from the
	// result cache.
	resultCacheDivisor = 8
	// resultCacheHitAccesses is the controller DRAM access count charged
	// per result-cache hit (hash probe plus copying the stored results
	// out of the cache), independent of the workload scale factor.
	resultCacheHitAccesses = 400
)

// pinFetch reads one binary-region page (by global page number) into buf
// — the page's data followed by its OOB — hostCore.fetchPin, from the
// device that owns the page, whose local copy is byte-identical to the
// reference device's (see Engine.install).
type pinFetch func(page int, buf []byte) error

// pinnedRange is the DRAM copy of one posting-list slot range.
type pinnedRange struct {
	first, last int      // slot positions [first, last], region-global
	pages       [][]byte // its pages in order, a window of the cluster's
}

// pinnedCluster is the DRAM copy of one cluster's posting list, one
// pinnedRange per slotRange, in posting-list order. Each page is one
// arena buffer: data, then OOB.
type pinnedCluster struct {
	ranges []pinnedRange
	pages  [][]byte
}

// resEntry is one result-cache record on the LRU list. Its results'
// documents are the read-only views of flash the tail returned, shared
// with every response that served them; the key bytes and the results
// are rewritten in place when an insert recycles the record. chain links
// the records whose keys share a hash (dbCache.res).
type resEntry struct {
	key        []byte
	hash       uint64
	res        []DocResult
	bytes      int64
	prev, next *resEntry
	chain      *resEntry
}

// set copies res's records into the record, in the buffer it already
// holds where that is large enough; the documents are not copied. The
// contents are overwritten, so a short buffer is replaced, not grown
// (growTo's append idiom also allocates its temporary under the race
// detector).
func (en *resEntry) set(res []DocResult) {
	if cap(en.res) < len(res) {
		en.res = make([]DocResult, len(res))
	}
	en.res = en.res[:len(res)]
	copy(en.res, res)
}

// CacheStats is the caching tier's state and the history of its
// decisions since deploy (hostCore.CacheStats): what "why is nothing
// pinned" and "why did that repeat miss" are answered from. Every field
// is a pure function of the command stream, so replicas and topologies
// report identical values.
type CacheStats struct {
	// PinnedBytes and ResultBytes are the controller DRAM pinned cluster
	// pages and the ResultEntries cached results hold now; their sum never
	// exceeds CacheDRAMBytes.
	PinnedBytes, ResultBytes int64
	ResultEntries            int64 // filled by snapshot
	// PinFills and PinEvictions count pages read into pins and pages
	// dropped from them (by a refresh or a mutation's invalidation).
	PinFills, PinEvictions int64
	// Refreshes counts IVF search commands — each re-decides the pin
	// set — and GateShut those the wave gate kept from pinning anything.
	Refreshes, GateShut int64
	// ResultHits and ResultMisses count result-cache lookups.
	// ResultEvictions counts entries dropped — off the LRU tail, or all of
	// them by a mutation's invalidation — and ResultSqueezes those of them
	// a growing pin set pushed out.
	ResultHits, ResultMisses        int64
	ResultEvictions, ResultSqueezes int64
}

// dbCache is the per-database DRAM caching tier. All methods are
// nil-receiver safe, so call sites stay unconditional; a nil cache
// (CacheDRAMBytes == 0) behaves exactly like the uncached engine.
type dbCache struct {
	budget    int64 // CacheDRAMBytes: what pins and results hold together
	pinBudget int64 // the pins' cap
	f         *pageFormat

	// Admission operands (see refresh): the host's global plane count, the
	// core time of one pinned slot and the time one page holds a plane —
	// the timing model's own terms, at unit scale.
	planes         int
	slotNs, waveNs float64
	// probePages is the largest per-query probe, in global pages, of the
	// IVF command selecting now — by the next refresh, of the previous one.
	probePages int

	counts []float64        // per-cluster decayed probe counters
	pins   []*pinnedCluster // per cluster; nil when not pinned
	stats  CacheStats
	// The arena: page buffers and cluster records released by eviction,
	// which the next fills take before anything is allocated.
	freePages [][]byte
	freePins  []*pinnedCluster

	// res maps a key's hash (keyHash) to the first record of its chain;
	// nres counts the records on every chain. free holds records that
	// trim evicted or invalidate dropped, for inserts to recycle; they
	// hold freeBytes of the budget's accounting, and trim drops them
	// while the live results and they overrun what the pins leave.
	res       map[uint64]*resEntry
	nres      int64
	lruHead   *resEntry // most recently used
	lruTail   *resEntry
	free      []*resEntry
	freeBytes int64

	// scratch
	order []int
	want  []bool // refresh: clusters admitted this time
	key   []byte
	dists []int
}

// newDBCache sizes the tier from the host's single-device-equivalent
// config: pins may take all of the budget but 1/resultCacheDivisor, the
// result cache what they leave. nlist is 0 for flat databases (result
// cache only).
func newDBCache(cfg ssd.Config, f *pageFormat, nlist int) *dbCache {
	return &dbCache{
		budget:    cfg.CacheDRAMBytes,
		pinBudget: cfg.CacheDRAMBytes - cfg.CacheDRAMBytes/resultCacheDivisor,
		f:         f,
		planes:    cfg.Geo.Planes(),
		slotNs:    pinnedSlotNs(cfg, f.slotBytes),
		waveNs:    float64(planeWaveTime(cfg.Flash)),
		counts:    make([]float64, nlist),
		pins:      make([]*pinnedCluster, nlist),
		want:      make([]bool, nlist),
		res:       make(map[uint64]*resEntry),
	}
}

// probe records one cluster selection and returns the pages its posting
// list spans, which the controller sums per query for probed. Called in
// per-query rank order, queries in batch order — the same order on every
// topology.
func (c *dbCache) probe(cluster int, segs []slotRange) int {
	if c == nil || cluster < 0 || cluster >= len(c.counts) {
		return 0
	}
	c.counts[cluster]++
	pages, _ := c.extent(segs)
	return pages
}

// probed closes one query's selection: pages is the sum of its probes.
func (c *dbCache) probed(pages int) {
	if c != nil {
		c.probePages = max(c.probePages, pages)
	}
}

// pinnedFor returns the pinned copy of a cluster, or nil.
func (c *dbCache) pinnedFor(cluster int) *pinnedCluster {
	if c == nil {
		return nil
	}
	return c.pins[cluster]
}

// refresh runs once at the start of each IVF search command: decay the
// probe counters, re-decide the pin set, drop stale pins and fill new
// ones through fetch. Pin decisions therefore lag the command that makes
// a cluster hot by one command — the fill is modeled as a background
// prefetch between commands and costs nothing in the timing model.
//
// Admission is the timing model's arithmetic (timing.go), at unit scale,
// the only scale the engine knows:
//
//   - Wave gate. scanCost charges a fine scan ceil(pages/planes)
//     waves, and a pin cannot shorten one wave. While the previous
//     command's largest per-query probe fits in one (probePages <=
//     planes), nothing is pinned and nothing is ranked.
//   - Share test. Past the gate, clusters are taken greedily by (decayed
//     count desc, id asc) while they fit the budget, and only when
//     scanning the cluster from DRAM holds the one controller core for
//     less time than its pages hold their share of the planes:
//     slots x pinnedSlotNs < pages x planeWaveTime / planes. Padding
//     pages count — a padded page still costs a full sense.
//
// Pages and planes are global (the single-device-equivalent geometry), so
// a sharded host and its N x channels reference hold the same pin set.
func (c *dbCache) refresh(buckets [][]slotRange, fetch pinFetch) error {
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
	c.stats.Refreshes++
	probe := c.probePages
	c.probePages = 0
	if probe <= c.planes {
		c.stats.GateShut++
		c.dropPins()
		return nil
	}
	slices.SortFunc(order, func(a, b int) int {
		if ca, cb := c.counts[a], c.counts[b]; ca != cb {
			if ca > cb {
				return -1
			}
			return 1
		}
		return a - b
	})
	clear(c.want)
	var used int64
	for _, cl := range order {
		pages, slots := c.extent(buckets[cl])
		cost := int64(pages) * c.pageCost()
		if pages == 0 || used+cost > c.pinBudget ||
			float64(slots)*c.slotNs*float64(c.planes) >= float64(pages)*c.waveNs {
			continue
		}
		c.want[cl] = true
		used += cost
	}
	for cl, pc := range c.pins {
		if pc != nil && !c.want[cl] {
			c.release(cl)
		}
	}
	for _, cl := range order {
		if !c.want[cl] || c.pins[cl] != nil {
			continue
		}
		if err := c.fill(cl, buckets[cl], fetch); err != nil {
			return err
		}
	}
	return nil
}

// pageCost is the DRAM bytes of one pinned page (data + OOB).
func (c *dbCache) pageCost() int64 { return int64(c.f.pageBytes + c.f.oobBytes) }

// span is the pages one slot range touches.
func (c *dbCache) span(r slotRange) int {
	return r.Last/c.f.embPerPage - r.First/c.f.embPerPage + 1
}

// extent is the pages a posting list spans and the slots it holds.
func (c *dbCache) extent(segs []slotRange) (pages, slots int) {
	for _, r := range segs {
		pages += c.span(r)
		slots += r.Last - r.First + 1
	}
	return pages, slots
}

// fill pins one cluster — a recycled record and recycled page buffers
// where eviction left any, fresh ones otherwise — and takes the DRAM it
// grew by from the result cache's tail.
func (c *dbCache) fill(cl int, segs []slotRange, fetch pinFetch) error {
	var pc *pinnedCluster
	if n := len(c.freePins); n > 0 {
		pc, c.freePins = c.freePins[n-1], c.freePins[:n-1]
	} else {
		pc = &pinnedCluster{}
	}
	for _, r := range segs {
		for p := r.First / c.f.embPerPage; p <= r.Last/c.f.embPerPage; p++ {
			var buf []byte
			if n := len(c.freePages); n > 0 {
				buf, c.freePages = c.freePages[n-1], c.freePages[:n-1]
			} else {
				buf = make([]byte, c.pageCost())
			}
			pc.pages = append(pc.pages, buf)
			if err := fetch(p, buf); err != nil {
				c.recycle(pc)
				return err
			}
		}
	}
	off := 0
	for _, r := range segs {
		n := c.span(r)
		pc.ranges = append(pc.ranges, pinnedRange{first: r.First, last: r.Last, pages: pc.pages[off : off+n]})
		off += n
	}
	c.pins[cl] = pc
	c.stats.PinFills += int64(len(pc.pages))
	c.stats.PinnedBytes += int64(len(pc.pages)) * c.pageCost()
	squeezed := c.trim(0)
	c.stats.ResultSqueezes += squeezed
	return nil
}

// release unpins a cluster.
func (c *dbCache) release(cl int) {
	pc := c.pins[cl]
	c.pins[cl] = nil
	c.stats.PinEvictions += int64(len(pc.pages))
	c.stats.PinnedBytes -= int64(len(pc.pages)) * c.pageCost()
	c.recycle(pc)
}

// recycle returns a cluster record and its page buffers to the arena.
func (c *dbCache) recycle(pc *pinnedCluster) {
	c.freePages = append(c.freePages, pc.pages...)
	pc.pages, pc.ranges = pc.pages[:0], pc.ranges[:0]
	c.freePins = append(c.freePins, pc)
}

// dropPins releases every pinned cluster.
func (c *dbCache) dropPins() {
	for cl, pc := range c.pins {
		if pc != nil {
			c.release(cl)
		}
	}
}

// cachedScanParams carries the per-query predicates of a pinned scan —
// the same predicates, in the same order, the in-plane scan applies:
// the distance-filter cutoff (-1: none), the metadata tag and the
// pruning bound. The controller fills it.
type cachedScanParams struct {
	threshold int
	metaTag   *uint8
	bound     int
}

// scanPinned scans one pinned range from DRAM, mirroring scanRound.dist
// slot for slot: XOR + popcount distances against the packed query (the
// GEN_DIST_PAGE kernel, vecmath.XorPopCountPattern), padding-slot skip,
// distance filter (dist <= threshold, the PassFail predicate), metadata
// tag, and the strict pruning-bound drop. Entries are appended to dst, the
// query's stream — a set, as a device segment's fold leaves it — the
// page/slot counts feed CachedPages/CachedSlots, and the slots the bound
// drops feed PrunedSlots as the flash scan counts them. Pinned segments never
// use the segment-level lb abort: the pages are already resident, so the
// scan always runs under the current bound, which keeps the
// surviving-entry stream a superset of what an aborted flash segment
// would have contributed (and therefore the rerank pool identical).
func (c *dbCache) scanPinned(pr *pinnedRange, packed []byte, f *pageFormat, p cachedScanParams, dst []ttlEntry) (entries []ttlEntry, pages, slots, pruned int) {
	if cap(c.dists) < f.embPerPage {
		c.dists = make([]int, f.embPerPage)
	}
	dists := c.dists[:f.embPerPage]
	firstPage, lastPage := pr.first/f.embPerPage, pr.last/f.embPerPage
	for pg := firstPage; pg <= lastPage; pg++ {
		data, oob := pr.pages[pg-firstPage][:f.pageBytes], pr.pages[pg-firstPage][f.pageBytes:]
		pages++
		lo, hi := 0, f.embPerPage-1
		if pg == firstPage {
			lo = pr.first % f.embPerPage
		}
		if pg == lastPage {
			hi = pr.last % f.embPerPage
		}
		vecmath.XorPopCountPattern(data, packed, f.slotBytes, lo, hi-lo+1, dists)
		for s := lo; s <= hi; s++ {
			dist := dists[s-lo]
			l, ok := parseLink(oob, s)
			if !ok {
				continue // cluster-alignment padding slot
			}
			slots++
			if p.threshold >= 0 && dist > p.threshold {
				continue
			}
			if p.metaTag != nil && l.tag != *p.metaTag {
				continue
			}
			if p.bound > 0 && dist > p.bound {
				pruned++
				continue
			}
			dst = append(dst, ttlEntry{
				Dist: int32(dist), Pos: int32(pg*f.embPerPage + s), DADR: l.dadr, RADR: l.radr,
			})
		}
	}
	return dst, pages, slots, pruned
}

// resultKey encodes everything a per-query result depends on: the
// opcode kind, k, the resolved options, and the raw float32 bits of the
// query. The cache is per-database, so the db id is implicit. The key is
// built in the cache's one buffer and is good until the next call;
// lookups read it in place and an insert copies it into its record's own
// buffer.
func (c *dbCache) resultKey(op uint8, k int, opt SearchOptions, query []float32) []byte {
	var flags, tag uint8
	if opt.MetaTag != nil {
		flags |= 1
		tag = *opt.MetaTag
	}
	if opt.SkipDocs {
		flags |= 2
	}
	if opt.Prune {
		flags |= 4
	}
	buf := append(c.key[:0], op, flags, tag,
		byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
		byte(opt.NProbe), byte(opt.NProbe>>8), byte(opt.NProbe>>16), byte(opt.NProbe>>24))
	for _, f := range query {
		v := math.Float32bits(f)
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	c.key = buf
	return buf
}

// keyHash is the 64-bit FNV-1a hash of a result key, what the result
// map is keyed on. A variable so that tests can force collisions.
var keyHash = func(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// find returns the record holding key, whose hash is h, or nil: a hash
// collision is settled by comparing the key bytes.
func (c *dbCache) find(key []byte, h uint64) *resEntry {
	en := c.res[h]
	for en != nil && !bytes.Equal(en.key, key) {
		en = en.chain
	}
	return en
}

// forget takes a record out of its hash chain.
func (c *dbCache) forget(en *resEntry) {
	if head := c.res[en.hash]; head == en {
		if en.chain == nil {
			delete(c.res, en.hash)
		} else {
			c.res[en.hash] = en.chain
		}
	} else {
		for head.chain != en {
			head = head.chain
		}
		head.chain = en.chain
	}
	en.chain = nil
	c.nres--
}

// lookupResult returns the cached results for key, if present, and
// marks the entry most recently used. The slice is the cache's own and
// good until the next insert: the caller copies what it keeps.
func (c *dbCache) lookupResult(key []byte) ([]DocResult, bool) {
	en := c.find(key, keyHash(key))
	if en == nil {
		c.stats.ResultMisses++
		return nil, false
	}
	c.stats.ResultHits++
	c.moveFront(en)
	return en.res, true
}

// storeResult inserts a deep copy of res under key. An entry larger than
// the pins leave room for is skipped, uncopied. A new key first evicts
// from the LRU tail what its insert would push past the budget — the
// entries, in the order, that trimming after the insert would evict —
// and takes over the record freed last, with its key, result and
// document buffers, so an insert allocates nothing once records exist.
func (c *dbCache) storeResult(key []byte, res []DocResult) {
	bytes := resultBytes(len(key), res)
	if bytes > c.budget-c.stats.PinnedBytes {
		return
	}
	h := keyHash(key)
	en := c.find(key, h)
	found := en != nil
	if found {
		c.stats.ResultBytes += bytes - en.bytes
		c.moveFront(en)
	} else {
		c.trim(bytes)
		if n := len(c.free); n > 0 {
			en = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
			c.freeBytes -= en.bytes
		} else {
			en = &resEntry{}
		}
		en.key, en.hash = append(en.key[:0], key...), h
		en.chain = c.res[h]
		c.res[h] = en
		c.nres++
		c.stats.ResultBytes += bytes
		c.pushFront(en)
	}
	en.bytes = bytes
	en.set(res)
	if found {
		c.trim(0)
	}
}

// trim evicts from the LRU tail until the results, and room more bytes,
// fit what the pins leave of the budget — the one eviction path, run by
// every insert and every pin fill — and returns how many entries it
// evicted. Evicted records go on the free list, which then gives up
// records, newest first, while the results and it together overrun
// that share.
func (c *dbCache) trim(room int64) (evicted int64) {
	share := c.budget - c.stats.PinnedBytes
	for c.stats.ResultBytes+room > share && c.lruTail != nil {
		en := c.lruTail
		c.unlink(en)
		c.forget(en)
		c.stats.ResultBytes -= en.bytes
		c.free = append(c.free, en)
		c.freeBytes += en.bytes
		evicted++
	}
	c.stats.ResultEvictions += evicted
	for n := len(c.free); n > 0 && c.stats.ResultBytes+c.freeBytes > share; n-- {
		c.freeBytes -= c.free[n-1].bytes
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	}
	return evicted
}

// snapshot is the tier's CacheStats now; nil reports zeros.
func (c *dbCache) snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := c.stats
	s.ResultEntries = c.nres
	return s
}

// invalidate atomically drops every pinned page and cached result; the
// probe counters survive, so popularity re-pins from the mutated data.
// The dropped records go on the free list for later inserts. Runs inside
// the mutation command, before its response is built.
func (c *dbCache) invalidate() {
	if c == nil {
		return
	}
	c.dropPins()
	c.stats.ResultEvictions += c.nres
	for en := c.lruHead; en != nil; {
		next := en.next
		en.prev, en.next, en.chain = nil, nil, nil
		c.free = append(c.free, en)
		en = next
	}
	c.freeBytes += c.stats.ResultBytes
	clear(c.res)
	c.nres = 0
	c.stats.ResultBytes = 0
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

func resultBytes(keyLen int, res []DocResult) int64 {
	return int64(keyLen + 32*len(res) + docBytes(res))
}

// docBytes is the length of a query's documents together.
func docBytes(res []DocResult) (n int) {
	for _, r := range res {
		n += len(r.Doc)
	}
	return n
}
