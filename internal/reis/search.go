package reis

import (
	"cmp"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// ttlEntry is one Temporal Top List record (Sec 4.2.1, structure C in
// Fig 4) as controller DRAM holds it: the distance, the embedding's
// mini-page position (EADR), and the linkage addresses picked up from the
// OOB area during the scan. It is 16 bytes — the wire's address widths,
// with DIST widened from 2 to 4 bytes and no TAG: the die filters on the
// tag before the transfer and nothing downstream reads it. Pos is read
// only on a centroid entry, where it is the cluster index (cmpTTLDistPos,
// selectClusters); a fine entry is ranked by (Dist, DADR) and reranked
// from RADR. A position is an int32, as in the id map, so the database
// hands out no more than 2^31 of them (maxSlotPositions). ttlEntryBytes
// prices the on-channel format.
//
// Candidate selection ranks TTL entries under the (Dist, DADR) total
// order: Hamming distance first, the document's id (DADR) as the
// tie-break. DADR is stable for a document's whole lifetime (unlike Pos, which
// compaction rewrites), so the order — and with it every selection
// boundary, pruning decision and final result — is deterministic
// across scan topologies, queue schedules and GC interleavings.
type ttlEntry struct {
	Dist int32
	Pos  int32 // embedding position in the binary region (mini-page address)
	DADR uint32
	RADR uint32
}

// QueryStats counts the device events of one query; the timing and
// energy models consume it.
type QueryStats struct {
	// CoarseWaves/FineWaves are the maximum pages any single plane
	// read during the phase (the parallel critical path).
	CoarseWaves int
	FineWaves   int
	// CoarsePages/FinePages are total pages sensed.
	CoarsePages int
	FinePages   int
	// EntriesScanned is the number of embedding slots distance-checked.
	EntriesScanned int
	// Survivors is the number of TTL entries transferred to controller
	// DRAM (after distance filtering, if enabled).
	Survivors int
	// TTLBytes is the total bytes those entries occupied on channels.
	TTLBytes int64
	// RerankCount / RerankPages cover the INT8 rescoring stage.
	RerankCount int
	RerankPages int
	RerankWaves int
	// DocPages/DocBytes cover document retrieval.
	DocPages int
	DocBytes int64
	// IBCBroadcasts counts the plane cache latches the query was
	// broadcast into, summed over the command's scan rounds (a plane that
	// scans the query in two rounds counts twice). Reported only; the
	// timing model charges IBCLoads.
	IBCBroadcasts int
	// IBCLoads is the number of latch loads the query's broadcast sends
	// through the die ports of the busiest channel during the command:
	// the distinct dies it scans there with MPIBC (one load, latched by
	// all of a die's planes, Sec 4.3.4), the distinct planes without.
	// Channels load in parallel, so this — not the total — is the
	// broadcast's time. A per-device row carries that device's busiest
	// channel and the aggregate the largest row, which is the N×-channels
	// reference device's value. Re-sends forced when another query of a
	// coalesced group overwrote a latch between rounds are not counted:
	// like every other field, it depends on the query alone.
	IBCLoads int
	// IBCTotalLoads is the same count over every channel: the distinct
	// units the query loaded on the device, each a latch of bytes through
	// a die port. It is the broadcast's energy, as IBCLoads is its time. A
	// per-device row carries that device's, the aggregate their sum.
	IBCTotalLoads int
	// SelectInput is the number of entries fed to quickselect.
	SelectInput int
	// SortedEntries is the number of entries quicksorted at the end.
	SortedEntries int
	// CoarseEntries is the number of centroids the coarse phase ranked:
	// its share of EntriesScanned, summed over its rounds (one, or two
	// when the coarse cut re-issues it).
	CoarseEntries int
	// CoarseSurvivors is the number of TTL-C entries that crossed the
	// channel: every centroid ranked, unless the coarse cut held some
	// back. Survivors - CoarseSurvivors are fine-scan survivors.
	CoarseSurvivors int
	// PrunedPages counts pages a pruned search (SearchOptions.Prune)
	// never sensed because a whole segment's centroid-distance lower
	// bound exceeded the query's top-k threshold. They are NOT folded
	// into CoarsePages/FinePages: those keep counting sensed pages
	// only, so page-based gates stay meaningful.
	PrunedPages int
	// AbortedWaves is the parallel-critical-path analogue of
	// PrunedPages: the wave count the aborted segments would have
	// added (max pages on any one plane, aggregated like FineWaves).
	AbortedWaves int
	// PrunedSlots counts slots whose distance was computed but whose
	// TTL transfer the threshold suppressed (they could not enter the
	// rerank pool); disjoint from Survivors. A pinned slot the
	// controller's scan drops at the bound counts the same way.
	PrunedSlots int
	// CachedPages/CachedSlots count pages and slots scanned from the
	// DRAM hot-cluster cache instead of flash. They are NOT folded into
	// FinePages/EntriesScanned — those keep counting flash work only, so
	// the page-partition invariant (CachedPages + flash FinePages ==
	// uncached FinePages) is checkable and the timing model can cost
	// DRAM reads instead of flash sense+transfer.
	CachedPages int
	CachedSlots int
	// ResultCacheHits is 1 when the whole query was served from the
	// result cache (every other counter is then zero).
	ResultCacheHits int
}

// Add accumulates other into s (for batch reporting).
func (s *QueryStats) Add(o QueryStats) {
	s.CoarseWaves += o.CoarseWaves
	s.FineWaves += o.FineWaves
	s.CoarsePages += o.CoarsePages
	s.FinePages += o.FinePages
	s.EntriesScanned += o.EntriesScanned
	s.Survivors += o.Survivors
	s.TTLBytes += o.TTLBytes
	s.RerankCount += o.RerankCount
	s.RerankPages += o.RerankPages
	s.RerankWaves += o.RerankWaves
	s.DocPages += o.DocPages
	s.DocBytes += o.DocBytes
	s.IBCBroadcasts += o.IBCBroadcasts
	s.IBCLoads += o.IBCLoads
	s.IBCTotalLoads += o.IBCTotalLoads
	s.SelectInput += o.SelectInput
	s.SortedEntries += o.SortedEntries
	s.CoarseEntries += o.CoarseEntries
	s.CoarseSurvivors += o.CoarseSurvivors
	s.PrunedPages += o.PrunedPages
	s.AbortedWaves += o.AbortedWaves
	s.PrunedSlots += o.PrunedSlots
	s.CachedPages += o.CachedPages
	s.CachedSlots += o.CachedSlots
	s.ResultCacheHits += o.ResultCacheHits
}

// DocResult is one retrieved document chunk. Result slices are sorted
// by (Dist, ID) — the post-rerank analogue of the scan-side
// (Dist, DADR) order on ttlEntry, and deterministic for the same
// reason.
type DocResult struct {
	// ID is the original database entry id (decoded from DADR).
	ID int
	// Dist is the reranked INT8 squared-L2 distance.
	Dist float32
	// Doc is the document chunk content: a read-only view of the flash
	// page it was read from, one slot wide, shared with the result cache
	// and with every response that served it. It stays valid after the
	// response's Release, and must never be written; appending to it
	// reallocates.
	Doc []byte
}

// SearchOptions modify a single query.
type SearchOptions struct {
	// NProbe is the number of IVF clusters scanned (IVF_Search only).
	NProbe int
	// MetaTag, when non-nil, enables metadata filtering (Sec 7.1):
	// only embeddings whose OOB tag equals *MetaTag are considered.
	MetaTag *uint8
	// SkipDocs skips the document-retrieval stage (pure-ANNS
	// benchmarks like SIFT/DEEP).
	SkipDocs bool
	// Prune opts into threshold-propagated top-k pruning: the scan
	// runs in rounds, and after each round the controller tightens a
	// per-query distance bound (the pool-th smallest live distance so
	// far) that lets planes skip TTL transfers and whole segments that
	// cannot beat it. Results are bit-identical to the unpruned path;
	// scan stats differ (fewer pages/waves/survivors, plus the
	// PrunedPages/AbortedWaves/PrunedSlots counters) but stay
	// topology-equal among pruned runs. See DESIGN.md, "Threshold
	// propagation and pruning".
	Prune bool
}

// deviceScratch holds the device-owned pooled buffers of the scan
// pipeline: the round's dispatch structures and outcome. The device
// serves one scan at a time (its lock holder owns the scratch), so these
// recycle across rounds without further locking, and scratch memory
// never escapes: entries leave through a fold into the host's buffers.
type deviceScratch struct {
	spans     []ssd.PlaneSpan
	planeWork [][]batchItem
	busy      []int // the dies with work this round
	parts     []int // the round's queries with pages here, ascending: a page-major round's group
	ibc       ibcLedger
	round     scanRound
	out       scanOut
}

// pageIdx pairs a record's flash page and slot with a candidate index;
// sorting a pooled []pageIdx replaces the map-based page grouping of the
// controller tail (deterministic iteration order, no steady-state
// allocation).
type pageIdx struct {
	page, slot, idx int
}

func cmpPageIdx(a, b pageIdx) int {
	if a.page != b.page {
		return a.page - b.page
	}
	return a.idx - b.idx
}

// cmpTTLDistPos orders centroid entries by distance, position breaking
// ties — a total order (positions are unique), so the unstable sort is
// deterministic.
func cmpTTLDistPos(a, b ttlEntry) int {
	if a.Dist != b.Dist {
		return cmp.Compare(a.Dist, b.Dist)
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// cmpDocResult orders reranked results by distance, id breaking ties —
// a total order (ids are unique within a candidate set).
func cmpDocResult(a, b DocResult) int {
	if a.Dist != b.Dist {
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	return a.ID - b.ID
}

// planeScan records one per-plane scan task's outcome: the window of
// one of the owning worker's entry arenas holding the surviving entries
// plus the event counts the task may not write into the shared
// QueryStats directly. The window is stored as offsets rather than a
// slice so arena growth by later tasks never invalidates it.
type planeScan struct {
	plane     int
	arena     int // index into the worker's arenas
	lo, hi    int // entry window [lo, hi) in that arena
	pages     int
	scanned   int
	survivors int
	pruned    int // slots whose TTL transfer the pruning bound suppressed
}

// sense reads local page p of the round's region into its plane's
// sensing latch and pulls the latch's whole OOB area into oob (grown if
// needed) — one latch access per page instead of one per slot, valid
// until the plane's next read.
func (r *scanRound) sense(p int, oob []byte) (flash.Address, []byte, error) {
	d, geo := r.d, r.d.SSD.Cfg.Geo
	addr, err := r.region.AddressOf(geo, p)
	if err != nil {
		return addr, oob, err
	}
	if err := d.SSD.Dev.ReadPage(addr); err != nil {
		return addr, oob, err
	}
	oob, err = d.SSD.Dev.ReadOOB(addr.PlaneIndex(geo), oob)
	return addr, oob, err
}

// dist computes item it's slots of sensed local page p (at addr, its OOB
// in oob) against the query in the plane's cache latch: one
// page-granular GEN_DIST_PAGE wave (fused latch XOR + per-slot fail-bit
// counts into the worker's distance buffer), optional pass/fail distance
// filtering against the round's threshold (< 0: none — the fine round's
// filter cutoff, or the coarse round's cut), and TTL transfer of
// survivors, which are appended to arena and counted in ps. The wave
// reads the sensing latch without changing it, so the latch still holds
// the page for the next query's wave.
//
// it.bound > 0 is the query's current top-k pruning threshold: it rides
// the GEN_DIST_PAGE command into the plane, and slots strictly above
// it skip the TTL transfer (counted in planeScan.pruned). Ties at the
// bound always survive, which — together with the (Dist, DADR)
// total-order selection downstream — is what keeps pruned results
// bit-identical to unpruned ones.
func (r *scanRound) dist(sc *workerScratch, ps *planeScan, arena *[]ttlEntry, it batchItem, p int, addr flash.Address, oob []byte) error {
	d, db := r.d, r.db
	plane := addr.PlaneIndex(d.SSD.Cfg.Geo)
	if cap(sc.dists) < db.embPerPage {
		sc.dists = make([]int, db.embPerPage)
	}
	dists := sc.dists[:db.embPerPage]
	ps.pages++
	loSlot, hiSlot := 0, db.embPerPage-1
	if p == it.first/db.embPerPage {
		loSlot = it.first % db.embPerPage
	}
	if p == it.last/db.embPerPage {
		hiSlot = it.last % db.embPerPage
	}
	if err := d.SSD.Dev.GenDistPage(plane, db.slotBytes, loSlot, hiSlot-loSlot+1, dists, it.bound); err != nil {
		return err
	}
	// Entries carry global positions: local page p is global page
	// p*stride + start (itself, on one device).
	basePos := (p*db.stride + db.start) * db.embPerPage
	// The pass/fail comparator's checks and the surviving entries are
	// counted here and recorded once per page: one CountPassFail, one
	// RD_TTL moving the page's survivors.
	checks, kept := 0, 0
	for s := loSlot; s <= hiSlot; s++ {
		dist := dists[s-loSlot]
		l, ok := parseLink(oob, s)
		if !ok {
			continue // cluster-alignment padding slot
		}
		ps.scanned++
		if r.threshold >= 0 {
			checks++
			if dist > r.threshold {
				continue
			}
		}
		if r.metaTag != nil && l.tag != *r.metaTag {
			continue
		}
		if it.bound > 0 && dist > it.bound {
			// The entry would have streamed to controller DRAM, but it
			// cannot displace any of the pool's current top distances
			// (strict comparison keeps bound ties, so the rerank pool is
			// unchanged). Skip the transfer.
			ps.pruned++
			continue
		}
		kept++
		*arena = append(*arena, ttlEntry{
			Dist: int32(dist), Pos: int32(basePos + s), DADR: l.dadr, RADR: l.radr,
		})
	}
	if checks > 0 {
		d.SSD.Dev.CountPassFail(checks)
	}
	ps.survivors += kept
	return d.SSD.Dev.ReadTTL(plane, db.ttlEntryBytes(), kept)
}

// ttlEntryBytes is the on-channel size of one TTL entry: DIST (2B) +
// EMB (slotBytes) + EADR mini-page address (4B) + DADR (4B) + RADR
// (4B) + TAG (1B).
func (f *pageFormat) ttlEntryBytes() int { return 2 + f.slotBytes + 4 + 4 + 4 + 1 }

// resizeInts returns s resized to n elements, all zero.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// quickselectTTL partitions entries so the k smallest occupy
// entries[:k] under the (Dist, DADR) total order — the quickselect
// kernel the embedded core runs. Selecting under a total order (rather
// than by Dist alone) makes the rerank pool a pure set function of the
// entry stream: which boundary-tied entries land in the pool no longer
// depends on array layout. Threshold pruning relies on this — a pruned
// stream is a subset of the unpruned one that provably retains every
// pool member, so total-order selection yields the identical pool. The
// tie-break is the document address rather than the scan position
// because background GC relocates embeddings (copy-forward changes
// Pos) while DADR is stable for a document's whole lifetime — so pool
// membership, and with it every search result, is invariant under
// compaction.
func quickselectTTL(es []ttlEntry, k int) {
	if k <= 0 || k >= len(es) {
		return
	}
	lo, hi := 0, len(es)-1
	for lo < hi {
		p := partitionTTL(es, lo, hi)
		if p < k-1 {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// ttlLess is the (Dist, DADR) total order of TTL entries (ids are unique
// within a stream — every embedding slot owns one document — and,
// unlike Pos, survive GC relocation).
func ttlLess(a, b *ttlEntry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.DADR < b.DADR
}

func partitionTTL(es []ttlEntry, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if ttlLess(&es[mid], &es[lo]) {
		es[mid], es[lo] = es[lo], es[mid]
	}
	if ttlLess(&es[hi], &es[lo]) {
		es[hi], es[lo] = es[lo], es[hi]
	}
	if ttlLess(&es[hi], &es[mid]) {
		es[hi], es[mid] = es[mid], es[hi]
	}
	pivot := es[mid]
	i, j := lo, hi
	for {
		for ttlLess(&es[i], &pivot) {
			i++
		}
		for ttlLess(&pivot, &es[j]) {
			j--
		}
		if i >= j {
			return j
		}
		es[i], es[j] = es[j], es[i]
		i++
		j--
	}
}

// calibrateSweep is CalibrateNProbe's sweep: it grows nprobe until
// run's Recall@k against groundTruth meets target. The ground-truth
// membership sets are identical across sweep rounds, so they are built
// once and reused. groundTruth must hold exactly one row per
// swept query (callers slice it to the query count). ok reports
// whether the target was met; the returned nprobe is nlist otherwise.
func calibrateSweep(nlist int, groundTruth [][]int, k int, target float64, run func(nprobe int) ([][]DocResult, error)) (int, bool, error) {
	gtSets := make([]map[int]struct{}, len(groundTruth))
	total := 0
	for qi := range groundTruth {
		gt := groundTruth[qi]
		if len(gt) > k {
			gt = gt[:k]
		}
		set := make(map[int]struct{}, len(gt))
		for _, id := range gt {
			set[id] = struct{}{}
		}
		gtSets[qi] = set
		total += len(gt)
	}
	// The last step is nlist itself, wherever growProbe would step over it.
	for nprobe, prev := 1, 0; prev < nlist; prev, nprobe = nprobe, min(growProbe(nprobe), nlist) {
		results, err := run(nprobe)
		if err != nil {
			return 0, false, err
		}
		hits := 0
		for qi, res := range results {
			for _, r := range res {
				if _, ok := gtSets[qi][r.ID]; ok {
					hits++
				}
			}
		}
		if total > 0 && float64(hits)/float64(total) >= target {
			return nprobe, true, nil
		}
	}
	return nlist, false, nil
}

func growProbe(p int) int {
	if p < 8 {
		return p + 1
	}
	return p + p/4
}
