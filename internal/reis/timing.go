package reis

import (
	"fmt"
	"math"
	"time"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// Scale magnifies a functionally scaled-down run to the paper's full
// dataset size when costing latency and energy. Fine applies to
// dataset-proportional quantities (fine-scan pages, survivors, TTL
// bytes); Coarse applies to the centroid scan, whose size follows
// nlist rather than N (the paper uses nlist = 16384 at 41M+ entries,
// roughly sqrt-proportional). Quantities that do not grow with the
// database (rerank pool, top-k documents) are never scaled; the
// broadcast follows the scaled page counts up to one full broadcast
// (ibcLoads).
type Scale struct {
	Fine   float64
	Coarse float64
	// SurvivorRate, when positive and distance filtering is enabled,
	// overrides linear survivor scaling: the full-scale survivor count
	// becomes scanned*Fine*SurvivorRate. The paper tunes the filter
	// threshold per dataset so ~99% of candidates are discarded at
	// full scale (Sec 4.3.3); our functional run keeps the threshold
	// calibrated for its own (much smaller, more tightly clustered)
	// data, so its pass rate does not extrapolate linearly.
	SurvivorRate float64
}

// UnitScale costs the run exactly as executed.
func UnitScale() Scale { return Scale{Fine: 1, Coarse: 1} }

// Breakdown is the per-query latency decomposition the timing model
// produces from a QueryStats. All durations are for one query.
type Breakdown struct {
	IBC      time.Duration // query broadcast into the planes
	Coarse   time.Duration // centroid scan phase
	Fine     time.Duration // in-cluster scan phase
	Rerank   time.Duration // INT8 fetch + rescore + quicksort
	Docs     time.Duration // document page reads + host transfer
	Total    time.Duration
	EnergyJ  float64 // total energy for the query, joules
	AvgWatts float64 // EnergyJ / Total
}

// The model is written once, for a host over N ≥ 1 devices (host.go).
// The scan phases run on the devices in parallel — a query's scan time
// is the slowest device's, computed from that device's own events under
// its own configuration (its waves are its local critical path), and TTL
// handling (DRAM streaming + quickselect of a device's survivors) is
// attributed to the device that produced the entries, mirroring where
// the bytes move — while the controller tail (INT8 rerank, quicksort,
// document retrieval) and the caching tier are costed once, on the
// single-device-equivalent configuration. On one device the max and the
// sums are over one term and the two configurations coincide: that case
// is Engine.Latency.

// Latency converts the event counts of one query into a latency and
// energy estimate under the engine's options and the given scale — the
// host's timing model over this one device, whose scan events are the
// query's own.
//
// Waves are recomputed from scaled page counts (pages spread evenly
// across planes by the parallelism-first layout), so wave quantization
// at small functional scale does not distort full-scale estimates.
func (e *Engine) Latency(db *Database, st QueryStats, sc Scale) Breakdown {
	b, _, _ := e.price(db, st, []QueryStats{st}, sc, nil)
	return b
}

// Latency converts one query's aggregated events (st) and per-shard
// scan events (perShard[s], as returned in HostResponse.PerShard) into
// a latency and energy estimate: max-over-shards scan time plus the
// gather tail. The IBC/Coarse/Fine components report the critical
// (slowest) shard's decomposition.
func (sh *ShardedEngine) Latency(dbID int, st QueryStats, perShard []QueryStats, sc Scale) (Breakdown, error) {
	db, err := sh.hostDB(dbID)
	if err != nil {
		return Breakdown{}, err
	}
	if len(perShard) != len(sh.devs) {
		return Breakdown{}, fmt.Errorf("reis: %d per-shard stats for %d shards", len(perShard), len(sh.devs))
	}
	b, _, _ := sh.price(db.locals[0], st, perShard, sc, nil)
	return b, nil
}

// busy is the time one query holds each of the three resources a batch
// contends for:
//
//   - plane: array reads plus the in-plane latch compute, for the scan
//     phases and the TLC rerank/document reads. Pages every query of a
//     batch senses (an IVF scan's centroids, a flat scan's every page)
//     hold the same planes for each, so their whole waves stack (plane).
//     A query's own pages (an IVF fine scan, the tail) fall on planes
//     other queries may leave idle: they are kept as plane-time over the
//     planes they fall on, the mean plane's share (spread), and as whole
//     waves, the query's own critical plane (waves). busiestPlane turns a
//     batch's sums into its busiest plane;
//   - channel: the IBC broadcast in, TTL entries, rerank embeddings and
//     document bytes out (internal), and the host transfer;
//   - core: controller quickselect + TTL DRAM traffic, INT8 rerank, the
//     final quicksort, and caching-tier work.
//
// A device's shared rounds are tallied besides (shared[r], the queries'
// r-th shared round), so that a batch can run them page-major
// (pageMajor).
type busy struct {
	plane, spread, waves, channel, core time.Duration
	shared                              [2]sharedRound
}

func (b *busy) add(o busy) {
	b.plane += o.plane
	b.spread += o.spread
	b.waves += o.waves
	b.channel += o.channel
	b.core += o.core
	for r := range b.shared {
		b.shared[r].add(o.shared[r])
	}
}

// sharedRound tallies one shared round of a batch on one device: a round
// whose every query scans the same pages — the coarse round, where every
// query ranks every centroid (its re-issue is a second one), or a flat
// round, where every query scans the live plan. It counts the queries
// that take part, their pages and waves summed and the most any one
// senses, and the latch loads each loop order sends them, on the busiest
// channel (loads) and on every channel (units); index 0 is query-major,
// 1 page-major.
type sharedRound struct {
	q            int
	pages, most  float64
	waves        int
	loads, units [2]int
}

func (r *sharedRound) add(o sharedRound) {
	r.q += o.q
	r.pages += o.pages
	r.most = max(r.most, o.most)
	r.waves += o.waves
	for m := range r.loads {
		r.loads[m] += o.loads[m]
		r.units[m] += o.units[m]
	}
}

// joinRound adds a query that senses pages pages in shared round r.
// Query-major, the query's latches are loaded once for the round: on
// each channel one unit per perLoad pages, up to the full broadcast.
// Page-major, each wave senses its pages once and cycles the round's
// queries through the cache latches, so every query is loaded again for
// every wave: W−1 full waves of every unit, and a last wave of rest
// pages.
func (d *device) joinRound(r *sharedRound, pages float64) {
	geo := d.SSD.Cfg.Geo
	planes, perLoad, full := float64(geo.Planes()), d.pagesPerLoad(), d.fullIBCLoads()
	w := ceilF(pages / planes)
	rest := pages - float64(w-1)*planes
	r.add(sharedRound{
		q: 1, pages: pages, most: pages, waves: w,
		loads: [2]int{min(ceilF(pages/perLoad), full), (w-1)*full + ceilF(rest/perLoad)},
		units: [2]int{min(d.loadUnits(pages), full*geo.Channels), (w-1)*full*geo.Channels + d.loadUnits(rest)},
	})
}

// pageMajor decides the loop order of shared round r — the device calls
// it with the round's functional pages before it scans, batchLatency with
// the priced pages of a batch — and returns what page-major changes
// against query-major. Query-major, the default, runs each query's scan
// of the round to its end before the next query's: every query senses
// every page. Page-major senses a page once and then runs every query of
// the round against the sensing latch, each with its own latch load and
// GEN_DIST_PAGE (the distance wave leaves the sensing latch as it found
// it). The round's busiest plane drops from q·W·wave to W·tR +
// q·W·(wave − tR), and its busiest channel takes the loads of every wave,
// not of the round. Page-major is chosen iff the round's max(plane,
// channel) is strictly lower under it, so a lone query never changes.
// The die senses only SLC-ESP pages, whose raw bit error rate is zero
// (flash.Device.ReadPage refuses any other), so one sense leaves the
// latch q senses would and results cannot move. dPlane and
// dChannel are the round's change in plane and channel occupancy, and
// dJoules in energy: the senses saved, the loads added.
func (d *device) pageMajor(r sharedRound) (ok bool, dPlane, dChannel time.Duration, dJoules float64) {
	p := d.SSD.Cfg.Flash
	if r.q < 2 {
		return false, 0, 0, 0
	}
	tR, wave := p.ReadLatency(flash.ModeSLCESP), planeWaveTime(p)
	qmPlane := time.Duration(r.waves) * wave
	pmPlane := time.Duration(ceilF(r.most/float64(d.SSD.Cfg.Geo.Planes())))*tR + time.Duration(r.waves)*(wave-tR)
	qmChannel, pmChannel := d.ibcTime(r.loads[0]), d.ibcTime(r.loads[1])
	if max(pmPlane, pmChannel) >= max(qmPlane, qmChannel) {
		return false, 0, 0, 0
	}
	dJoules = float64((r.units[1]-r.units[0])*d.SSD.Cfg.Geo.PageBytes)*p.EnergyXferPerByte - (r.pages-r.most)*p.EnergyReadPage
	return true, pmPlane - qmPlane, pmChannel - qmChannel, dJoules
}

// busiestPlane is a batch's plane column from its summed occupancy b on
// n planes, where unit is one sense's plane time: the waves every query
// stacks, plus its own pages' share of the busiest plane. b.spread puts
// μ = b.spread/unit of those on every plane; they land on the planes by
// page number, which across the queries of a batch is as good as at
// random, so the busiest of the n planes carries about μ + √(2μ ln n).
// It never carries more than b.waves, every query's critical plane
// stacked on the same one.
func busiestPlane(b busy, unit time.Duration, n float64) time.Duration {
	mean := float64(b.spread)
	excess := math.Sqrt(2 * mean * float64(unit) * math.Log(n))
	return b.plane + min(time.Duration(mean+excess), b.waves)
}

// price is the per-query model: db is any device's slice of the
// database (the layout constants agree on all of them), perDev[s] device
// s's scan events of the query. Every device's share is extrapolated
// once (scanEvents) and priced once (scanCost), the host's tail once
// (tailCost); the Breakdown, the occupancies and the energy are readings
// of those. Besides the Breakdown it returns the host's occupancy, adds
// device s's to scan[s] (when the caller keeps them: a batch does), and
// returns the query's per-event energy, without the idle draw
// BatchLatency pays once per batch instead.
func (c *hostCore) price(db *Database, st QueryStats, perDev []QueryStats, sc Scale, scan []busy) (b Breakdown, host busy, events float64) {
	for s, d := range c.devs {
		dev := d.scanCost(db, d.scanEvents(db, perDev[s], sc))
		if dev.ibc+dev.coarse+dev.fine > b.IBC+b.Coarse+b.Fine {
			b.IBC, b.Coarse, b.Fine = dev.ibc, dev.coarse, dev.fine
		}
		if scan != nil {
			scan[s].add(dev.busy)
		}
		events += dev.joules
	}
	// Cached work (pinned-cluster scans, result-cache hits) is served by
	// the host, not any device; its stats appear only in the aggregate
	// st, never in a per-device row.
	tail := tailCost(c.cfg, db, st, sc)
	b.Fine += tail.cached
	b.Rerank, b.Docs = tail.rerank, tail.docs
	b.Total = b.IBC + b.Coarse + b.Fine + b.Rerank + b.Docs
	events += tail.joules
	// Every device idles for the duration of the query.
	b.EnergyJ = events + float64(len(c.devs))*c.cfg.IdlePower*b.Total.Seconds()
	if b.Total > 0 {
		b.AvgWatts = b.EnergyJ / b.Total.Seconds()
	}
	return b, tail.busy, events
}

// scanEvents is one device's share of one query's scan at the priced
// scale: what scanCost charges, and all it charges.
type scanEvents struct {
	coarsePages, finePages float64 // SLC-ESP senses, per phase
	coarseRounds           int     // coarse rounds: 2 when the coarse cut re-issued the query
	coarseEntries          float64 // TTL-C entries that crossed the channel (all, unless the coarse cut held some back)
	fineSurvivors          float64 // TTL entries the fine scan sends to the controller
	ibcLoads               int     // latch loads on the busiest channel
	ibcTotalLoads          int     // latch loads on every channel
}

// scanEvents extrapolates the device's own events st to scale sc.
//
// Pages: at scale 1 the functional page count (which includes
// cluster-alignment padding pages) is authoritative; at larger scales
// pages follow the scaled entry count, because padding is a small-scale
// artifact (a full-scale cluster of thousands of embeddings wastes at
// most one partial page) — but never below the functional count: reads
// that happened, happened.
//
// TTL-C entries: the ones that crossed (QueryStats.CoarseSurvivors —
// every centroid, unless the coarse cut held some back), scaled by
// sc.Coarse: paper scale pays the functional run's pass fraction of its
// nlist. Pages follow the centroids ranked (CoarseEntries), both rounds
// of a re-issued query, and so do the rounds: a round ranks every
// centroid the device holds, and the second senses the first's pages
// again after it, so each round is its own waves (scanCost) but loads no
// latch the first did not.
//
// IBC loads: as executed (no scale above 1) the device's own count,
// QueryStats.IBCLoads: the distinct dies — or planes, without MPIBC — the
// query scanned on its busiest channel; zero for a query that scanned no
// flash page here (a result-cache hit, a fully pinned or compacted-away
// plan, a shard owning none of the pages), which never issued the
// broadcast. At paper scale the scan touches more pages than the
// functional run did, spread the way the plane order stripes them
// (Channels consecutive pages on Channels channels, Channels ×
// PlanesPerDie on one die of each): a phase of n pages loads ⌈n /
// (Channels × planes per load)⌉ units per channel, the same even spread
// scanCost turns into waves. Never below the functional count, never
// above the full broadcast. The total over the channels — what the
// broadcast's energy charges — is the device's own count as executed,
// and at paper scale the units the same spread loads on all channels:
// never below the functional count, never above the full broadcast on
// every channel.
func (d *device) scanEvents(db *Database, st QueryStats, sc Scale) scanEvents {
	pages := func(pages, entries int, scale float64) float64 {
		if scale <= 1 {
			return float64(pages)
		}
		return max(float64(pages), float64(entries)*scale/float64(db.embPerPage))
	}
	fineScanned := st.EntriesScanned - st.CoarseEntries
	ev := scanEvents{
		coarsePages:   pages(st.CoarsePages, st.CoarseEntries, sc.Coarse),
		coarseRounds:  max(1, ceilDiv(st.CoarseEntries, max(1, db.centroidSlots()))),
		finePages:     pages(st.FinePages, fineScanned, sc.Fine),
		coarseEntries: float64(st.CoarseSurvivors) * sc.Coarse,
		fineSurvivors: float64(st.Survivors-st.CoarseSurvivors) * sc.Fine,
		ibcLoads:      st.IBCLoads,
		ibcTotalLoads: st.IBCTotalLoads,
	}
	if d.Opts.DistanceFilter && sc.SurvivorRate > 0 {
		ev.fineSurvivors = float64(fineScanned) * sc.Fine * sc.SurvivorRate
	}
	if sc.Coarse > 1 || sc.Fine > 1 {
		perLoad := d.pagesPerLoad()
		roundPages := ev.coarsePages / float64(ev.coarseRounds)
		spread := ceilF(roundPages/perLoad) + ceilF(ev.finePages/perLoad)
		full := d.fullIBCLoads()
		ev.ibcLoads = min(max(st.IBCLoads, spread), full)
		ev.ibcTotalLoads = max(st.IBCTotalLoads, min(d.loadUnits(roundPages)+d.loadUnits(ev.finePages), full*d.SSD.Cfg.Geo.Channels))
	}
	return ev
}

// pagesPerLoad is the pages one latch load per channel reaches, on the
// even spread of the plane order: Channels consecutive pages on Channels
// channels, Channels × PlanesPerDie on one die of each with MPIBC.
func (d *device) pagesPerLoad() float64 {
	geo := d.SSD.Cfg.Geo
	if d.Opts.MPIBC {
		return float64(geo.Channels * geo.PlanesPerDie)
	}
	return float64(geo.Channels)
}

// loadUnits is the latch loads over every channel that reach pages
// pages on that spread: every whole round of pagesPerLoad pages loads a
// unit on each channel, a last round of m pages one on min(m, Channels)
// of them.
func (d *device) loadUnits(pages float64) int {
	n, k, ch := ceilF(pages), int(d.pagesPerLoad()), d.SSD.Cfg.Geo.Channels
	return n/k*ch + min(n%k, ch)
}

// scanBill is one device's scan of one query priced: the standalone
// latency of the broadcast and the two phases, the occupancy of the
// device's resources, and the per-event energy — all from the same stage
// terms.
type scanBill struct {
	ibc, coarse, fine time.Duration
	busy              busy
	joules            float64
}

// scanCost prices ev on this device. A phase's pages spread evenly
// across planes become ceil(pages/planes) parallel waves of page reads
// with their in-plane compute; its TTL entries cross the channel; the
// controller streams them through DRAM and quickselects. Without
// pipelining the stages serialize; with the Read Page Cache Sequential
// pipeline the phase is bound by its slowest stage plus one pipeline fill
// (Sec 4.3.4). Waves price the standalone latency, since one query cannot
// run a fraction of one. A batch keeps the resources busy across queries
// instead: the planes for the waves of the pages every query senses (the
// centroids; a flat database's every page) and the plane-time of an IVF
// fine scan's own pages, pages × planeWaveTime / planes on the same even
// spread (busy); the channel and the core for both phases' entries
// streamed back to back — so those two convert coarse + fine entries to
// time together, the standalone phases each their own.
func (d *device) scanCost(db *Database, ev scanEvents) scanBill {
	cfg := d.SSD.Cfg
	p, geo := cfg.Flash, cfg.Geo
	tR, wave, planes := p.ReadLatency(flash.ModeSLCESP), planeWaveTime(p), float64(geo.Planes())
	entryBytes := float64(db.ttlEntryBytes())
	xfer := func(entries float64) time.Duration {
		return bytesTime(entries*entryBytes, geo.InternalBandwidth())
	}
	sel := func(entries float64) time.Duration {
		return cfg.QuickselectTime(int(entries)) + time.Duration(entries*cfg.DRAMAccessNs)*time.Nanosecond
	}
	var c scanBill
	phase := func(pages, entries float64, shared bool, rounds int) time.Duration {
		if pages <= 0 {
			return 0
		}
		waves := time.Duration(rounds * ceilF(pages/float64(rounds)/planes))
		if shared {
			c.busy.plane += waves * wave
			for r := range rounds {
				d.joinRound(&c.busy.shared[r], pages/float64(rounds))
			}
		} else {
			c.busy.spread += time.Duration(pages * float64(wave) / planes)
			c.busy.waves += waves * wave
		}
		read, compute := waves*tR, waves*(wave-tR)
		if d.Opts.Pipelining {
			return tR + max(read, compute+xfer(entries), sel(entries))
		}
		return read + compute + xfer(entries) + sel(entries)
	}
	c.ibc = d.ibcTime(ev.ibcLoads)
	c.coarse = phase(ev.coarsePages, ev.coarseEntries, true, ev.coarseRounds)
	c.fine = phase(ev.finePages, ev.fineSurvivors, db.flat(), 1)
	entries := ev.coarseEntries + ev.fineSurvivors
	c.busy.channel = c.ibc + xfer(entries)
	c.busy.core = sel(entries)
	// The broadcast's time is the busiest channel's loads, its energy
	// every load's.
	xferBytes := entries*entryBytes + float64(ev.ibcTotalLoads*geo.PageBytes)
	c.joules = (ev.coarsePages+ev.finePages)*(p.EnergyReadPage+p.EnergyLatchXOR+p.EnergyBitCount) +
		xferBytes*p.EnergyXferPerByte
	return c
}

// ibcTime models Input Broadcasting: every load sends a full cache latch
// worth of query copies through a die's I/O port, and the dies of a
// channel share the channel, so the broadcast takes as long as the
// busiest channel's loads.
func (d *device) ibcTime(loads int) time.Duration {
	return time.Duration(loads) * bytesTime(float64(d.SSD.Cfg.Geo.PageBytes), d.SSD.Cfg.Flash.DieInputBandwidth)
}

// fullIBCLoads is the broadcast that reaches every plane of the device,
// in loads per channel: without MPIBC every plane is loaded separately;
// with MPIBC all planes of a die latch one load together (Sec 4.3.4).
func (d *device) fullIBCLoads() int {
	geo := d.SSD.Cfg.Geo
	if d.Opts.MPIBC {
		return geo.DiesPerChannel
	}
	return geo.DiesPerChannel * geo.PlanesPerDie
}

// planeWaveTime is what one scan wave holds a plane for: the SLC-ESP
// sense plus the in-plane latch compute — scanCost's plane term per wave,
// and the flash side of pin admission.
func planeWaveTime(p flash.Params) time.Duration {
	return p.ReadLatency(flash.ModeSLCESP) + p.LatchXOR + p.BitCountPage + p.PassFailCheck
}

// pinnedSlotNs is the core time of one slot of a pinned scan: one DRAM
// access plus a word-at-a-time XOR+popcount. tailCost charges it per
// cached slot and pin admission weighs it against planeWaveTime
// (cache.go), so the cache admits exactly what the model says pays.
func pinnedSlotNs(cfg ssd.Config, slotBytes int) float64 {
	return cfg.DRAMAccessNs + float64(slotBytes/4)*cfg.CoreCycleNs()
}

// tailBill is the host's share of one query priced — the controller
// tail and the caching tier, costed once on the single-device-equivalent
// configuration — read the same three ways as a scanBill.
type tailBill struct {
	cached, rerank, docs time.Duration
	busy                 busy
	joules               float64
}

// tailCost prices the stages after the scan. Rerank: the INT8 pages'
// TLC waves, the embeddings' transfer, the rescore and the final
// quicksort. Docs: the document pages' TLC waves and the bytes' internal
// then host transfer. As in scanCost, waves price the latency; a batch's
// occupancy spreads each page's tTLC over the planes its region spans
// (regionPlanes), which other queries' reads can share. Cached:
// caching-tier work, which never touches flash — pinned-cluster scans
// stream each slot out of controller DRAM and XOR+popcount it on the core
// (pinnedSlotNs), and result-cache hits pay a fixed number of DRAM
// accesses for the lookup plus deep copy.
// Cached slots are dataset-proportional, so they scale with sc.Fine; the
// per-hit constant does not grow with the database, nor does the rest of
// the tail. Energy is the TLC senses and the channel traffic; none is
// modeled for cached work (controller DRAM traffic is orders of magnitude
// below a flash sense and is dominated by IdlePower).
func tailCost(cfg ssd.Config, db *Database, st QueryStats, sc Scale) tailBill {
	p, bw := cfg.Flash, cfg.Geo.InternalBandwidth()
	tTLC := p.ReadLatency(flash.ModeTLC)
	rerankRead := time.Duration(st.RerankWaves) * tTLC
	rerankXfer := bytesTime(float64(st.RerankCount*db.int8Bytes), bw)
	rerankCore := cfg.RerankTime(st.RerankCount, db.dim) + cfg.QuicksortTime(st.SortedEntries)
	docRead := time.Duration(ceilDiv(st.DocPages, cfg.Geo.Planes())) * tTLC
	docXfer := bytesTime(float64(st.DocBytes), bw) + bytesTime(float64(st.DocBytes), cfg.HostReadBandwidth)
	cached := time.Duration(float64(st.CachedSlots)*sc.Fine*pinnedSlotNs(cfg, db.slotBytes)+
		float64(st.ResultCacheHits*resultCacheHitAccesses)*cfg.DRAMAccessNs) * time.Nanosecond
	xferBytes := float64(st.RerankCount*db.int8Bytes) + float64(st.DocBytes)
	int8Pages, docPages := db.tlcPages()
	spread := float64(st.RerankPages)/regionPlanes(cfg.Geo, int8Pages) +
		float64(st.DocPages)/regionPlanes(cfg.Geo, docPages)
	return tailBill{
		cached: cached,
		rerank: rerankRead + rerankXfer + rerankCore,
		docs:   docRead + docXfer,
		busy: busy{
			spread:  time.Duration(spread * float64(tTLC)),
			waves:   rerankRead + docRead,
			channel: rerankXfer + docXfer,
			core:    rerankCore + cached,
		},
		joules: float64(st.RerankPages+st.DocPages)*p.EnergyReadPage + xferBytes*p.EnergyXferPerByte,
	}
}

// regionPlanes is the planes a TLC region of pages spans: the INT8 and
// document regions each put page i on plane i mod Planes, so one shorter
// than the device is wide covers only its first pages-many planes.
// tailCost spreads each region's reads over its own live extent — the
// deploy's, grown by appends (Database.tlcPages) — and the tail's busiest
// plane is one of the wider region's.
func regionPlanes(geo flash.Geometry, pages int) float64 {
	return float64(max(1, min(geo.Planes(), pages)))
}

// BatchBreakdown is the timing model's view of a query batch admitted
// as one command or one coalesced group: instead of serializing whole
// queries, the device keeps its three contended resources — flash
// planes, channels, and the controller core — busy across queries, so
// batch service time is bounded by the busiest resource plus one
// pipeline fill, not by the sum of standalone latencies.
type BatchBreakdown struct {
	// queries is the batch's query count.
	queries int
	// Serial is the sum of standalone per-query latencies — what
	// one-at-a-time admission would cost.
	Serial time.Duration
	// PlaneBusy/ChannelBusy/CoreBusy are the per-resource occupancy
	// sums across the batch; the largest is the batch bottleneck.
	// PlaneBusy is the busiest plane's (busiestPlane), not every query's
	// whole waves stacked: waves price a query's standalone latency
	// (Serial), the busiest plane a batch's occupancy.
	PlaneBusy   time.Duration
	ChannelBusy time.Duration
	CoreBusy    time.Duration
	// Makespan is the modeled completion time of the whole batch.
	Makespan time.Duration
	// QPS is the query count / Makespan.
	QPS float64
	// EnergyJ is the batch energy: per-event energy of every query
	// plus background power over the makespan (idle draw is paid once,
	// not once per query).
	EnergyJ float64
}

// BatchLatency converts the per-query event counts of one batch into a
// batch service estimate under the given scale. Per-query occupancies
// sum per resource; the makespan is the bottleneck resource's total
// plus the first query's standalone latency as pipeline fill/drain,
// clamped to never exceed serial execution.
func (e *Engine) BatchLatency(db *Database, sts []QueryStats, sc Scale) BatchBreakdown {
	// One device: its scan events are the queries' own, so the shapes
	// cannot be malformed.
	b, _ := e.batchLatency(db, sts, [][]QueryStats{sts}, sc, true)
	return b
}

// BatchLatency models batch service on the sharded topology from the
// batch's aggregated events (sts) and per-shard scan events
// (perShard[s][i], as returned in HostResponse.PerShard): per-shard
// occupancies accumulate independently (the shards are independent
// devices), the gather tail accumulates on the router's resources, and
// the makespan is the bottleneck total plus one pipeline fill, clamped
// to serial execution.
func (sh *ShardedEngine) BatchLatency(dbID int, sts []QueryStats, perShard [][]QueryStats, sc Scale) (BatchBreakdown, error) {
	db, err := sh.hostDB(dbID)
	if err != nil {
		return BatchBreakdown{}, err
	}
	return sh.batchLatency(db.locals[0], sts, perShard, sc, true)
}

// batchLatency is the batch model: perDev[s][i] is device s's scan
// events of query i. The busiest device bounds the scan side; the tail's
// resources serialize on the host. With pageMajor set a device runs each
// shared round in the order pageMajor picks, as it does when it serves
// the batch; unset, every round query-major, the reference the tests
// hold the page-major bill to.
func (c *hostCore) batchLatency(db *Database, sts []QueryStats, perDev [][]QueryStats, sc Scale, pageMajor bool) (BatchBreakdown, error) {
	n := len(c.devs)
	if len(perDev) != n {
		return BatchBreakdown{}, fmt.Errorf("reis: %d per-shard stats for %d shards", len(perDev), n)
	}
	for s, row := range perDev {
		if len(row) != len(sts) {
			return BatchBreakdown{}, fmt.Errorf("reis: shard %d has stats for %d of %d queries", s, len(row), len(sts))
		}
	}
	b := BatchBreakdown{queries: len(sts)}
	var fill time.Duration
	// col is query i's column of perDev and scan[s] device s's occupancy
	// over the batch; a few devices' worth stays off the heap, so pricing
	// a single device's batch allocates nothing.
	var colBuf [4]QueryStats
	var scanBuf [4]busy
	col, scan := colBuf[:min(n, len(colBuf))], scanBuf[:min(n, len(scanBuf))]
	if n > len(colBuf) {
		col, scan = make([]QueryStats, n), make([]busy, n)
	}
	var host busy
	for i := range sts {
		for s := range col {
			col[s] = perDev[s][i]
		}
		bd, tail, events := c.price(db, sts[i], col, sc, scan)
		b.Serial += bd.Total
		if i == 0 {
			fill = bd.Total
		}
		b.EnergyJ += events
		host.add(tail)
	}
	// The devices scan in parallel — the busiest bounds each resource —
	// and the tail's resources serialize on the host. A device runs a
	// shared round page-major where that is cheaper (pageMajor).
	for s, d := range scan {
		dev := c.devs[s]
		for _, r := range d.shared {
			if ok, dPlane, dChannel, dJoules := dev.pageMajor(r); ok && pageMajor {
				d.plane += dPlane
				d.channel += dChannel
				b.EnergyJ += dJoules
			}
		}
		cfg := dev.SSD.Cfg
		b.PlaneBusy = max(b.PlaneBusy, busiestPlane(d, planeWaveTime(cfg.Flash), float64(cfg.Geo.Planes())))
		b.ChannelBusy = max(b.ChannelBusy, d.channel)
		b.CoreBusy = max(b.CoreBusy, d.core)
	}
	int8Pages, docPages := db.tlcPages()
	b.PlaneBusy += busiestPlane(host, c.cfg.Flash.ReadLatency(flash.ModeTLC), regionPlanes(c.cfg.Geo, max(int8Pages, docPages)))
	b.ChannelBusy += host.channel
	b.CoreBusy += host.core
	b.Makespan = min(max(b.PlaneBusy, b.ChannelBusy, b.CoreBusy)+fill, b.Serial)
	// Idle draw is paid once over the makespan, by every device.
	b.EnergyJ += float64(n) * c.cfg.IdlePower * b.Makespan.Seconds()
	if b.Makespan > 0 {
		b.QPS = float64(b.queries) / b.Makespan.Seconds()
	}
	return b, nil
}

// ASICLatency models the REIS-ASIC comparison point of Sec 6.3.1: no
// ESP, so every scanned page (data + OOB for ECC) must be transferred
// to the controller, where an ideal zero-cost ASIC computes distances
// after ECC. Reads and transfers pipeline; the channels are the
// bottleneck.
func (e *Engine) ASICLatency(db *Database, st QueryStats, sc Scale) Breakdown {
	cfg := e.SSD.Cfg
	p, geo := cfg.Flash, cfg.Geo
	tR := p.ReadLatency(flash.ModeSLC) // SLC without ESP
	ev := e.scanEvents(db, st, sc)
	tail := tailCost(cfg, db, st, sc)

	// The ASIC ranks every centroid at the controller: one coarse round.
	scanPages := ev.coarsePages/float64(ev.coarseRounds) + ev.finePages
	pageBytes := float64(geo.PageBytes + geo.OOBBytes)
	read := time.Duration(ceilF(scanPages/float64(geo.Planes()))) * tR
	b := Breakdown{
		// The comparison point keeps the full broadcast it was specified with.
		IBC:    e.ibcTime(e.fullIBCLoads()),
		Fine:   tR + max(read, bytesTime(scanPages*pageBytes, geo.InternalBandwidth())), // one pipeline fill
		Rerank: tail.rerank,
		Docs:   tail.docs,
	}
	b.Total = b.IBC + b.Fine + b.Rerank + b.Docs
	b.EnergyJ = scanPages*p.EnergyReadPage + scanPages*pageBytes*p.EnergyXferPerByte +
		cfg.IdlePower*b.Total.Seconds()
	if b.Total > 0 {
		b.AvgWatts = b.EnergyJ / b.Total.Seconds()
	}
	return b
}

func bytesTime(bytes, bandwidth float64) time.Duration {
	if bytes <= 0 || bandwidth <= 0 {
		return 0
	}
	return time.Duration(bytes / bandwidth * float64(time.Second))
}

func ceilF(x float64) int {
	n := int(x)
	if float64(n) < x {
		n++
	}
	return n
}
