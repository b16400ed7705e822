package reis

import (
	"fmt"
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

// UniformScale scales both phases by f.
func UniformScale(f float64) Scale { return Scale{Fine: f, Coarse: f} }

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
	b, _ := e.price(db, st, []QueryStats{st}, sc)
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
	b, _ := sh.price(db.locals[0], st, perShard, sc)
	return b, nil
}

// price is the per-query model: db is any device's slice of the
// database (the layout constants agree on all of them), perDev[s] device
// s's scan events of the query. Besides the Breakdown it returns the
// query's per-event energy, without the idle draw BatchLatency pays once
// per batch instead.
func (c *hostCore) price(db *Database, st QueryStats, perDev []QueryStats, sc Scale) (b Breakdown, events float64) {
	for s, d := range c.devs {
		ibc, coarse, fine := d.scanTime(db, perDev[s], sc)
		if ibc+coarse+fine > b.IBC+b.Coarse+b.Fine {
			b.IBC, b.Coarse, b.Fine = ibc, coarse, fine
		}
		events += d.scanEnergy(db, perDev[s], sc)
	}
	// Cached work (pinned-cluster scans, result-cache hits) is served by
	// the host, not any device; its stats appear only in the aggregate
	// st, never in a per-device row.
	b.Fine += cachedScanTime(c.cfg, db.slotBytes, st, sc)
	b.Rerank = rerankTime(c.cfg, db.int8Bytes, db.Dim, st)
	b.Docs = docsTime(c.cfg, st)
	b.Total = b.IBC + b.Coarse + b.Fine + b.Rerank + b.Docs
	events += tailEnergy(c.cfg, db.int8Bytes, st)
	// Every device idles for the duration of the query.
	b.EnergyJ = events + float64(len(c.devs))*c.cfg.IdlePower*b.Total.Seconds()
	if b.Total > 0 {
		b.AvgWatts = b.EnergyJ / b.Total.Seconds()
	}
	return b, events
}

// scanTime costs this device's share of one query's scan phases from
// its own events. IBC is the query broadcast into the plane latches; a
// query that scanned no flash pages here (a result-cache hit, a fully
// pinned or compacted-away plan, a shard owning none of the pages)
// never issued it.
func (e *Engine) scanTime(db *Database, st QueryStats, sc Scale) (ibc, coarse, fine time.Duration) {
	entryBytes := float64(db.ttlEntryBytes())
	coarseEntries := float64(st.CoarseEntries) * sc.Coarse
	fineSurvivors := e.fineSurvivors(st, sc)
	ibc = e.ibcTime(e.ibcLoads(db, st, sc))
	coarse = e.scanPhaseTime(
		scanPagesScaled(st.CoarsePages, st.CoarseEntries, sc.Coarse, db.embPerPage),
		coarseEntries*entryBytes,
		coarseEntries,
	)
	fine = e.scanPhaseTime(
		scanPagesScaled(st.FinePages, st.EntriesScanned-st.CoarseEntries, sc.Fine, db.embPerPage),
		fineSurvivors*entryBytes,
		fineSurvivors,
	)
	return ibc, coarse, fine
}

// scanPagesScaled converts a functional scan to full-scale pages. At
// scale 1 the functional page count (which includes cluster-alignment
// padding pages) is authoritative; at larger scales pages follow the
// scaled entry count, because padding is a small-scale artifact (a
// full-scale cluster of thousands of embeddings wastes at most one
// partial page).
func scanPagesScaled(pages, entries int, scale float64, perPage int) float64 {
	if scale <= 1 {
		return float64(pages)
	}
	p := float64(entries) * scale / float64(perPage)
	if p < float64(pages) {
		// Never below the functional count: reads that happened,
		// happened.
		return float64(pages)
	}
	return p
}

// fineSurvivors returns the full-scale fine-phase survivor estimate.
func (e *Engine) fineSurvivors(st QueryStats, sc Scale) float64 {
	fineScanned := float64(st.EntriesScanned-st.CoarseEntries) * sc.Fine
	if e.Opts.DistanceFilter && sc.SurvivorRate > 0 {
		return fineScanned * sc.SurvivorRate
	}
	return float64(st.Survivors-st.CoarseEntries) * sc.Fine
}

// rerankTime costs the INT8 fetch + rescore + quicksort stage.
func rerankTime(cfg ssd.Config, int8Bytes, dim int, st QueryStats) time.Duration {
	tTLC := cfg.Flash.ReadLatency(flash.ModeTLC)
	xfer := bytesTime(float64(st.RerankCount*int8Bytes), cfg.Geo.InternalBandwidth())
	return time.Duration(st.RerankWaves)*tTLC + xfer +
		cfg.RerankTime(st.RerankCount, dim) + cfg.QuicksortTime(st.SortedEntries)
}

// docsTime costs the document retrieval stage.
func docsTime(cfg ssd.Config, st QueryStats) time.Duration {
	tTLC := cfg.Flash.ReadLatency(flash.ModeTLC)
	docWaves := ceilDiv(st.DocPages, cfg.Geo.Planes())
	return time.Duration(docWaves)*tTLC +
		bytesTime(float64(st.DocBytes), cfg.Geo.InternalBandwidth()) +
		bytesTime(float64(st.DocBytes), cfg.HostReadBandwidth)
}

// ibcTime models Input Broadcasting: every load sends a full cache latch
// worth of query copies through a die's I/O port, and the dies of a
// channel share the channel, so the broadcast takes as long as the
// busiest channel's loads.
func (e *Engine) ibcTime(loads int) time.Duration {
	return time.Duration(loads) * bytesTime(float64(e.SSD.Cfg.Geo.PageBytes), e.SSD.Cfg.Flash.DieInputBandwidth)
}

// fullIBCLoads is the broadcast that reaches every plane of the device,
// in loads per channel: without MPIBC every plane is loaded separately;
// with MPIBC all planes of a die latch one load together (Sec 4.3.4).
func (e *Engine) fullIBCLoads() int {
	geo := e.SSD.Cfg.Geo
	if e.Opts.MPIBC {
		return geo.DiesPerChannel
	}
	return geo.DiesPerChannel * geo.PlanesPerDie
}

// ibcLoads is the number of latch loads one query's broadcast puts on
// this device's busiest channel — the one IBC quantity scanTime,
// scanOccupancy and scanEnergy charge. As executed (no scale above 1) it
// is the device's own count, QueryStats.IBCLoads: the distinct dies — or
// planes, without MPIBC — the query scanned on that channel. At paper
// scale the scan touches more pages than the functional run did, spread
// the way the plane order stripes them (Channels consecutive pages on
// Channels channels, Channels × PlanesPerDie on one die of each): a phase
// of n pages loads ⌈n / (Channels × planes per load)⌉ units per channel,
// the same even spread scanPhaseTime turns into waves. Never below the
// functional count, never above the full broadcast.
func (e *Engine) ibcLoads(db *Database, st QueryStats, sc Scale) int {
	if sc.Coarse <= 1 && sc.Fine <= 1 {
		return st.IBCLoads
	}
	geo := e.SSD.Cfg.Geo
	perLoad := geo.Channels
	if e.Opts.MPIBC {
		perLoad *= geo.PlanesPerDie
	}
	coarse := scanPagesScaled(st.CoarsePages, st.CoarseEntries, sc.Coarse, db.embPerPage)
	fine := scanPagesScaled(st.FinePages, st.EntriesScanned-st.CoarseEntries, sc.Fine, db.embPerPage)
	spread := ceilF(coarse/float64(perLoad)) + ceilF(fine/float64(perLoad))
	return min(max(st.IBCLoads, spread), e.fullIBCLoads())
}

// scanPhaseTime costs one scan phase (coarse or fine): pages spread
// evenly across planes become ceil(pages/planes) parallel waves of
// page reads; in-plane compute; channel transfer of surviving TTL
// entries; and controller quickselect.
//
// Without pipelining the components serialize; with the Read Page
// Cache Sequential pipeline the phase is bound by its slowest stage
// plus one pipeline fill (Sec 4.3.4).
func (e *Engine) scanPhaseTime(pages, ttlBytes, selectInput float64) time.Duration {
	if pages <= 0 {
		return 0
	}
	cfg := e.SSD.Cfg
	p := cfg.Flash
	planes := float64(cfg.Geo.Planes())
	waves := ceilF(pages / planes)
	tR := p.ReadLatency(flash.ModeSLCESP)
	compute := p.LatchXOR + p.BitCountPage + p.PassFailCheck

	read := time.Duration(waves) * tR
	computeTotal := time.Duration(waves) * compute
	xfer := bytesTime(ttlBytes, cfg.Geo.InternalBandwidth())
	sel := cfg.QuickselectTime(int(selectInput)) +
		time.Duration(selectInput*cfg.DRAMAccessNs)*time.Nanosecond

	if e.Opts.Pipelining {
		steady := read
		if computeTotal+xfer > steady {
			steady = computeTotal + xfer
		}
		if sel > steady {
			steady = sel
		}
		return tR + steady
	}
	return read + computeTotal + xfer + sel
}

// cachedScanTime costs host-side caching-tier work, which never touches
// flash: pinned-cluster scans stream each slot out of controller DRAM
// and XOR+popcount it word-at-a-time on the core, and result-cache hits
// pay a fixed number of DRAM accesses for the lookup plus deep copy.
// Cached slots are dataset-proportional, so they scale with sc.Fine;
// the per-hit constant does not grow with the database. Energy is not
// modeled for cached work (controller DRAM traffic is orders of
// magnitude below a flash sense and is dominated by IdlePower).
func cachedScanTime(cfg ssd.Config, slotBytes int, st QueryStats, sc Scale) time.Duration {
	if st.CachedSlots == 0 && st.ResultCacheHits == 0 {
		return 0
	}
	ns := float64(st.CachedSlots)*sc.Fine*pinnedSlotNs(cfg, slotBytes) +
		float64(st.ResultCacheHits*resultCacheHitAccesses)*cfg.DRAMAccessNs
	return time.Duration(ns) * time.Nanosecond
}

// pinnedSlotNs is the core time of one slot of a pinned scan: one DRAM
// access plus a word-at-a-time XOR+popcount. The model charges it per
// cached slot (above) and pin admission weighs it against planeWaveTime
// (cache.go), so the cache admits exactly what the model says pays.
func pinnedSlotNs(cfg ssd.Config, slotBytes int) float64 {
	return cfg.DRAMAccessNs + float64(slotBytes/4)*cfg.CoreCycleNs()
}

// planeWaveTime is what one scan wave holds a plane for: the SLC-ESP
// sense plus the in-plane latch compute — scanOccupancy's plane term per
// wave, and the flash side of pin admission.
func planeWaveTime(p flash.Params) time.Duration {
	return p.ReadLatency(flash.ModeSLCESP) + p.LatchXOR + p.BitCountPage + p.PassFailCheck
}

// scanEnergy sums the per-event energies of this device's share of a
// query's scan phases: SLC page senses with their latch compute, and
// the channel traffic of the broadcast in and the TTL entries out.
func (e *Engine) scanEnergy(db *Database, st QueryStats, sc Scale) float64 {
	p := e.SSD.Cfg.Flash
	geo := e.SSD.Cfg.Geo
	slcPages := scanPagesScaled(st.CoarsePages, st.CoarseEntries, sc.Coarse, db.embPerPage) +
		scanPagesScaled(st.FinePages, st.EntriesScanned-st.CoarseEntries, sc.Fine, db.embPerPage)
	xferBytes := (float64(st.CoarseEntries)*sc.Coarse + e.fineSurvivors(st, sc)) * float64(db.ttlEntryBytes())
	// IBC broadcast: every channel is charged the busiest one's loads.
	xferBytes += float64(e.ibcLoads(db, st, sc) * geo.Channels * geo.PageBytes)
	return slcPages*(p.EnergyReadPage+p.EnergyLatchXOR+p.EnergyBitCount) + xferBytes*p.EnergyXferPerByte
}

// tailEnergy sums the per-event energies of the controller tail: TLC
// page reads plus the INT8/document channel traffic.
func tailEnergy(cfg ssd.Config, int8Bytes int, st QueryStats) float64 {
	p := cfg.Flash
	tlcPages := float64(st.RerankPages + st.DocPages)
	xferBytes := float64(st.RerankCount*int8Bytes) + float64(st.DocBytes)
	return tlcPages*p.EnergyReadPage + xferBytes*p.EnergyXferPerByte
}

// BatchBreakdown is the timing model's view of a query batch admitted
// as one command or one coalesced group: instead of serializing whole
// queries, the device keeps its three contended resources — flash
// planes, channels, and the controller core — busy across queries, so
// batch service time is bounded by the busiest resource plus one
// pipeline fill, not by the sum of standalone latencies.
type BatchBreakdown struct {
	Queries int
	// Serial is the sum of standalone per-query latencies — what
	// one-at-a-time admission would cost.
	Serial time.Duration
	// PlaneBusy/ChannelBusy/CoreBusy are the per-resource occupancy
	// sums across the batch; the largest is the batch bottleneck.
	PlaneBusy   time.Duration
	ChannelBusy time.Duration
	CoreBusy    time.Duration
	// Makespan is the modeled completion time of the whole batch.
	Makespan time.Duration
	// QPS is Queries / Makespan.
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
	b, _ := e.batchLatency(db, sts, [][]QueryStats{sts}, sc)
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
	return sh.batchLatency(db.locals[0], sts, perShard, sc)
}

// batchLatency is the batch model: perDev[s][i] is device s's scan
// events of query i. The busiest device bounds the scan side; the tail's
// resources serialize on the host.
func (c *hostCore) batchLatency(db *Database, sts []QueryStats, perDev [][]QueryStats, sc Scale) (BatchBreakdown, error) {
	n := len(c.devs)
	if len(perDev) != n {
		return BatchBreakdown{}, fmt.Errorf("reis: %d per-shard stats for %d shards", len(perDev), n)
	}
	for s, row := range perDev {
		if len(row) != len(sts) {
			return BatchBreakdown{}, fmt.Errorf("reis: shard %d has stats for %d of %d queries", s, len(row), len(sts))
		}
	}
	b := BatchBreakdown{Queries: len(sts)}
	var fill time.Duration
	// col is query i's column of perDev; a few devices' worth stays off
	// the heap, so pricing a single device's batch allocates nothing.
	var buf [4]QueryStats
	col := buf[:min(n, len(buf))]
	if n > len(buf) {
		col = make([]QueryStats, n)
	}
	for i := range sts {
		for s := range col {
			col[s] = perDev[s][i]
		}
		bd, events := c.price(db, sts[i], col, sc)
		b.Serial += bd.Total
		if i == 0 {
			fill = bd.Total
		}
		b.EnergyJ += events
		plane, channel, core := tailOccupancy(c.cfg, db, sts[i], sc)
		b.PlaneBusy += plane
		b.ChannelBusy += channel
		b.CoreBusy += core
	}
	var scanPlane, scanChannel, scanCore time.Duration
	for s, d := range c.devs {
		var plane, channel, core time.Duration
		for i := range sts {
			p, ch, co := d.scanOccupancy(db, perDev[s][i], sc)
			plane += p
			channel += ch
			core += co
		}
		scanPlane = max(scanPlane, plane)
		scanChannel = max(scanChannel, channel)
		scanCore = max(scanCore, core)
	}
	b.PlaneBusy += scanPlane
	b.ChannelBusy += scanChannel
	b.CoreBusy += scanCore
	b.Makespan = min(max(b.PlaneBusy, b.ChannelBusy, b.CoreBusy)+fill, b.Serial)
	// Idle draw is paid once over the makespan, by every device.
	b.EnergyJ += float64(n) * c.cfg.IdlePower * b.Makespan.Seconds()
	if b.Makespan > 0 {
		b.QPS = float64(b.Queries) / b.Makespan.Seconds()
	}
	return b, nil
}

// scanOccupancy and tailOccupancy decompose one query's device events
// into busy time on the three resources a batch contends for:
//
//   - plane: array reads (the critical plane's waves) plus the
//     in-plane latch compute, for the scan phases and the TLC
//     rerank/document reads;
//   - channel: the IBC broadcast in, TTL entries, rerank embeddings
//     and document bytes out (internal), and the host transfer;
//   - core: controller quickselect + TTL DRAM traffic, INT8 rerank,
//     the final quicksort, and caching-tier work.
//
// The scan terms are one device's, from its own events; the tail terms
// are the host's. The decomposition mirrors price's stage formulas at
// the same scale, so summing occupancies across a batch is consistent
// with the per-query model.
func (e *Engine) scanOccupancy(db *Database, st QueryStats, sc Scale) (plane, channel, core time.Duration) {
	cfg := e.SSD.Cfg
	planes := float64(cfg.Geo.Planes())

	coarseEntries := float64(st.CoarseEntries) * sc.Coarse
	fineSurvivors := e.fineSurvivors(st, sc)
	coarsePages := scanPagesScaled(st.CoarsePages, st.CoarseEntries, sc.Coarse, db.embPerPage)
	finePages := scanPagesScaled(st.FinePages, st.EntriesScanned-st.CoarseEntries, sc.Fine, db.embPerPage)

	scanWaves := 0
	if coarsePages > 0 {
		scanWaves += ceilF(coarsePages / planes)
	}
	if finePages > 0 {
		scanWaves += ceilF(finePages / planes)
	}
	plane = time.Duration(scanWaves) * planeWaveTime(cfg.Flash)

	channel = e.ibcTime(e.ibcLoads(db, st, sc))
	selectInput := coarseEntries + fineSurvivors
	channel += bytesTime(selectInput*float64(db.ttlEntryBytes()), cfg.Geo.InternalBandwidth())
	core = cfg.QuickselectTime(int(selectInput)) +
		time.Duration(selectInput*cfg.DRAMAccessNs)*time.Nanosecond
	return plane, channel, core
}

func tailOccupancy(cfg ssd.Config, db *Database, st QueryStats, sc Scale) (plane, channel, core time.Duration) {
	tTLC := cfg.Flash.ReadLatency(flash.ModeTLC)
	docWaves := ceilDiv(st.DocPages, cfg.Geo.Planes())
	plane = time.Duration(st.RerankWaves+docWaves) * tTLC
	channel = bytesTime(float64(st.RerankCount*db.int8Bytes), cfg.Geo.InternalBandwidth()) +
		bytesTime(float64(st.DocBytes), cfg.Geo.InternalBandwidth()) +
		bytesTime(float64(st.DocBytes), cfg.HostReadBandwidth)
	core = cfg.RerankTime(st.RerankCount, db.Dim) + cfg.QuicksortTime(st.SortedEntries) +
		cachedScanTime(cfg, db.slotBytes, st, sc)
	return plane, channel, core
}

// ASICLatency models the REIS-ASIC comparison point of Sec 6.3.1: no
// ESP, so every scanned page (data + OOB for ECC) must be transferred
// to the controller, where an ideal zero-cost ASIC computes distances
// after ECC. Reads and transfers pipeline; the channels are the
// bottleneck.
func (e *Engine) ASICLatency(db *Database, st QueryStats, sc Scale) Breakdown {
	cfg := e.SSD.Cfg
	geo := cfg.Geo
	p := cfg.Flash
	tR := p.ReadLatency(flash.ModeSLC) // SLC without ESP

	scanPages := scanPagesScaled(st.CoarsePages, st.CoarseEntries, sc.Coarse, db.embPerPage) +
		scanPagesScaled(st.FinePages, st.EntriesScanned-st.CoarseEntries, sc.Fine, db.embPerPage)
	waves := ceilF(scanPages / float64(geo.Planes()))
	pageBytes := float64(geo.PageBytes + geo.OOBBytes)
	xfer := bytesTime(scanPages*pageBytes, geo.InternalBandwidth())
	read := time.Duration(waves) * tR
	scan := xfer
	if read > scan {
		scan = read
	}
	scan += tR // pipeline fill

	tRerank := rerankTime(cfg, db.int8Bytes, db.Dim, st)
	tDocs := docsTime(cfg, st)

	// The comparison point keeps the full broadcast it was specified with.
	ibc := e.ibcTime(e.fullIBCLoads())
	total := ibc + scan + tRerank + tDocs
	j := scanPages*p.EnergyReadPage + scanPages*pageBytes*p.EnergyXferPerByte +
		cfg.IdlePower*total.Seconds()
	b := Breakdown{IBC: ibc, Fine: scan, Rerank: tRerank, Docs: tDocs, Total: total, EnergyJ: j}
	if total > 0 {
		b.AvgWatts = j / total.Seconds()
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
