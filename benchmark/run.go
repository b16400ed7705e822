package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints: the driver contract's
// last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed uint64
	// warm and window are the untimed lead-in and the timed length of a
	// loaded pass.
	warm, window time.Duration
	sz           sizes
	// modelOps overrides the model pass length (the smoke test shortens
	// it); 0 keeps it.
	modelOps int
	outDir   string
}

// warmup is the untimed lead-in of every loaded pass: long enough for
// the HTTP connections, the per-die workers, the caching tier and the Go
// heap to reach their steady shape.
const warmup = time.Second

// modelCommands is the model pass length: 2048 queries' worth of
// commands, so the frozen rates see a service-time mix that repeats
// across seeds to within the bounds. sharded_deep's commands carry 8
// queries each, so it runs an eighth as many.
func modelCommands(w *workload, cfg runConfig) int {
	n := 2048
	if cfg.modelOps > 0 {
		n = cfg.modelOps
	}
	if w.Shards > 1 {
		n /= 8
	}
	return n
}

// setupTimes collects a run's deploy timings. The corpus is built once
// a run; a stack is deployed once per pass, and the median deploy is
// what is reported.
type setupTimes struct {
	deploy []float64
}

// total is the run's set-up time: generate + k-means + median deploy.
func (t *setupTimes) total(c *corpus) float64 {
	return c.generateS + c.kmeansS + median(t.deploy)
}

// runEndToEnd is the --trace 0 run: model pass (with the reference
// check), then the untraced wall pass. The wall pass's speed is logged
// but is a per-layer metric (wall.qps, wall.p50_ms), not an end-to-end
// one: a noisy phase of the shared bench host moves a whole run's by
// 20-48 %, more than the widest bound an end-to-end metric may carry
// (README.md, "Host noise").
func runEndToEnd(w *workload, cfg runConfig) (*result, error) {
	wd, stop := startWatchdog(w.Name)
	defer stop()
	var st setupTimes
	c := buildCorpus(cfg.sz)
	wd.tick()

	ops := w.schedule(c, cfg.seed, modelCommands(w, cfg))
	model, err := runModelPass(w, c, cfg.seed, ops, true, &st, wd)
	if err != nil {
		return nil, fmt.Errorf("model pass: %w", err)
	}
	wall, err := runWallPass(w, c, cfg.seed, ops, model.expect, cfg.warm, cfg.window, nil, &st, wd)
	if err != nil {
		return nil, fmt.Errorf("wall pass: %w", err)
	}
	res := &result{
		Attempted: model.attempted + wall.attempted,
		Failed:    model.failed + wall.failed,
		Metrics: map[string]metric{
			"setup_s":            {st.total(c), "s"},
			"allocs_per_op":      {wall.allocsPerOp, "count"},
			"kb_per_op":          {wall.kbPerOp, "KiB"},
			"live_heap_mb":       {wall.liveHeapMB, "MiB"},
			"model_qps":          {model.modelQPS, "1/s"},
			"model_p50_ms":       {model.p50Ms, "ms"},
			"model_p99_ms":       {model.p99Ms, "ms"},
			"model_slo_qps":      {model.sloQPS, "1/s"},
			"model_mj_per_query": {model.mjPerQuery, "mJ"},
			"recall_at_10":       {model.recall, "fraction"},
		},
	}
	res.Correct = res.Failed == 0
	logf("%s seed %d: wall %d searches in %v from %d clients: whole window p50 %.3f ms, p%g %.3f ms (n=%d), fastest block %.1f 1/s and p50 %.3f ms; failed %d of %d",
		w.Name, cfg.seed, wall.searches, wall.window, wall.clients, wall.lat.P50, wall.lat.TailPct, wall.lat.Tail, wall.lat.N, wall.qps, wall.p50Ms, res.Failed, res.Attempted)
	return res, nil
}

// runPerLayer is the --trace 1 run: the model pass for the counts and
// the model-clock attribution, an untraced and a traced loaded pass for
// the counters that need concurrency and the tracing overhead, and the
// single-client ladder for self times.
func runPerLayer(w *workload, cfg runConfig) (*result, error) {
	wd, stop := startWatchdog(w.Name)
	defer stop()
	var st setupTimes
	c := buildCorpus(cfg.sz)
	wd.tick()
	ops := w.schedule(c, cfg.seed, modelCommands(w, cfg))
	model, err := runModelPass(w, c, cfg.seed, ops, false, &st, wd)
	if err != nil {
		return nil, fmt.Errorf("model pass: %w", err)
	}

	half := cfg.window / 2
	plain, err := runWallPass(w, c, cfg.seed, ops, model.expect, cfg.warm, half, nil, &st, wd)
	if err != nil {
		return nil, fmt.Errorf("untraced loaded pass: %w", err)
	}
	tr := newTracer()
	traced, err := runWallPass(w, c, cfg.seed, ops, model.expect, cfg.warm, half, tr, &st, wd)
	if err != nil {
		return nil, fmt.Errorf("traced loaded pass: %w", err)
	}

	ld, err := runLadder(w, c, cfg.seed, ops[:min(ladderOps, len(ops))], tr, wd)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}

	m := layerMetrics(w, c, model, plain, traced, ld, &st)
	logf("%s ladder: gateway %.1f + group %.1f + queue %.1f + engine %.1f + shard %.1f = %.1f us; one client's request median %.1f us; loaded untraced p50 %.1f us from %d clients",
		w.Name, ld.gatewayUs, ld.groupUs, ld.noopUs, ld.singleUs-ld.noopUs, ld.shardOverheadUs,
		ld.gatewayUs+ld.groupUs+ld.singleUs+ld.shardOverheadUs, ld.topUs, plain.p50Ms*1e3, plain.clients)
	self, counts := selfTimes(tr.spans), spanCounts(tr.spans)
	for _, name := range []string{spanClient, spanGateway, spanGroup, spanHost} {
		if counts[name] > 0 {
			logf("%s trace: %-12s %6d spans, mean self %.1f us", w.Name, name, counts[name],
				float64(self[name])/float64(counts[name])/float64(time.Microsecond))
		}
	}
	res := &result{
		Attempted: model.attempted + plain.attempted + traced.attempted,
		Failed:    model.failed + plain.failed + traced.failed,
		Metrics:   m,
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layerMetrics assembles the per-layer metrics. A layer the workload
// bypasses reports zeros.
func layerMetrics(w *workload, c *corpus, model *modelOutcome, plain, traced *wallOutcome, ld *ladder, st *setupTimes) map[string]metric {
	q := float64(model.queries)
	perQ := func(v int) float64 { return ratio(float64(v), q) }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// wall: the untraced loaded pass's fastest block.
	put("wall.qps", plain.qps, "1/s")
	put("wall.p50_ms", plain.p50Ms, "ms")

	// gateway: HTTP round trip plus the middleware chain and handler.
	put("gateway.self_us", ld.gatewayUs, "us")
	put("gateway.allocs_per_op", ld.gatewayAllocs, "count")
	gwRejected := 0.0
	if w.HTTP {
		gwRejected = ratio(float64(traced.rejected), float64(traced.attempted))
	}
	put("gateway.rejected_share", gwRejected, "fraction")
	put("gateway.wall_p99_ms", traced.lat.P99, "ms")
	put("gateway.samples", float64(traced.searches), "count")

	// group
	put("group.self_us", ld.groupUs, "us")
	put("group.failovers", float64(traced.group.Failovers), "count")
	put("group.rejected", float64(traced.group.Rejected), "count")
	put("group.retirements", float64(traced.group.Retirements), "count")
	minR, maxR := ^uint64(0), uint64(0)
	for _, r := range traced.group.Replicas {
		minR, maxR = min(minR, r.Routed), max(maxR, r.Routed)
	}
	put("group.route_imbalance", ratio(float64(maxR), float64(minR)), "ratio")
	var bcast []time.Duration
	var appendD, deleteD, compactD []time.Duration
	for _, r := range traced.rounds {
		appendD = append(appendD, r.appendD)
		bcast = append(bcast, r.appendD)
		if r.deleted != nil {
			deleteD = append(deleteD, r.deleteD)
			bcast = append(bcast, r.deleteD)
		}
		if r.compacted {
			compactD = append(compactD, r.compD)
			bcast = append(bcast, r.compD)
		}
	}
	put("group.broadcast_p50_ms", medianUs(bcast)/1e3, "ms")
	put("group.barrier_stall_p99_ms", traced.stallP99Ms, "ms")

	// queue
	put("queue.roundtrip_us", ld.noopUs, "us")
	put("queue.mean_group", ratio(float64(traced.queue.Submitted), float64(traced.queue.Dispatches)), "count")
	put("queue.coalesced_share", ratio(float64(traced.queue.Coalesced), float64(traced.queue.Submitted)), "fraction")
	put("queue.rejected", float64(traced.queue.Rejected), "count")
	put("queue.occupancy_mean", traced.occupancyMean, "fraction")

	// engine: one device's scan + controller tail, and the counts that
	// are the timing model's only inputs.
	put("engine.exec_us", ld.singleUs-ld.noopUs, "us")
	put("engine.coarse_pages_per_query", perQ(model.stats.CoarsePages), "count")
	put("engine.fine_pages_per_query", perQ(model.stats.FinePages), "count")
	put("engine.entries_scanned_per_query", perQ(model.stats.EntriesScanned), "count")
	put("engine.survivors_per_query", perQ(model.stats.Survivors), "count")
	put("engine.ttl_kb_per_query", ratio(float64(model.stats.TTLBytes)/1024, q), "KiB")
	put("engine.rerank_pages_per_query", perQ(model.stats.RerankPages), "count")
	put("engine.doc_pages_per_query", perQ(model.stats.DocPages), "count")
	put("engine.ibc_per_query", perQ(model.stats.IBCBroadcasts), "count")

	// shard
	shardExec := 0.0
	if w.Shards > 1 {
		shardExec = ld.hostUs - ld.noopUs
	}
	put("shard.exec_us", shardExec, "us")
	put("shard.overhead_us", ld.shardOverheadUs, "us")
	put("shard.scan_imbalance", model.imbalance, "ratio")

	// prune, cache
	put("prune.pruned_pages_share", ratio(float64(model.stats.PrunedPages), float64(model.stats.PrunedPages+model.stats.FinePages)), "fraction")
	put("prune.pruned_slots_per_query", perQ(model.stats.PrunedSlots), "count")
	put("prune.aborted_waves_per_query", perQ(model.stats.AbortedWaves), "count")
	put("cache.result_hit_rate", perQ(model.stats.ResultCacheHits), "fraction")
	put("cache.cached_pages_share", ratio(float64(model.stats.CachedPages), float64(model.stats.CachedPages+model.stats.FinePages)), "fraction")

	// mutate + journal: wall latencies from the loaded pass, costs off
	// the clock from the deterministic model pass.
	put("mutate.append_p50_ms", medianUs(appendD)/1e3, "ms")
	put("mutate.delete_p50_ms", medianUs(deleteD)/1e3, "ms")
	put("mutate.compact_p50_ms", medianUs(compactD)/1e3, "ms")
	var erases, gcReads, rows int
	var last roundResult
	for _, r := range model.rounds {
		erases += r.blockErases
		gcReads += r.gcPagesRead
		rows += r.compactRows
		last = r
	}
	put("mutate.write_amp", last.wear.WriteAmp, "ratio")
	put("mutate.block_erases", float64(erases), "count")
	put("mutate.max_block_erase", float64(last.wear.MaxBlockErase), "count")
	put("mutate.gc_pages_read", float64(gcReads), "count")
	put("mutate.compacted_rows", float64(rows), "count")
	put("journal.bytes_per_payload_byte", ratio(float64(model.journalB), float64(model.payloadB)), "ratio")
	put("journal.replay_ms", model.replayMs, "ms")

	// timing: which phase and which resource the model clock spent.
	total := float64(model.phase.Total)
	put("model.ibc_share", ratio(float64(model.phase.IBC), total), "fraction")
	put("model.coarse_share", ratio(float64(model.phase.Coarse), total), "fraction")
	put("model.fine_share", ratio(float64(model.phase.Fine), total), "fraction")
	put("model.rerank_share", ratio(float64(model.phase.Rerank), total), "fraction")
	put("model.docs_share", ratio(float64(model.phase.Docs), total), "fraction")
	span := float64(model.busy.Makespan)
	put("model.plane_busy_share", ratio(float64(model.busy.PlaneBusy), span), "fraction")
	put("model.channel_busy_share", ratio(float64(model.busy.ChannelBusy), span), "fraction")
	put("model.core_busy_share", ratio(float64(model.busy.CoreBusy), span), "fraction")
	put("model.mean_batch", model.meanBatch, "count")
	put("model.max_backlog", float64(model.maxBacklog), "count")
	put("model.avg_watts", ratio(model.phase.EnergyJ, model.phase.Total.Seconds()), "W")

	// flash / vecmath / ssd
	k := ld.kernels
	put("flash.gen_dist_page_ns", k.genDistNs, "ns")
	put("flash.read_page_ns", k.readPageNs, "ns")
	put("vecmath.xor_popcount_page_ns", k.xorPopNs, "ns")
	perOp := ratio(q, float64(model.commands))
	scanNs := perOp * (perQ(model.stats.CoarsePages+model.stats.FinePages)*k.genDistNs +
		perQ(model.stats.RerankPages+model.stats.DocPages)*k.readPageNs)
	put("flash.scan_share", ratio(scanNs/1e3, ld.singleUs-ld.noopUs), "fraction")
	put("flash.page_reads_per_query", ratio(ld.pageReads, perOp), "count")
	put("flash.kb_out_per_query", ratio(ld.kbOut, perOp), "KiB")

	// set-up
	put("setup.generate_s", c.generateS, "s")
	put("setup.kmeans_s", c.kmeansS, "s")
	put("setup.deploy_s", median(st.deploy), "s")

	put("trace.overhead_share", 1-ratio(traced.qps, plain.qps), "fraction")
	return m
}
