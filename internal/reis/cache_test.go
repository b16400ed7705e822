package reis

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"reis/internal/ssd"
	"reis/internal/xrand"
)

// Cache test budgets. On the pinned-scan geometry (pinGeo: 512B pages,
// so the 128-dim test data's 16B slots sit 32 to a page and the 16 IVF
// clusters span 45 pages, each 2 KiB of DRAM with its OOB):
//
//   - cacheSmallBudget pins about half the clusters' pages and holds
//     only a few results — both tiers run mixed with the flash path;
//   - cacheBigBudget pins every cluster and holds every per-query result
//     of the shared test query set — the all-cached extreme.
const (
	cacheSmallBudget = 48 << 10
	cacheBigBudget   = 256 << 10
)

// pinGeo re-homes a test config on the geometry the pinned-scan suites
// run on: one channel of one two-plane die per shard (2, 4, 8 planes on
// the 1-, 2-, 4-shard references) under 512-byte pages with a 1536-byte
// OOB. Pin admission
// (dbCache.refresh) pins nothing while the widest probe of a command
// fits the planes in one wave; on testCfg — 8 to 32 planes, one page
// a cluster — no script of these suites ever would, and scanPinned would
// go untested. Here the narrowest probe (nprobe 4, about 12 pages)
// outgrows the widest device.
func pinGeo(cfg ssd.Config) ssd.Config {
	cfg.Geo.Channels = 1
	cfg.Geo.DiesPerChannel = 1
	cfg.Geo.BlocksPerPlane = 160
	cfg.Geo.PageBytes = 512
	cfg.Geo.OOBBytes = 1536
	return cfg
}

func cachedShardCfg(budget int64) ssd.Config {
	cfg := pinGeo(testCfg())
	cfg.CacheDRAMBytes = budget
	return cfg
}

// TestCachedScanFollowsEngineOpts turns the distance filter off on a
// cached engine after construction: the pinned scans must stop filtering
// with the flash scans, so every command matches, in results and in each
// query's quickselect input, an uncached engine built with the filter
// off. The device is the skew sweep's four-plane SSD1, on which nprobe 4
// outgrows one wave and pins are admitted.
func TestCachedScanFollowsEngineOpts(t *testing.T) {
	cfg := ssd.SSD1()
	cfg.Geo.Channels, cfg.Geo.DiesPerChannel = 1, 2
	offOpts := AllOptions()
	offOpts.DistanceFilter = false
	ref, err := New(cfg, 64<<20, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	deployIVF(t, ref, 1, 16)
	cfg.CacheDRAMBytes = 4 << 20
	cached, err := New(cfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cached.Close() })
	deployIVF(t, cached, 1, 16)
	cached.Opts.DistanceFilter = false

	pinned := 0
	for round := 0; round < 3; round++ {
		opt := SearchOptions{NProbe: 4 + round, SkipDocs: true}
		want, wantSts := search(t, ref, OpcodeIVFSearch, 1, testData.Queries, 10, opt)
		got, sts := search(t, cached, OpcodeIVFSearch, 1, testData.Queries, 10, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nprobe %d: cached results diverge from the unfiltered engine's", opt.NProbe)
		}
		for qi, st := range sts {
			if st.SelectInput != wantSts[qi].SelectInput {
				t.Fatalf("nprobe %d q%d: select input %d, unfiltered engine %d (%d pages pinned)",
					opt.NProbe, qi, st.SelectInput, wantSts[qi].SelectInput, st.CachedPages)
			}
			pinned += st.CachedPages
		}
	}
	if pinned == 0 {
		t.Fatal("no pinned pages served: the pinned scans were not compared")
	}
}

// TestPinAdmission pins the two admission rules of dbCache.refresh to
// their arithmetic. On SSD1's timing a wave holds a plane 28 µs (22.5 µs
// SLC-ESP sense + 5.5 µs latch compute) and a pinned 32-byte slot holds
// the core 10.33 ns (5 ns DRAM + 8 words at 1.5 GHz), so a one-page
// cluster of s slots pays iff s x 10.33 ns < 28 µs / planes: under 339
// slots on 8 planes, under 43 on 64, under 11 on 256 — and never while
// the previous command's widest probe fits the planes in one wave.
func TestPinAdmission(t *testing.T) {
	geos := map[int][3]int{8: {2, 2, 2}, 64: {8, 4, 2}, 256: {8, 16, 2}}
	f := &pageFormat{slotBytes: 32, embPerPage: 512, pageBytes: 16384, oobBytes: 512 * oobBytesPerSlot}
	newCache := func(planes int) *dbCache {
		cfg := ssd.SSD1()
		g := geos[planes]
		cfg.Geo.Channels, cfg.Geo.DiesPerChannel, cfg.Geo.PlanesPerDie = g[0], g[1], g[2]
		cfg.CacheDRAMBytes = 1 << 20
		if cfg.Geo.Planes() != planes {
			t.Fatalf("geometry %v has %d planes, want %d", g, cfg.Geo.Planes(), planes)
		}
		return newDBCache(cfg, f, 2)
	}
	fetched := 0
	fetch := func(page int, buf []byte) error {
		if len(buf) != f.pageBytes+f.oobBytes {
			t.Fatalf("fetch buffer of %d bytes", len(buf))
		}
		fetched++
		return nil
	}
	// One cluster (id 0) of a single page holding `slots` slots, probed by
	// a command whose widest probe spanned `probe` pages.
	command := func(c *dbCache, buckets [][]slotRange, probe int) {
		c.probe(0, buckets[0])
		c.probed(probe)
	}
	for _, tc := range []struct {
		planes, slots int
		admit         bool // past the gate, by the share test
	}{
		{8, 32, true}, {8, 128, true}, {8, 338, true}, {8, 339, false}, {8, 512, false},
		{64, 32, true}, {64, 42, true}, {64, 43, false}, {64, 128, false}, {64, 512, false},
		{256, 10, true}, {256, 11, false}, {256, 32, false}, {256, 128, false}, {256, 512, false},
	} {
		buckets := [][]slotRange{{{First: 0, Last: tc.slots - 1}}, nil}
		for _, probe := range []int{tc.planes - 1, tc.planes, tc.planes + 1} {
			c := newCache(tc.planes)
			command(c, buckets, probe)
			if err := c.refresh(buckets, fetch); err != nil {
				t.Fatal(err)
			}
			want := tc.admit && probe > tc.planes
			if got := c.pinnedFor(0) != nil; got != want {
				t.Errorf("%d planes, %d-slot page, probe of %d pages: pinned %v, want %v", tc.planes, tc.slots, probe, got, want)
			}
			if shut := c.stats.GateShut == 1; shut != (probe <= tc.planes) {
				t.Errorf("%d planes, probe of %d pages: gate shut %v", tc.planes, probe, shut)
			}
		}
	}

	// The decision follows the command stream: nothing is pinned by the
	// first command after deploy (no probe has been seen), a wide probe
	// opens the gate for the next command, a narrow one shuts it and drops
	// the pins, and a mutation drops them while the counters and the probe
	// width survive — the next command re-pins without a warm-up.
	c := newCache(8)
	buckets := [][]slotRange{{{First: 0, Last: 127}}, {{First: 512, Last: 639}, {First: 1024, Last: 1030}}}
	step := func(what string, wantPinned int64, wantFetched int) {
		t.Helper()
		if err := c.refresh(buckets, fetch); err != nil {
			t.Fatal(err)
		}
		if got := c.stats.PinnedBytes / c.pageCost(); got != wantPinned || fetched != wantFetched {
			t.Fatalf("%s: %d pages pinned after %d fetches, want %d after %d", what, got, fetched, wantPinned, wantFetched)
		}
	}
	fetched = 0
	step("first command after deploy", 0, 0)
	c.probe(0, buckets[0])
	c.probe(1, buckets[1])
	c.probed(9)
	step("after a 9-page probe on 8 planes", 3, 3)
	c.probe(1, buckets[1])
	c.probed(9)
	step("pins held", 3, 3)
	c.probe(1, buckets[1])
	c.probed(9)
	c.invalidate()
	if c.stats.PinnedBytes != 0 || c.pinnedFor(0) != nil || c.pinnedFor(1) != nil {
		t.Fatalf("pins survived invalidate: %+v", c.stats)
	}
	step("first command after invalidate", 3, 6)
	c.probe(1, buckets[1])
	c.probed(8)
	step("after an 8-page probe", 0, 6)
	if want := (CacheStats{PinFills: 6, PinEvictions: 6, Refreshes: 5, GateShut: 2}); c.stats != want {
		t.Fatalf("stats %+v, want %+v", c.stats, want)
	}
	if len(c.freePages) != 3 || len(c.freePins) != 2 {
		t.Fatalf("arena holds %d pages and %d records, want the 3 and 2 ever pinned at once", len(c.freePages), len(c.freePins))
	}
}

// pinTrace serves a command stream and records, after every command, the
// database's pinned clusters and CacheStats.
func pinTrace(t *testing.T, h submitter, core *hostCore, dbID int, cmds []HostCommand) (sets [][]int, stats []CacheStats) {
	t.Helper()
	for _, cmd := range cmds {
		mustSubmit(t, h, cmd)
		var set []int
		for cl, pc := range core.dbs[dbID].cache.pins {
			if pc != nil {
				set = append(set, cl)
			}
		}
		cs, err := core.CacheStats(dbID)
		if err != nil {
			t.Fatal(err)
		}
		sets, stats = append(sets, set), append(stats, cs)
	}
	return sets, stats
}

// TestPinSetsAcrossTopologies: pin admission reads global pages and the
// host's global plane count, so a sharded host and its N x channels
// reference hold identical pin sets and an identical CacheStats — the
// result side's bytes, entries, hits, misses and evictions with the pin
// side's — after every command: across widening and narrowing probes,
// pruning, one-query commands, a mutation and an exact repeat. So does
// every run at GOMAXPROCS 1 and 4.
func TestPinSetsAcrossTopologies(t *testing.T) {
	q := testData.Queries
	ivf := func(queries [][]float32, nprobe int, prune bool) HostCommand {
		return HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10,
			Opt: SearchOptions{NProbe: nprobe, SkipDocs: true, Prune: prune}}
	}
	cmds := []HostCommand{
		ivf(q[:8], 4, false), ivf(q[8:16], 4, false), ivf(q[:1], 6, false), ivf(q[1:2], 1, false),
		ivf(q[2:3], 4, false), ivf(q[4:12], 8, true), ivf(q[12:], 2, true),
		{Opcode: OpcodeDelete, DBID: 2, Del: &DeleteConfig{IDs: []int{3, 5}}},
		ivf(q[:8], 5, false), ivf(q[8:16], 3, true), ivf(q[8:16], 3, true),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range shardCounts {
		var wantSets [][]int
		var wantStats []CacheStats
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			single, err := New(refOf(cachedShardCfg(cacheSmallBudget), n), 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			deployBoth(t, single.Submit)
			sh, err := NewSharded(cachedShardCfg(cacheSmallBudget), n, 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			deployBoth(t, sh.Submit)
			sets, stats := pinTrace(t, single, &single.hostCore, 2, cmds)
			shSets, shStats := pinTrace(t, sh, &sh.hostCore, 2, cmds)
			single.Close()
			sh.Close()
			if !reflect.DeepEqual(shSets, sets) || !reflect.DeepEqual(shStats, stats) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: sharded pin trace diverges from the reference\n got %v %+v\nwant %v %+v",
					n, procs, shSets, shStats, sets, stats)
			}
			if wantSets == nil {
				wantSets, wantStats = sets, stats
			} else if !reflect.DeepEqual(sets, wantSets) || !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("shards=%d: pin trace at GOMAXPROCS=%d differs from GOMAXPROCS=1", n, procs)
			}
		}
		// Every reference pins and evicts; on the widest (8 planes at 4
		// shards) the one- and two-cluster probes also shut the gate again.
		last := wantStats[len(wantStats)-1]
		if last.PinFills == 0 || last.PinEvictions == 0 || (n == 4 && last.GateShut < 2) {
			t.Errorf("shards=%d: the stream did not exercise admission: %+v", n, last)
		}
		// Pins at their cap leave room for seven of the repeat's eight
		// results: the boundary moved under this stream too.
		if last.ResultHits == 0 || last.ResultSqueezes == 0 || last.ResultEntries == 0 {
			t.Errorf("shards=%d: the stream did not exercise the result cache: %+v", n, last)
		}
	}
}

// TestResultCacheHitAllocs: a result-cache hit allocates nothing of its
// own. The key is built in the cache's buffer and read in place, and the
// hit's records are copied into a window of the command's results block
// (its documents are views of flash, shared), so a command of hits
// allocates what an uncached one-device command does — its results, its
// stats and the results block, 3 — whatever its query count (2n+2 for n
// hits, before: a copy per hit).
func TestResultCacheHitAllocs(t *testing.T) {
	e, err := New(cachedShardCfg(cacheBigBudget), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deployBoth(t, e.Submit)
	for _, nq := range []int{1, 8} {
		cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}}
		queries := testData.Queries[:nq]
		out := new(outBlocks)
		serve := func() []QueryStats {
			*out = outBlocks{}
			if err := e.search(context.Background(), &cmd, queries, true, out); err != nil {
				t.Fatal(err)
			}
			return out.sts
		}
		serve()
		for qi, st := range serve() {
			if st.ResultCacheHits != 1 {
				t.Fatalf("nq=%d q%d: not a result-cache hit: %+v", nq, qi, st)
			}
		}
		if got, want := testing.AllocsPerRun(10, func() { serve() }), 3.0; got > want {
			t.Errorf("nq=%d: %.1f allocs for a command of hits, want at most %.0f", nq, got, want)
		}
	}
}

// TestResultCacheKeysOnRunNProbe: a result is cached under the nprobe
// the search ran, so an operand the run clamps shares its key with the
// one it ran and never with another. An nprobe of 1<<32 runs the full
// probe: the default-nprobe command after it must scan, not hit (its
// low 32 bits are zero); nprobe 1 then hits the default's entry, nlist
// the full probe's, and a brute-force search ignores nprobe.
func TestResultCacheKeysOnRunNProbe(t *testing.T) {
	e, err := New(cachedShardCfg(cacheBigBudget), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deployBoth(t, e.Submit)
	const nlist = 16
	queries := testData.Queries[:8]
	for _, step := range []struct {
		op     uint8
		db     int
		nprobe int
		hit    bool
	}{
		{OpcodeIVFSearch, 2, 1 << 32, false},
		{OpcodeIVFSearch, 2, 0, false},
		{OpcodeIVFSearch, 2, 1, true},
		{OpcodeIVFSearch, 2, nlist, true},
		{OpcodeSearch, 1, 3, false},
		{OpcodeSearch, 1, 0, true},
	} {
		resp := mustSubmit(t, e, HostCommand{Opcode: step.op, DBID: step.db, K: 10, Queries: queries, Opt: SearchOptions{NProbe: step.nprobe}})
		for qi, st := range resp.QueryStats {
			if hit := st.ResultCacheHits == 1; hit != step.hit || !hit && st.EntriesScanned == 0 {
				t.Fatalf("opcode %#x nprobe %d q%d: hit %v, want %v (%+v)", step.op, step.nprobe, qi, hit, step.hit, st)
			}
		}
	}
}

// TestPinChurnAllocs: pins live in a recycled arena and refresh ranks
// and re-decides without allocating, so a pin set that changes with
// every command — two queries of different topics alternating under a
// budget that holds one cluster, each command evicting the pin the next
// would have used — costs a command nothing over the same command on an
// uncached device.
func TestPinChurnAllocs(t *testing.T) {
	topic := func(qi int) int { return testData.ClusterOf[testData.GroundTruth[qi][0]] }
	other := 1
	for topic(other) == topic(0) {
		other++
	}
	pair := [][][]float32{testData.Queries[:1], testData.Queries[other:][:1]}
	measure := func(budget int64) (allocs float64, fills int64) {
		e, err := New(cachedShardCfg(budget), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		deployBoth(t, e.Submit)
		cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 1, SkipDocs: true}}
		turn := 0
		serve := func() {
			// Past the result cache, like CalibrateNProbe: every command scans.
			turn++
			if _, _, _, err := searchFresh(context.Background(), e, &cmd, pair[turn%2], false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			serve()
		}
		before, _ := e.CacheStats(2)
		allocs = testing.AllocsPerRun(20, serve)
		after, _ := e.CacheStats(2)
		return allocs, after.PinFills - before.PinFills
	}
	plain, _ := measure(0)
	churn, fills := measure(10 << 10)
	if fills < 21 {
		t.Fatalf("%d pages filled over 21 commands: the pin set did not churn", fills)
	}
	if churn > plain {
		t.Errorf("%.1f allocs/command while pins churn, %.1f uncached", churn, plain)
	}
}

// budgetInvariant checks the one-budget accounting after a command: pins
// and results together never exceed CacheDRAMBytes, and pins alone never
// exceed their cap.
func budgetInvariant(t testing.TB, what string, cs CacheStats, budget int64) {
	t.Helper()
	if pinCap := budget - budget/resultCacheDivisor; cs.PinnedBytes > pinCap {
		t.Fatalf("%s: %d bytes pinned, the cap is %d", what, cs.PinnedBytes, pinCap)
	}
	if cs.PinnedBytes+cs.ResultBytes > budget {
		t.Fatalf("%s: %d pinned + %d result bytes exceed the %d-byte budget", what, cs.PinnedBytes, cs.ResultBytes, budget)
	}
}

// TestCacheBudgetUnderChurn drives the moving boundary from both sides: a
// Zipf query script with append, delete and compact rounds on the
// four-plane cached device, where nprobe 4 is three waves (pins grow with
// popularity) under a budget the pins and a dozen results cannot share.
// After every command the budget invariant holds, results are
// bit-identical to an uncached host, and a two-shard host reports the same
// response and the same CacheStats as the reference.
func TestCacheBudgetUnderChurn(t *testing.T) {
	const budget = 40 << 10
	c := newMutCorpus()
	shCfg := pinGeo(mutTestCfg())
	refCfg := refOf(shCfg, 2)
	plain, err := New(refCfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	shCfg.CacheDRAMBytes, refCfg.CacheDRAMBytes = budget, budget
	single, err := New(refCfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sh, err := NewSharded(shCfg, 2, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	var last CacheStats
	step := func(what string, cmd HostCommand) HostResponse {
		t.Helper()
		want, got, gotSh := mustSubmit(t, plain, cmd), mustSubmit(t, single, cmd), mustSubmit(t, sh, cmd)
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: cached results diverge from uncached", what)
		}
		if d := respDiff(got, gotSh); d != "" {
			t.Fatalf("%s: sharded diverges from reference: %s", what, d)
		}
		cs, err := single.CacheStats(1)
		if err != nil {
			t.Fatal(err)
		}
		if csSh, err := sh.CacheStats(1); err != nil || csSh != cs {
			t.Fatalf("%s: sharded cache stats %+v, reference %+v (%v)", what, csSh, cs, err)
		}
		budgetInvariant(t, what, cs, budget)
		last = cs
		return got
	}

	step("deploy", HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: c.base, Docs: c.baseDocs, DocSlotBytes: 256,
		Centroids: c.cents, Assign: c.assign[:len(c.base)],
	}})
	rng := xrand.New(7)
	var appended []int
	for round := 0; round < 6; round++ {
		for i := 0; i < 16; i++ {
			q := testData.Queries[rng.Zipf(len(testData.Queries), 1.1)]
			step(fmt.Sprintf("round %d search %d", round, i), HostCommand{Opcode: OpcodeIVFSearch, DBID: 1,
				Queries: [][]float32{q}, K: 10, Opt: SearchOptions{NProbe: 4, Prune: i%4 == 3}})
		}
		what := fmt.Sprintf("round %d mutation", round)
		switch round % 3 {
		case 0:
			lo := round / 3 * 30
			resp := step(what, HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{
				Vectors: c.batch1[lo : lo+30], Docs: c.b1Docs[lo : lo+30],
				Assign: c.assign[len(c.base)+lo : len(c.base)+lo+30],
			}})
			appended = append(appended, resp.AppendedIDs...)
		case 1:
			ids := append([]int{round, 40 + round, 80 + round}, appended[:10]...)
			appended = appended[10:]
			step(what, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: ids}})
		case 2:
			step(what, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 1}})
		}
	}
	// The script must have worked the boundary: pins filled, repeats hit,
	// inserts and growing pins both evicted.
	if last.PinFills == 0 || last.ResultHits == 0 || last.ResultSqueezes == 0 || last.ResultEvictions <= last.ResultSqueezes {
		t.Errorf("the script did not exercise the boundary: %+v", last)
	}
}

// TestCacheBudgetUnpinnedHoldsWholeBudget: a database that pins nothing —
// an IVF one on SSD1, whose 256 planes take every probe in one wave, and a
// flat one, which has no clusters to pin — gives the result cache all of
// CacheDRAMBytes: n distinct queries leave min(n, budget / entry bytes)
// entries, eight times what the static 1/8 share held.
func TestCacheBudgetUnpinnedHoldsWholeBudget(t *testing.T) {
	const budget = 16 << 10
	cfg := ssd.SSD1()
	cfg.CacheDRAMBytes = budget
	e, err := New(cfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deployBoth(t, e.Submit)
	for _, tc := range []struct {
		name string
		op   uint8
		dbID int
	}{{"flat", OpcodeSearch, 1}, {"ivf", OpcodeIVFSearch, 2}} {
		cmd := HostCommand{Opcode: tc.op, DBID: tc.dbID, K: 10, Opt: SearchOptions{SkipDocs: true}}
		var entry int64
		for i, q := range testData.Queries {
			cmd.Queries = [][]float32{q}
			resp := mustSubmit(t, e, cmd)
			cs, err := e.CacheStats(tc.dbID)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				entry = cs.ResultBytes
				if len(resp.Results[0]) != 10 || entry == 0 || budget/entry < 7*(budget/resultCacheDivisor/entry) ||
					budget/entry >= int64(len(testData.Queries)) {
					t.Fatalf("%s: a %d-byte entry does not size this test", tc.name, entry)
				}
			}
			if want := min(int64(i+1), budget/entry); cs.ResultEntries != want || cs.ResultBytes != want*entry {
				t.Fatalf("%s: %d entries (%d bytes) after %d distinct queries, want %d", tc.name, cs.ResultEntries, cs.ResultBytes, i+1, want)
			}
			if cs.PinnedBytes != 0 || cs.GateShut != cs.Refreshes || (tc.op == OpcodeIVFSearch && cs.Refreshes != int64(i+1)) {
				t.Fatalf("%s: the tier was to pin nothing: %+v", tc.name, cs)
			}
			budgetInvariant(t, tc.name, cs, budget)
		}
	}
}

// TestCacheBudgetPinGrowthTrimsTail: when a pin set grows into DRAM the
// results hold, fill evicts from the LRU tail exactly as many entries as
// the new pages need — one fewer would not fit — and the most recently
// used entries still hit.
func TestCacheBudgetPinGrowthTrimsTail(t *testing.T) {
	f := &pageFormat{slotBytes: 32, embPerPage: 16, pageBytes: 512, oobBytes: 16 * oobBytesPerSlot}
	cfg := ssd.SSD1()
	cfg.Geo.Channels, cfg.Geo.DiesPerChannel, cfg.Geo.PlanesPerDie = 2, 2, 2
	c := newDBCache(cfg, f, 2)
	c.budget, c.pinBudget = 8*c.pageCost(), 7*c.pageCost()
	res := []DocResult{{ID: 1, Doc: make([]byte, 200)}}
	key := func(i int) []byte { return []byte{byte(i)} }
	entry := resultBytes(1, res)
	n := int(c.budget / entry)
	for i := 0; i < n+2; i++ {
		c.storeResult(key(i), res)
	}
	if cs := c.snapshot(); cs.ResultEntries != int64(n) || cs.ResultEvictions != 2 || cs.ResultSqueezes != 0 {
		t.Fatalf("before any pin: %+v, want %d entries after 2 evictions", cs, n)
	}
	// Two clusters of three and two pages; a 9-page probe on 8 planes opens
	// the gate, and each refresh pins what the previous command made hot.
	buckets := [][]slotRange{{{First: 0, Last: 47}}, {{First: 48, Last: 79}}}
	fetch := func(int, []byte) error { return nil }
	for cl, wantPages := range []int64{3, 5} {
		c.probe(cl, buckets[cl])
		c.probed(9)
		before := c.snapshot()
		if err := c.refresh(buckets, fetch); err != nil {
			t.Fatal(err)
		}
		room := c.budget - wantPages*c.pageCost()
		keep := room / entry
		evicted := before.ResultEntries - keep
		cs := c.snapshot()
		if cs.PinnedBytes != wantPages*c.pageCost() || cs.ResultEntries != keep || cs.ResultBytes != keep*entry ||
			cs.ResultSqueezes-before.ResultSqueezes != evicted || cs.ResultEvictions-before.ResultEvictions != evicted {
			t.Fatalf("%d pages pinned: %+v, want %d of %d entries kept in the %d bytes left", wantPages, cs, keep, before.ResultEntries, room)
		}
		budgetInvariant(t, "after fill", cs, c.budget)
		// The survivors are the most recently used; looking them up oldest
		// first keeps their order for the next round.
		for i := n + 2 - int(keep); i < n+2; i++ {
			if _, ok := c.lookupResult(key(i)); !ok {
				t.Fatalf("%d pages pinned: entry %d of the hot head was evicted", wantPages, i)
			}
		}
		if _, ok := c.lookupResult(key(n + 1 - int(keep))); ok {
			t.Fatalf("%d pages pinned: the tail entry survived", wantPages)
		}
	}
	// An insert the pins leave no room for is skipped, and one that fits
	// evicts only results.
	c.storeResult(key(200), []DocResult{{Doc: make([]byte, 3*c.pageCost())}})
	c.storeResult(key(201), res)
	if _, ok := c.lookupResult(key(200)); ok || c.stats.PinnedBytes != 5*c.pageCost() {
		t.Fatalf("an insert displaced pins: %+v", c.stats)
	}
	budgetInvariant(t, "after inserts", c.stats, c.budget)
}

// TestCacheBudgetOversizeInsertAllocs: storeResult sizes an entry from the
// caller's slice and copies only what it stores, so an insert that does
// not fit allocates nothing.
func TestCacheBudgetOversizeInsertAllocs(t *testing.T) {
	cfg := ssd.SSD1()
	cfg.CacheDRAMBytes = 1 << 10
	c := newDBCache(cfg, &pageFormat{}, 0)
	key, res := []byte("k"), []DocResult{{ID: 1, Doc: make([]byte, 2<<10)}}
	if got := testing.AllocsPerRun(10, func() { c.storeResult(key, res) }); got != 0 {
		t.Errorf("%.1f allocs for an insert that does not fit, want 0", got)
	}
	if cs := c.snapshot(); cs.ResultEntries != 0 || cs.ResultBytes != 0 {
		t.Errorf("the oversize entry was stored: %+v", cs)
	}
}

// TestPinnedScanCountsPrunedSlots: the slots a pinned scan drops at the
// pruning bound count in PrunedSlots, as the flash scan's do. A pruned
// query that aborts no segment scans every slot the unpruned one does,
// on flash or pinned, and either keeps it or drops it at the bound, so
// its quickselect input plus its pruned slots is the unpruned query's
// input. Every cluster is pinned, and k is small enough that the bound
// is live after the first rank window.
func TestPinnedScanCountsPrunedSlots(t *testing.T) {
	e, err := New(cachedShardCfg(cacheBigBudget), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployIVF(t, e, 1, 16)
	q := testData.Queries
	search(t, e, OpcodeIVFSearch, 1, q, 2, SearchOptions{NProbe: 16, SkipDocs: true}) // admits the pins
	opt := SearchOptions{NProbe: 8, SkipDocs: true}
	_, plain := search(t, e, OpcodeIVFSearch, 1, q, 2, opt)
	opt.Prune = true
	_, pruned := search(t, e, OpcodeIVFSearch, 1, q, 2, opt)
	checked, dropped := 0, 0
	for qi, p := range pruned {
		if p.PrunedPages != 0 || p.CachedPages == 0 {
			continue
		}
		if u := plain[qi]; p.SelectInput+p.PrunedSlots != u.SelectInput {
			t.Errorf("query %d: pruned select input %d + %d pruned slots, unpruned input %d (%d pinned pages)",
				qi, p.SelectInput, p.PrunedSlots, u.SelectInput, p.CachedPages)
		}
		checked++
		dropped += p.PrunedSlots
	}
	if checked == 0 || dropped == 0 {
		t.Fatalf("%d pinned queries without an aborted segment, %d slots pruned: the pinned bound was not exercised", checked, dropped)
	}
	t.Logf("%d pinned queries of %d without an aborted segment, %d slots pruned", checked, len(q), dropped)
}

// TestResultInsertAfterInvalidateAllocs: a mutation's invalidate keeps
// the records it drops for the inserts after it, so refilling the LRU
// allocates nothing once records exist.
func TestResultInsertAfterInvalidateAllocs(t *testing.T) {
	cfg := ssd.SSD1()
	cfg.CacheDRAMBytes = 64 << 10
	c := newDBCache(cfg, &pageFormat{}, 0)
	res := []DocResult{{ID: 1, Dist: 2, Doc: make([]byte, 200)}, {ID: 3, Dist: 4, Doc: make([]byte, 100)}}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "query-%d", i)
	}
	refill := func() {
		c.invalidate()
		for _, k := range keys {
			c.storeResult(k, res)
		}
	}
	refill()
	if got := testing.AllocsPerRun(10, refill); got != 0 {
		t.Errorf("%.1f allocs to refill %d entries after an invalidate, want 0", got, len(keys))
	}
	var bytes int64
	for _, k := range keys {
		bytes += resultBytes(len(k), res)
	}
	if cs := c.snapshot(); cs.ResultEntries != int64(len(keys)) || cs.ResultBytes != bytes {
		t.Fatalf("after the refills: %+v, want %d entries of %d bytes", cs, len(keys), bytes)
	}
	for _, k := range keys {
		if got, ok := c.lookupResult(k); !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("key %q: hit %v, results %v", k, ok, got)
		}
	}
}

// TestResultCacheHashCollisions: the result map is keyed on a hash of the
// key and settles a collision by comparing key bytes, so with every key
// hashing alike the LRU serves, misses and evicts exactly as it does
// with FNV-1a, over a random stream of lookups, inserts, updates, pin
// squeezes and invalidations.
func TestResultCacheHashCollisions(t *testing.T) {
	type outcome struct {
		hit bool
		res []DocResult
	}
	play := func() ([]outcome, CacheStats) {
		cfg := ssd.SSD1()
		cfg.CacheDRAMBytes = 8 << 10
		c := newDBCache(cfg, &pageFormat{}, 0)
		r := xrand.New(5)
		var outs []outcome
		for range 4000 {
			key := fmt.Appendf(nil, "k%d", r.Intn(40))
			switch op := r.Intn(100); {
			case op < 50:
				res, ok := c.lookupResult(key)
				outs = append(outs, outcome{ok, cloneResults(res)})
			case op < 95:
				n := 1 + r.Intn(4)
				res := make([]DocResult, n)
				for i := range res {
					res[i] = DocResult{ID: r.Intn(1000), Dist: float32(i), Doc: make([]byte, 50+r.Intn(400))}
				}
				c.storeResult(key, res)
			case op < 98:
				// A pin fill takes part of the budget, then gives it back.
				c.stats.PinnedBytes = int64(r.Intn(6 << 10))
				c.trim(0)
				c.stats.PinnedBytes = 0
			default:
				c.invalidate()
			}
			budgetInvariant(t, "collision stream", c.snapshot(), c.budget)
		}
		return outs, c.snapshot()
	}
	wantOuts, wantStats := play()
	fnv := keyHash
	keyHash = func([]byte) uint64 { return 7 }
	defer func() { keyHash = fnv }()
	gotOuts, gotStats := play()
	if gotStats != wantStats {
		t.Fatalf("every key on one hash: stats %+v, want %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(gotOuts, wantOuts) {
		t.Fatal("every key on one hash: a lookup returned other results than with FNV-1a")
	}
	if wantStats.ResultHits == 0 || wantStats.ResultEvictions == 0 {
		t.Fatalf("the stream neither hit nor evicted: %+v", wantStats)
	}
}
