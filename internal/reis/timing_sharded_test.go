package reis

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"reis/internal/ssd"
)

// This file pins the timing model of the sharded topology: a golden
// table of Breakdown/BatchBreakdown values per (command, shard count),
// and the N=1 identity — a 1-shard ShardedEngine prices a response
// exactly as an Engine over the same config does.

// timingCase is one command priced by the model tests. The cached case
// runs on a host with the caching tier on — on the pinned-scan geometry
// (cachedShardCfg), where admission pins — after two warm-up commands,
// so the priced response mixes pinned-cluster scans with result-cache
// hits.
type timingCase struct {
	name   string
	cached bool
	sc     Scale
	cmd    HostCommand
}

func timingCases() []timingCase {
	q := testData.Queries[:8]
	return []timingCase{
		{"flat", false, paperScale, HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: q, K: 10}},
		{"ivf", false, paperScale, HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, Opt: SearchOptions{NProbe: 4}}},
		{"pruned", false, UnitScale(), HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, Opt: SearchOptions{NProbe: 8, Prune: true}}},
		{"cached", true, UnitScale(), HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, Opt: SearchOptions{NProbe: 4}}},
	}
}

// timingResponse serves the case's command: once, or — cached — three
// times with a different query set in between, so the last response
// holds result-cache hits and misses scanned partly from pinned pages.
func timingResponse(t *testing.T, submit func(HostCommand) (HostResponse, error), tc timingCase) HostResponse {
	t.Helper()
	cmd := tc.cmd
	if tc.cached {
		warm := cmd
		warm.Queries = testData.Queries[4:12]
		for _, c := range []HostCommand{warm, warm} {
			if _, err := submit(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := submit(cmd)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// timingGolden is one priced response: query 0's Breakdown and the whole
// batch's BatchBreakdown. Durations are nanoseconds.
type timingGolden struct {
	ibc, coarse, fine, rerank, docs, total time.Duration
	energyJ                                float64
	serial, plane, channel, core, makespan time.Duration
	batchEnergyJ                           float64
}

func goldenOf(b Breakdown, bb BatchBreakdown) timingGolden {
	return timingGolden{
		b.IBC, b.Coarse, b.Fine, b.Rerank, b.Docs, b.Total, b.EnergyJ,
		bb.Serial, bb.PlaneBusy, bb.ChannelBusy, bb.CoreBusy, bb.Makespan, bb.EnergyJ,
	}
}

// row prints g as a line of a golden table.
func (g timingGolden) row(key string) string {
	return fmt.Sprintf("\t%q: {%d, %d, %d, %d, %d, %d, %v,\n\t\t%d, %d, %d, %d, %d, %v},\n", key,
		g.ibc, g.coarse, g.fine, g.rerank, g.docs, g.total, g.energyJ,
		g.serial, g.plane, g.channel, g.core, g.makespan, g.batchEnergyJ)
}

// sameTiming compares two priced responses: every duration must be
// bit-identical; energies may differ by float re-association only (the
// model sums the same per-event terms, possibly in another order), so
// they are held to 1e-12 relative.
func sameTiming(a, b timingGolden) bool {
	relEq := func(x, y float64) bool {
		return x == y || math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
	}
	ea, eb := a.energyJ, b.energyJ
	ba, bb := a.batchEnergyJ, b.batchEnergyJ
	a.energyJ, b.energyJ, a.batchEnergyJ, b.batchEnergyJ = 0, 0, 0, 0
	return a == b && relEq(ea, eb) && relEq(ba, bb)
}

// shardedTimingGolden holds the values the parent of the host-core
// refactor produced, keyed "<case>/<shards>" — except the cached rows,
// regenerated when pin admission became the model's arithmetic: on the
// shard test geometry (8 to 32 planes, one page a cluster) a 4-cluster
// probe is one wave, so the tier pins nothing there and the old rows'
// pinned scans (fine = 45000 + 1165 ns of DRAM scan) no longer exist to
// be priced. The case moved to the pinned-scan geometry (2 to 8 planes,
// 512-byte pages) and a budget that also holds the warm-up's results:
// query 0 scans 294 pinned slots (2254 ns of core time on top of one
// flash wave) and queries 4-7 are result-cache hits. No model constant
// or formula changed there. pruned/2 and pruned/4 (unit scale) were
// regenerated when the broadcast became the dies a query loads instead
// of every die: on two and four devices some of the batch's queries scan
// one of a device's two dies per channel, so channel occupancy and
// broadcast energy fell (78922 -> 76343 ns, 69210 -> 62384 ns). Query
// 0's critical device loads both dies (ibc 6826 as before; on four
// devices another of its devices loads one, hence its energy), and every
// paper-scale row reaches the full broadcast, so nothing else moved.
// The ivf, pruned and cached rows' rerank, total, energy, serial, plane
// and makespan columns were regenerated when the INT8 copies moved into
// placement order: a query's candidates now share a few TLC pages (ivf/1:
// rerank 437076 -> 97076 ns, five TLC waves -> one). The IBC, coarse,
// fine, channel and core columns and every flat row (whose placement is
// the id order) are the values from before.
// Only the plane, makespan, QPS and batch-energy columns moved when a
// batch's plane column became its busiest plane instead of every query's
// whole waves stacked: the centroid pages every query senses, and a flat
// scan's, still stack; a query's own pages spread, the busiest plane
// carrying μ + √(2μ ln n) of a mean μ (pruned/1: plane 2656000 -> 2345998
// ns, makespan 3043839 -> 2733837). The one other change is
// the broadcast energy: it charges every latch the query loaded, not the
// busiest channel's loads on every channel, so query 0's energy fell on
// pruned/2 and pruned/4, the unit-scale rows where it loads channels
// unevenly. Every Breakdown duration and the serial, channel and core
// columns are the values from before.
// The coarse cut (the coarse round sends only centroids at or under
// coarseCut[nprobe]) moved the ivf, pruned and cached rows' energy,
// channel, core and batch-energy columns: fewer TTL-C entries cross and
// are selected (ivf/1: channel 8169580 -> 5577154 ns, core 6971025 ->
// 4763281). Every Breakdown duration, serial, plane and makespan column,
// and every flat row, are the values from before: these rows pipeline
// the coarse phase, which the sense bounds.
// Only the plane, channel, makespan, QPS and batch-energy columns moved
// when a batch's shared rounds (the coarse round; a flat database's
// round) began to run page-major where that lowers the round's bound:
// each page is sensed once and every query is loaded again for every
// wave. The flat rows' plane column fell about 3.3x and their channel
// rose (flat/1: plane 1222571293 -> 366086293 ns, channel 5169248 ->
// 302045640, makespan 983960753 -> 489079132); the ivf, pruned and cached
// rows share only their centroid pages (ivf/1: plane 331681998 ->
// 320184498). Every Breakdown duration and the serial and core columns
// are the values from before.
var shardedTimingGolden = map[string]timingGolden{
	"flat/1": {6826, 0, 122377500, 437076, 171437, 122992839, 1.4768869214283187,
		983960753, 366086293, 302045640, 4415921, 489079132, 3.864765474492886},
	"ivf/1": {6826, 1665000, 30105000, 97076, 171437, 32045339, 0.3836593381118726,
		267720753, 320184498, 9481626, 4763281, 267720753, 3.132855123598751},
	"pruned/1": {6826, 45000, 67500, 97076, 171437, 387839, 0.002353356688,
		3075753, 2188498, 97387, 96661, 2576337, 0.016173395712},
	"cached/1": {426, 45000, 47254, 864636, 427504, 1384820, 0.007485757156,
		5377102, 5115500, 34723, 58850, 5377102, 0.029056549376000003},
	"flat/2": {6826, 0, 64777500, 265796, 85904, 65136026, 1.5132830847323184,
		521104435, 193961996, 159841458, 2379361, 259098022, 4.010350034492884},
	"ivf/2": {6826, 0, 18585000, 95796, 85904, 18773526, 0.41116800141587256,
		173581935, 163333304, 8814029, 4208633, 173581935, 3.530071495030751},
	"pruned/2": {6826, 45000, 45000, 95796, 85904, 278526, 0.003199495416,
		2241022, 1339521, 76343, 94571, 1618047, 0.019472795112},
	"cached/2": {426, 45000, 47254, 437076, 256437, 786193, 0.008423587155999999,
		3066847, 2820500, 19468, 58850, 3066847, 0.032839509376000005},
	"flat/4": {6826, 0, 34582500, 180156, 85637, 34855119, 1.5590254013403184,
		278856273, 103690373, 85323832, 1312441, 138545492, 4.190279654492885},
	"ivf/4": {6826, 0, 15637500, 95156, 85637, 15825119, 0.5399353180238725,
		126053773, 109095681, 8442397, 3899115, 124920800, 4.2926693246787515},
	"pruned/4": {6826, 45000, 45000, 95156, 85637, 277619, 0.005966639992,
		2187860, 882934, 62076, 93251, 1160553, 0.026503557144},
	"cached/4": {426, 45000, 47254, 265796, 170904, 529380, 0.011149257155999999,
		2039222, 1800500, 11843, 58850, 2039222, 0.042955479376},
}

// timingCfg is one shard's device of the model tests.
func timingCfg(cached bool) ssd.Config {
	if cached {
		return cachedShardCfg(cacheBigBudget)
	}
	return testCfg()
}

func newTimingSharded(t *testing.T, n int, cached bool) *ShardedEngine {
	t.Helper()
	sh, err := NewSharded(timingCfg(cached), n, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	deployBoth(t, sh.Submit)
	return sh
}

// TestShardedTimingTable fixes the sharded latency/occupancy/energy
// model: any change to what ShardedEngine.Latency or BatchLatency
// return for these responses fails here.
func TestShardedTimingTable(t *testing.T) {
	var dump strings.Builder
	for _, n := range shardCounts {
		hosts := map[bool]*ShardedEngine{false: newTimingSharded(t, n, false), true: newTimingSharded(t, n, true)}
		for _, tc := range timingCases() {
			sh := hosts[tc.cached]
			resp := timingResponse(t, sh.Submit, tc)
			if len(resp.PerShard) != n {
				t.Fatalf("%s shards=%d: %d per-shard rows", tc.name, n, len(resp.PerShard))
			}
			b, err := sh.Latency(tc.cmd.DBID, resp.QueryStats[0], resp.ShardStats(0), tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := sh.BatchLatency(tc.cmd.DBID, resp.QueryStats, resp.PerShard, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", tc.name, n)
			got := goldenOf(b, bb)
			dump.WriteString(got.row(key))
			if want, ok := shardedTimingGolden[key]; !ok || !sameTiming(got, want) {
				t.Errorf("%s: model moved\n got %+v\nwant %+v", key, got, want)
			}
			if bb.Queries != len(resp.QueryStats) || bb.QPS != float64(bb.Queries)/bb.Makespan.Seconds() {
				t.Errorf("%s: batch of %d reports %d queries at %v QPS over %v", key, len(resp.QueryStats), bb.Queries, bb.QPS, bb.Makespan)
			}
			if b.AvgWatts != b.EnergyJ/b.Total.Seconds() {
				t.Errorf("%s: AvgWatts %v is not EnergyJ/Total", key, b.AvgWatts)
			}
		}
	}
	if t.Failed() {
		t.Logf("observed table:\n%s", dump.String())
	}
}

// ladderTimingGolden pins, on one device, what the AllOptions() rows
// above cannot reach: the unpipelined sum of a phase's stages (noopt, df),
// every scanned entry crossing the channel and linear survivor scaling
// (noopt; df at the pruned case's unit scale), the per-plane broadcast
// spread at paper scale (every rung below MPIBC), and the REIS-ASIC
// comparison point (asic: Engine.ASICLatency under AllOptions(), which
// has no batch form, so its batch half is zero). Keyed "<case>/<rung>";
// recorded at the parent of the one-bill refactor of timing.go. As above,
// the ivf, pruned and cached rows' rerank, total, energy and batch
// columns other than channel and core were regenerated when the INT8
// copies moved into placement order; IBC, coarse, fine, channel, core and
// every flat row are unchanged.
// As above, only the plane, makespan, QPS and batch-energy columns moved
// when a batch's plane column became its busiest plane, and query 0's
// energy on the unit-scale pruned rows (df, dfpl) with the broadcast
// energy's per-load charge. Every Breakdown duration, every asic row and
// the serial, channel and core columns are unchanged.
// The coarse cut moved the ivf, pruned and cached rows of the rungs that
// filter (df, dfpl): fewer TTL-C entries cross, so channel, core, energy
// and batch energy fell, and so did the unpipelined df rows' coarse phase
// and with it total, serial and makespan (ivf/df: coarse 3611402 ->
// 3023626 ns). Every noopt, flat and asic row — the distance filter off,
// or no coarse round — is unchanged to the digit.
// Page-major shared rounds moved the plane, channel, makespan and
// batch-energy columns of every row but asic, as above; without MPIBC a
// flat row's cycling loads are per plane, so its channel rose most
// (flat/df: channel 5223856 -> 598949336 ns, makespan 1232511777 ->
// 753011053). Every Breakdown duration, every asic row and the serial
// and core columns are unchanged.
var ladderTimingGolden = map[string]timingGolden{
	"flat/noopt": {13652, 0, 269819200, 451008, 171437, 270455297, 2.2152664345963187,
		2163642376, 366387000, 1101792856, 432703000, 1372248153, 8.292991356964887},
	"ivf/noopt": {13652, 3611402, 66334986, 196008, 171437, 70327485, 0.5754412775326725,
		587690739, 320903604, 145476743, 117265944, 391231089, 3.7533371388409913},
	"pruned/noopt": {10239, 28382, 32400, 196008, 171437, 438466, 0.0027668068160000003,
		3985811, 3124327, 178671, 187147, 3562793, 0.022377523378},
	"cached/noopt": {426, 28589, 30290, 1816341, 427504, 2303150, 0.012437448394,
		9419903, 9195500, 56088, 100817, 9419903, 0.050818708204},
	"flat/df": {13652, 0, 153439552, 437076, 171437, 154061717, 1.6322314097323187,
		1232511777, 366086293, 598949336, 4415921, 753011053, 5.188700910276886},
	"ivf/df": {13652, 3023626, 37724988, 97076, 171437, 41030779, 0.4285866364158726,
		342387041, 320184498, 13440706, 4763281, 342387041, 3.5062435799187512},
	"pruned/df": {13652, 28287, 57148, 97076, 171437, 367600, 0.002252235416,
		2901238, 2188498, 148582, 96661, 2556098, 0.01607276596},
	"cached/df": {426, 28368, 30254, 864636, 427504, 1351188, 0.007317597156,
		5276572, 5115500, 34723, 58850, 5276572, 0.028553899376000003},
	"flat/dfpl": {13652, 0, 122377500, 437076, 171437, 122999665, 1.4769211497323185,
		984015361, 366086293, 598949336, 4415921, 721949001, 5.0333906502768855},
	"ivf/dfpl": {13652, 1665000, 30105000, 97076, 171437, 32052165, 0.38369356641587254,
		267775361, 320184498, 13440706, 4763281, 267775361, 3.133185179918751},
	"pruned/dfpl": {13652, 45000, 67500, 97076, 171437, 394665, 0.0023875604159999996,
		3126948, 2188498, 148582, 96661, 2583163, 0.016208090959999998},
	"cached/dfpl": {426, 45000, 47254, 864636, 427504, 1384820, 0.007485757156,
		5377102, 5115500, 34723, 58850, 5377102, 0.029056549376000003},
	"flat/asic": {6826, 0, 135975000, 437076, 171437, 136590339, 1.4672401458318585,
		0, 0, 0, 0, 0, 0},
	"ivf/asic": {6826, 0, 35275000, 97076, 171437, 35550339, 0.3810131185072566,
		0, 0, 0, 0, 0, 0},
	"pruned/asic": {6826, 0, 75000, 97076, 171437, 350339, 0.0019320022000000002,
		0, 0, 0, 0, 0, 0},
	"cached/asic": {426, 0, 50000, 864636, 427504, 1342566, 0.006748854576,
		0, 0, 0, 0, 0, 0},
}

// TestOptionLadderTimingTable fixes the model below the top of Fig 9's
// optimization ladder and ASICLatency by value, as TestShardedTimingTable
// fixes the top.
func TestOptionLadderTimingTable(t *testing.T) {
	var dump strings.Builder
	for _, rung := range []struct {
		name string
		opts Options
	}{
		{"noopt", Options{}},
		{"df", Options{DistanceFilter: true}},
		{"dfpl", Options{DistanceFilter: true, Pipelining: true}},
		{"asic", AllOptions()},
	} {
		hosts := map[bool]*Engine{}
		for _, cached := range []bool{false, true} {
			e, err := New(timingCfg(cached), 64<<20, rung.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			deployBoth(t, e.Submit)
			hosts[cached] = e
		}
		for _, tc := range timingCases() {
			e := hosts[tc.cached]
			resp := timingResponse(t, e.Submit, tc)
			db, err := e.DB(tc.cmd.DBID)
			if err != nil {
				t.Fatal(err)
			}
			var got timingGolden
			if rung.name == "asic" {
				got = goldenOf(e.ASICLatency(db, resp.QueryStats[0], tc.sc), BatchBreakdown{})
			} else {
				got = goldenOf(e.Latency(db, resp.QueryStats[0], tc.sc), e.BatchLatency(db, resp.QueryStats, tc.sc))
			}
			key := tc.name + "/" + rung.name
			dump.WriteString(got.row(key))
			if want, ok := ladderTimingGolden[key]; !ok || !sameTiming(got, want) {
				t.Errorf("%s: model moved\n got %+v\nwant %+v", key, got, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("observed table:\n%s", dump.String())
	}
}

// TestShardedTimingRejectsMalformedShapes: the per-shard operands are
// hand-built matrices in every caller, so the model validates them — a
// wrong shard count or a row shorter (or longer) than the batch is an
// error, not an index panic.
func TestShardedTimingRejectsMalformedShapes(t *testing.T) {
	sh := newTimingSharded(t, 2, false)
	tc := timingCases()[1]
	resp := timingResponse(t, sh.Submit, tc)
	sts, rows := resp.QueryStats, resp.PerShard
	if _, err := sh.BatchLatency(tc.cmd.DBID, sts, rows, tc.sc); err != nil {
		t.Fatalf("well-formed batch: %v", err)
	}
	for name, bad := range map[string][][]QueryStats{
		"no rows":      nil,
		"one row":      rows[:1],
		"three rows":   {rows[0], rows[1], rows[1]},
		"short row":    {rows[0], rows[1][:len(sts)-1]},
		"long row":     {append(rows[0][:len(sts):len(sts)], QueryStats{}), rows[1]},
		"empty row":    {rows[0], nil},
		"short column": {rows[0][:1], rows[1][:1]},
	} {
		if _, err := sh.BatchLatency(tc.cmd.DBID, sts, bad, tc.sc); err == nil {
			t.Errorf("%s: BatchLatency accepted a malformed per-shard matrix", name)
		}
	}
	if _, err := sh.Latency(tc.cmd.DBID, sts[0], resp.ShardStats(0)[:1], tc.sc); err == nil {
		t.Error("Latency accepted one per-shard row for two shards")
	}
	if _, err := sh.BatchLatency(99, sts, rows, tc.sc); err == nil {
		t.Error("BatchLatency priced an unknown database")
	}
}

// TestOneShardPricesAsSingleDevice is the N=1 identity of the timing
// model: the same response priced through a 1-shard ShardedEngine and
// through an Engine over the same config.
func TestOneShardPricesAsSingleDevice(t *testing.T) {
	for _, cached := range []bool{false, true} {
		e, err := New(timingCfg(cached), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		deployBoth(t, e.Submit)
		sh := newTimingSharded(t, 1, cached)
		for _, tc := range timingCases() {
			if tc.cached != cached {
				continue
			}
			resp := timingResponse(t, sh.Submit, tc)
			single := timingResponse(t, e.Submit, tc)
			db, err := e.DB(tc.cmd.DBID)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range []Scale{UnitScale(), paperScale} {
				bb, err := sh.BatchLatency(tc.cmd.DBID, resp.QueryStats, resp.PerShard, sc)
				if err != nil {
					t.Fatal(err)
				}
				wantBB := e.BatchLatency(db, single.QueryStats, sc)
				for qi := range resp.QueryStats {
					b, err := sh.Latency(tc.cmd.DBID, resp.QueryStats[qi], resp.ShardStats(qi), sc)
					if err != nil {
						t.Fatal(err)
					}
					got, want := goldenOf(b, bb), goldenOf(e.Latency(db, single.QueryStats[qi], sc), wantBB)
					if !sameTiming(got, want) {
						t.Fatalf("%s q%d scale %+v: 1 shard and single device price differently\n got %+v\nwant %+v",
							tc.name, qi, sc, got, want)
					}
				}
			}
		}
	}
}
