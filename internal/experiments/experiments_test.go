package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"reis/internal/host"
	"reis/internal/reis"
	"reis/internal/ssd"
)

// Tests run at heavy scale divisors so the functional workloads stay
// small; the benchmark harness runs the same code at lower divisors.
const testScale = 64

func TestLoadWorkload(t *testing.T) {
	w := loadWorkload("NQ", testScale)
	if w.Data.Len() == 0 || len(w.Centroids) == 0 {
		t.Fatal("empty workload")
	}
	if len(w.Assign) != w.Data.Len() {
		t.Fatal("assignment length mismatch")
	}
	if w.BF.Fine <= 1 {
		t.Fatalf("BF.Fine = %v, expected > 1 for scaled-down run", w.BF.Fine)
	}
	if w.IVF.Coarse <= 1 {
		t.Fatalf("IVF.Coarse = %v", w.IVF.Coarse)
	}
}

// TestSetupsClosesEachSetup pins the lifetime the runners lean on: a
// setup handed out by setups is closed before the next one is built, and
// when the loop is left early.
func TestSetupsClosesEachSetup(t *testing.T) {
	w := loadWorkload("NQ", testScale)
	closed := func(s *setup) bool {
		_, err := s.Submit(reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: w.Data.Queries[:1], K: 1})
		return errors.Is(err, reis.ErrQueueClosed)
	}
	var seen []*setup
	for s, err := range setups(w, reis.AllOptions(), paperSSDs, 1, 2) {
		if err != nil {
			t.Fatal(err)
		}
		if closed(s) {
			t.Fatalf("setup %d handed out closed", len(seen))
		}
		for i, prev := range seen {
			if !closed(prev) {
				t.Errorf("setup %d still open while setup %d is live", i, len(seen))
			}
		}
		if seen = append(seen, s); len(seen) == 3 {
			break // of 4: SSD1 x {1, 2}, SSD2 x {1, 2}
		}
	}
	if len(seen) != 3 || seen[1].Devices != 2 || seen[2].Cfg.Name != paperSSDs[1].Name {
		t.Fatalf("unexpected iteration order: %d setups", len(seen))
	}
	if !closed(seen[2]) {
		t.Error("setup left open by an early exit from the loop")
	}
}

func TestRunFig7ShapeHolds(t *testing.T) {
	rows, err := RunFig7(testScale, []string{"NQ", "wiki_en"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*(1+len(recallTargets)) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Headline claims: REIS beats CPU-Real on every dataset/mode.
		if r.SSD1 <= 1 {
			t.Errorf("%s/%s: SSD1 speedup %.2f <= 1", r.Dataset, r.Mode, r.SSD1)
		}
		// SSD2 must beat SSD1 (2x channels, 1.7x bandwidth, 2x planes).
		if r.SSD2 <= r.SSD1 {
			t.Errorf("%s/%s: SSD2 %.2f <= SSD1 %.2f", r.Dataset, r.Mode, r.SSD2, r.SSD1)
		}
		// Energy efficiency gains exceed throughput gains (the SSD
		// draws ~30x less power).
		if r.SSD1QPSW <= r.SSD1 {
			t.Errorf("%s/%s: QPS/W gain %.2f <= QPS gain %.2f", r.Dataset, r.Mode, r.SSD1QPSW, r.SSD1)
		}
	}
	avg, maxS, avgW, maxW := SummarizeFig7(rows)
	t.Logf("speedup avg %.1fx max %.1fx (paper: 13x/112x); QPS/W avg %.1fx max %.1fx (paper: 55x/157x)",
		avg, maxS, avgW, maxW)
	if avg < 2 {
		t.Errorf("average speedup %.2f too low to reproduce the paper's shape", avg)
	}
	out := FormatFig7(rows)
	if !strings.Contains(out, "wiki_en") {
		t.Error("formatted output missing dataset")
	}
	// What the rows were computed from: setup.run's breakdown is a
	// per-field mean over the queries, so its phases sum to its Total
	// and its power is its energy over its time — not one query's.
	s, err := newSetup(ssd.SSD1(), 1, loadWorkload("NQ", testScale), reis.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bf, _, err := s.runBF(10)
	if err != nil {
		t.Fatal(err)
	}
	ivf, _, err := s.runIVF(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mode, b := range map[string]reis.Breakdown{"BF": bf, "IVF": ivf} {
		if b.Total <= 0 || b.IBC+b.Coarse+b.Fine+b.Rerank+b.Docs != b.Total {
			t.Errorf("%s: phases do not sum to Total: %+v", mode, b)
		}
		if b.AvgWatts != b.EnergyJ/b.Total.Seconds() {
			t.Errorf("%s: AvgWatts %v is not EnergyJ/Total = %v", mode, b.AvgWatts, b.EnergyJ/b.Total.Seconds())
		}
	}
}

// TestFig7RivalIgnoresCoarseReissue: a query whose coarse round the
// device re-issued scanned every centroid twice, but CPU-Real still
// scores nlist of them, so its row prices the same CPU throughput.
func TestFig7RivalIgnoresCoarseReissue(t *testing.T) {
	w := loadWorkload("NQ", testScale)
	nlist := len(w.Centroids)
	once := reis.QueryStats{EntriesScanned: nlist + 500, CoarseEntries: nlist}
	twice := once
	twice.EntriesScanned += nlist
	twice.CoarseEntries += nlist
	b := reis.Breakdown{Total: time.Millisecond, AvgWatts: 1}
	got := makeRow(w, "IVF", w.IVF, b, b, twice)
	want := makeRow(w, "IVF", w.IVF, b, b, once)
	if got.CPUQPS != want.CPUQPS || got.NoIO != want.NoIO {
		t.Fatalf("re-issued coarse round: CPUQPS %v NoIO %v, want %v %v", got.CPUQPS, got.NoIO, want.CPUQPS, want.NoIO)
	}
	if c := rivalCoarse(w, reis.QueryStats{EntriesScanned: 500}); c != 0 {
		t.Fatalf("a flat query scores %v centroids on the CPU, want 0", c)
	}
}

// TestCPUBaselineNoIODropsOnlyTheLoad: the No-I/O rival is CPU-Real
// with the paper-scale BQ dataset load taken out, so the two differ in
// per-query time by exactly that load amortized over the batch.
func TestCPUBaselineNoIODropsOnlyTheLoad(t *testing.T) {
	w := loadWorkload("NQ", testScale)
	qps, noIO := cpuBaselineQPS(w, 1e6, float64(len(w.Centroids)))
	if qps <= 0 || noIO <= qps {
		t.Fatalf("CPU-Real %v QPS, No-I/O %v QPS: want 0 < CPU-Real < No-I/O", qps, noIO)
	}
	load := host.LoadSeconds(host.DatasetBytesBQ(int(w.paperN()), w.Data.Dim, w.Desc.DocBytes), true)
	if got, want := 1/qps-1/noIO, load/queryBatch; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("CPU-Real pays %vs more per query than No-I/O, want the %vs amortized load", got, want)
	}
}

// TestMeanStatsDividesEveryField sets one QueryStats field at a time, so
// a field meanStats forgets to divide fails here.
func TestMeanStatsDividesEveryField(t *testing.T) {
	typ := reflect.TypeOf(reis.QueryStats{})
	for i := range typ.NumField() {
		var agg reis.QueryStats
		reflect.ValueOf(&agg).Elem().Field(i).SetInt(12)
		got := reflect.ValueOf(meanStats(agg, 4))
		for j := range typ.NumField() {
			want := int64(0)
			if j == i {
				want = 3
			}
			if v := got.Field(j).Int(); v != want {
				t.Errorf("%s = 12 over 4 queries: mean %s = %d, want %d", typ.Field(i).Name, typ.Field(j).Name, v, want)
			}
		}
	}
}

func TestRunFig9OptimizationOrdering(t *testing.T) {
	rows, err := RunFig9(testScale, []float64{0.94, 0.90})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DF < r.NoOpt {
			t.Errorf("%s@%.2f: +DF (%.2f) below No-OPT (%.2f)", r.SSD, r.Recall, r.DF, r.NoOpt)
		}
		if r.DFPL < r.DF*0.95 {
			t.Errorf("%s@%.2f: +PL (%.2f) below +DF (%.2f)", r.SSD, r.Recall, r.DFPL, r.DF)
		}
		if r.Full < r.DFPL*0.95 {
			t.Errorf("%s@%.2f: +MPIBC (%.2f) below +PL (%.2f)", r.SSD, r.Recall, r.Full, r.DFPL)
		}
		// DF must be the dominant optimization (paper: 4.7-5.7x of the
		// total stack's gain).
		dfGain := r.DF / r.NoOpt
		restGain := r.Full / r.DF
		if dfGain < restGain {
			t.Errorf("%s@%.2f: DF gain %.2f not dominant vs rest %.2f", r.SSD, r.Recall, dfGain, restGain)
		}
	}
	if out := FormatFig9(rows); !strings.Contains(out, "NO-OPT") {
		t.Error("format missing header")
	}
}

func TestRunASICSlowdownBand(t *testing.T) {
	rows, err := RunASIC(testScale, []string{"wiki_en"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown < 1.5 {
			t.Errorf("%s/%s@%.2f: ASIC slowdown %.2f < 1.5", r.Dataset, r.SSD, r.Recall, r.Slowdown)
		}
	}
	t.Log(FormatASIC(rows))
}

func TestRunFig10REISWins(t *testing.T) {
	rows, err := RunFig10(testScale, []string{"HotpotQA"})
	if err != nil {
		t.Fatal(err)
	}
	var bfICE float64
	for _, r := range rows {
		if r.SpeedupICE <= 1 {
			t.Errorf("%s/%s/%s: not faster than ICE (%.2f)", r.Dataset, r.Mode, r.SSD, r.SpeedupICE)
		}
		// ICE is slower than ICE-ESP, so the speedup over ICE is larger.
		if r.SpeedupICE <= r.SpeedupICEESP {
			t.Errorf("speedup over ICE (%.2f) not above ICE-ESP (%.2f)", r.SpeedupICE, r.SpeedupICEESP)
		}
		if r.Mode == "BF" && r.SSD == "REIS-SSD1" {
			bfICE = r.SpeedupICE
		}
	}
	// Paper: BF speedup over ICE greater than 10x.
	if bfICE < 5 {
		t.Errorf("BF speedup over ICE %.2f, paper reports > 10x", bfICE)
	}
	t.Log(FormatFig10(rows))
}

func TestRunFig11REISWins(t *testing.T) {
	rows, err := RunFig11(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupND <= 0.5 {
			t.Errorf("%s: speedup over NDSearch %.2f collapsed", r.Dataset, r.SpeedupND)
		}
	}
	t.Log(FormatFig11(rows))
}

func TestRunFig5Shape(t *testing.T) {
	pts, err := RunFig5(testScale)
	if err != nil {
		t.Fatal(err)
	}
	best := map[string]float64{}
	bestQPS := map[string]float64{}
	for _, p := range pts {
		if p.Recall > best[p.Algorithm] {
			best[p.Algorithm] = p.Recall
		}
		if p.NormQPS > bestQPS[p.Algorithm] {
			bestQPS[p.Algorithm] = p.NormQPS
		}
	}
	// Paper observations: IVF and HNSW reach high recall; BQ IVF is
	// much faster than exhaustive search; LSH is the weakest.
	if best["IVF"] < 0.9 {
		t.Errorf("IVF best recall %.2f < 0.9", best["IVF"])
	}
	if best["HNSW"] < 0.9 {
		t.Errorf("HNSW best recall %.2f < 0.9", best["HNSW"])
	}
	if bestQPS["BQ IVF"] < 1 {
		t.Errorf("BQ IVF never beat exhaustive search (%.2f)", bestQPS["BQ IVF"])
	}
	if best["LSH"] >= best["IVF"] && bestQPS["LSH"] >= bestQPS["BQ IVF"] {
		t.Error("LSH unexpectedly dominant")
	}
	t.Log(FormatFig5(pts))
}

func TestRunRAGBreakdown(t *testing.T) {
	rows, err := RunRAGBreakdown(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]RAGRow{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.System] = r
	}
	// Fig 2 shape: wiki_en flat is loading-dominated.
	we := byKey["wiki_en/CPU flat"].Stages.Fractions()
	if we.DatasetLoad < 0.6 {
		t.Errorf("wiki_en flat loading fraction %.2f (paper 0.84)", we.DatasetLoad)
	}
	// Fig 3 shape: BQ reduces loading share but wiki_en stays bound.
	bq := byKey["wiki_en/CPU+BQ"].Stages.Fractions()
	if bq.DatasetLoad >= we.DatasetLoad {
		t.Error("BQ did not reduce loading share")
	}
	if bq.DatasetLoad < 0.4 {
		t.Errorf("wiki_en BQ loading fraction %.2f (paper 0.67)", bq.DatasetLoad)
	}
	// Table 4 shape: REIS is generation-dominated and faster overall.
	reisRow := byKey["wiki_en/REIS-SSD1"]
	if f := reisRow.Stages.Fractions(); f.Generation < 0.7 {
		t.Errorf("REIS generation fraction %.2f (paper 0.92)", f.Generation)
	}
	if reisRow.Stages.Total() >= byKey["wiki_en/CPU+BQ"].Stages.Total() {
		t.Error("REIS end-to-end not faster than CPU+BQ")
	}
	t.Log(FormatRAG(rows))
}

func TestRunSkewCachingWins(t *testing.T) {
	// One skew point at two budgets keeps the test light; RunSkew
	// re-checks the page-partition contract against the budget-0
	// baseline internally, so a clean return already covers it.
	rows, err := RunSkew([]float64{1.2}, []int64{0, skewDefaultBudget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // {SSD1, SSD1/4p} x {0, default}
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		base, cached := rows[i], rows[i+1]
		if base.Device != cached.Device || base.Budget != 0 || base.Speedup != 1 || base.PinsOnly != 1 ||
			base.ResultsOnly != 1 || base.HitRate != 0 || base.CachedPages != 0 {
			t.Fatalf("budget-0 row not a clean baseline: %+v", base)
		}
		if cached.HitRate <= 0 {
			t.Errorf("no result-cache hits under Zipf s=1.2: %+v", cached)
		}
		// The tentpole claim: modeled throughput gains at least 1.5x from
		// the caching tier at the default budget under heavy skew — on
		// either device, from the result cache alone.
		if cached.Speedup < 1.5 || cached.ResultsOnly < 1.5 {
			t.Errorf("speedup %.2fx (results only %.2fx) < 1.5x at s=1.2, default budget", cached.Speedup, cached.ResultsOnly)
		}
	}
	// What the pins add depends on the planes. On SSD1 the 8-cluster probe
	// is one wave on 256 planes: nothing is admitted, and the tier is its
	// result cache exactly. On the four-plane cut the probe is two waves:
	// pins are admitted, served, worth something alone and more on top of
	// the result cache.
	ssd1, few := rows[1], rows[3]
	if ssd1.Device != "SSD1" || ssd1.CachedPages != 0 || ssd1.PinsOnly != 1 || ssd1.Speedup != ssd1.ResultsOnly {
		t.Errorf("SSD1 admitted pins on a one-wave probe: %+v", ssd1)
	}
	if few.Device != "SSD1/4p" || few.CachedPages <= 0 {
		t.Errorf("no pinned-cluster pages served on the four-plane device: %+v", few)
	}
	if few.PinsOnly <= 1.05 || few.Speedup <= few.ResultsOnly*1.05 {
		t.Errorf("pins do not pay on four planes: %+v", few)
	}
	if out := FormatSkew(rows); !strings.Contains(out, "skew-3k") || !strings.Contains(out, "pins only") {
		t.Error("format missing dataset or the per-half columns")
	}
}

func TestRunShardsScaling(t *testing.T) {
	rows, err := RunShards(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // {BF, IVF} x {1, 2, 4}
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	model := map[string]map[int]float64{}
	for _, r := range rows {
		if r.WallQPS <= 0 || r.ModelQPS <= 0 {
			t.Fatalf("%s shards=%d: non-positive throughput %+v", r.Mode, r.Shards, r)
		}
		mode := "IVF"
		if r.Mode == "BF" {
			mode = "BF"
		}
		if model[mode] == nil {
			model[mode] = map[int]float64{}
		}
		model[mode][r.Shards] = r.ModelQPS
	}
	// The modeled batch makespan is deterministic (it is a pure
	// function of the bit-identical device stats), so the scale-out
	// claim is assertable exactly: brute-force — the scan-bound best
	// case — must gain from sharding, and no mode may lose more than
	// rounding.
	if model["BF"][4] <= model["BF"][1]*1.2 {
		t.Fatalf("BF model QPS does not scale: 1 shard %.1f, 4 shards %.1f",
			model["BF"][1], model["BF"][4])
	}
	for _, mode := range []string{"BF", "IVF"} {
		for _, n := range []int{2, 4} {
			if model[mode][n] < model[mode][1]*0.95 {
				t.Fatalf("%s model QPS regressed with %d shards: %.1f vs %.1f",
					mode, n, model[mode][n], model[mode][1])
			}
		}
	}
}

func TestRunChurnWearLeveling(t *testing.T) {
	rows, err := RunChurn()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	wl, ff := rows[0], rows[1]
	if wl.Placement != "wear-leveled" || ff.Placement != "first-fit" {
		t.Fatalf("unexpected placement order: %q, %q", wl.Placement, ff.Placement)
	}
	if wl.CompactedRows < churnRounds || ff.CompactedRows < churnRounds {
		t.Fatalf("churn barely compacted: %+v / %+v", wl, ff)
	}
	// The wear-leveling claim: least-worn-first placement strictly
	// reduces the maximum per-block erase count under identical churn.
	if wl.MaxBlockErase == 0 || wl.MaxBlockErase >= ff.MaxBlockErase {
		t.Errorf("wear-leveled max erase %.0f not below first-fit %.0f", wl.MaxBlockErase, ff.MaxBlockErase)
	}
	// Copy-forward re-programs survivors, so amplification is > 1 and
	// identical across placement policies (same data motion, different
	// physical rows).
	if wl.WriteAmp <= 1 || wl.WriteAmp != ff.WriteAmp {
		t.Errorf("write amplification off: wear-leveled %.3f, first-fit %.3f", wl.WriteAmp, ff.WriteAmp)
	}
	if out := FormatChurn(rows); !strings.Contains(out, "first-fit") {
		t.Error("format missing placement")
	}
}
