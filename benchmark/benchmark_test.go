package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// The rule applied: 1000 samples of 1..1000 ms report p50 and p99.
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := summarize(d); got.N != 1000 || got.P50 != 500 || got.TailPct != 99 || got.Tail != 990 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) -> [q1, q2, q3]
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestFastestBlockIgnoresSlowStretches(t *testing.T) {
	// Two seconds of one client: 1 ms ops for half a second, a neighbour
	// doubling every op for a second, then 1 ms ops again. The window's
	// median op is a slowed one; the fastest block is not.
	var all []sample
	at := time.Duration(0)
	for at < 2*time.Second {
		lat := time.Millisecond
		if at >= 500*time.Millisecond && at < 1500*time.Millisecond {
			lat = 2 * time.Millisecond
		}
		at += lat
		all = append(all, sample{done: at, lat: lat})
	}
	// Completion order is not arrival order in the slice.
	all[0], all[len(all)-1] = all[len(all)-1], all[0]
	qps, p50 := fastestBlock(all, 2*time.Second, 8)
	if math.Abs(qps-8000) > 1 || p50 != 1 {
		t.Errorf("fastestBlock = %v queries/s, p50 %v ms; want 8000, 1", qps, p50)
	}
	// Fewer completions than one block of blockMultiple still report.
	if qps, p50 := fastestBlock(all[1:4], 2*time.Second, 1); qps <= 0 || p50 != 1 {
		t.Errorf("fastestBlock of 3 samples = %v, %v", qps, p50)
	}
}

// opShape is what must repeat for a seed: which queries, which command.
type opShape struct {
	Queries []int
	Opcode  uint8
	NProbe  int
	Prune   bool
	HTTP    bool
	Mutate  bool
}

func shapes(ops []op) []opShape {
	out := make([]opShape, len(ops))
	for i, o := range ops {
		out[i] = opShape{o.queries, o.cmd.Opcode, o.cmd.Opt.NProbe, o.cmd.Opt.Prune, o.http, o.mutate}
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	c := buildCorpus(smokeSizes)
	for _, w := range workloads() {
		a, b := shapes(w.schedule(c, 7, 256)), shapes(w.schedule(c, 7, 256))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if other := shapes(w.schedule(c, 8, 256)); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
	}
	// Zipf frequencies are fixed; only the order is seeded.
	count := func(seed uint64) map[int]int {
		n := map[int]int{}
		for _, o := range workloadByName("skew_pruned_cached").schedule(c, seed, 256) {
			n[o.query]++
		}
		return n
	}
	if !reflect.DeepEqual(count(7), count(8)) {
		t.Error("skew_pruned_cached: query frequencies differ between seeds")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: spanClient, Req: "a", Start: 0, End: 100},
		{Name: spanGateway, Req: "a", Parent: spanClient, Start: 10, End: 90},
		// A broadcast whose two replica shares overlap: [10,60] u [40,80]
		// covers 70 of the parent's 100.
		{Name: spanGroup, Req: "m", Start: 0, End: 100},
		{Name: spanHost, Req: "m", Parent: spanGroup, Start: 10, End: 60},
		{Name: spanHost, Req: "m", Parent: spanGroup, Start: 40, End: 80},
		// Another request's child must not be charged to "a".
		{Name: spanGateway, Req: "b", Parent: spanClient, Start: 0, End: 1000},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		spanClient:  20,
		spanGateway: 80 + 1000,
		spanGroup:   30,
		spanHost:    50 + 40,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSLORateInterpolatesTheCrossing(t *testing.T) {
	rates := []float64{100, 110, 121}
	p99 := map[float64]time.Duration{100: 4 * time.Millisecond, 110: 8 * time.Millisecond, 121: 20 * time.Millisecond}
	at := func(backlog int) func(float64) (time.Duration, int) {
		return func(r float64) (time.Duration, int) { return p99[r], backlog }
	}
	if got := sloRate(rates, 6*time.Millisecond, 10, at(1)); got != 105 {
		t.Errorf("crossing between 100 and 110: got %v, want 105", got)
	}
	if got := sloRate(rates, time.Millisecond, 10, at(1)); math.Abs(got-100/sloStepRatio) > 1e-9 {
		t.Errorf("below the ladder: got %v", got)
	}
	if got := sloRate(rates, time.Second, 10, at(1)); got != 121 {
		t.Errorf("every rate meets the limit: got %v", got)
	}
	if got := sloRate(rates, time.Second, 10, at(11)); math.Abs(got-100/sloStepRatio) > 1e-9 {
		t.Errorf("backlog over the cap at the lowest rate: got %v", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	noisy := []float64{60, 140, 100, 75, 125}
	for _, tc := range []struct {
		name         string
		base, change []float64
		higherBetter bool
		want         string
	}{
		{"lower-better 20% up", steady, []float64{120, 121, 119}, false, "worse"},
		{"lower-better 5% up", steady, []float64{105, 104, 106}, false, "same"},
		{"higher-better 20% down", steady, []float64{80, 81, 79}, true, "worse"},
		{"higher-better up", steady, []float64{130}, true, "same"},
		{"spread wider than bound", noisy, []float64{100, 101, 99}, false, "unresolved"},
		{"spread wide but every run better", noisy, []float64{50, 55}, false, "same"},
	} {
		if got := verdict(tc.base, tc.change, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := write("BENCHMARK.json", map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}},
	})
	run := func(v float64, failed int) reportRun {
		return reportRun{Workload: "w", result: result{
			Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metric{"lat_ms": {v, "ms"}},
		}}
	}
	base := write("a.json", []reportRun{run(10, 0), run(10.1, 0), run(9.9, 0)})
	for _, tc := range []struct {
		name      string
		change    []reportRun
		wantWorse bool
		wantWord  string
	}{
		{"same report", []reportRun{run(10, 0), run(10.1, 0), run(9.9, 0)}, false, "same"},
		{"20% slower", []reportRun{run(12, 0), run(12.1, 0), run(11.9, 0)}, true, "worse"},
		// Faster, but one op failed where the base failed none.
		{"faster by failing", []reportRun{run(5, 0), run(5.1, 1), run(4.9, 0)}, true, "worse"},
		// The change report has no run of the workload at all.
		{"workload missing", []reportRun{{Workload: "other", result: run(10, 0).result}}, true, "missing"},
		// The change report lacks the metric.
		{"metric missing", []reportRun{{Workload: "w", result: result{Correct: true, Attempted: 1000}}}, true, "missing"},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, specPath, base, write("b.json", tc.change))
		if err != nil || worse != tc.wantWorse || !strings.Contains(out.String(), tc.wantWord) {
			t.Errorf("%s: worse=%v (want %v) err=%v, want a %q row\n%s", tc.name, worse, tc.wantWorse, err, tc.wantWord, out.String())
		}
	}
	// A base that already fails is not made worse by the same share.
	failing := write("c.json", []reportRun{run(10, 2), run(10.1, 0), run(9.9, 0)})
	if worse, err := compareReports(io.Discard, specPath, failing, failing); err != nil || worse {
		t.Errorf("failing base against itself: worse=%v err=%v", worse, err)
	}
}

// TestWatchdogFiresOnlyWhenNothingCompletes: while ops tick the guard
// stays quiet; once they stop it dumps and exits non-zero.
func TestWatchdogFiresOnlyWhenNothingCompletes(t *testing.T) {
	oldTimeout, oldExit, oldOut := hangTimeout, watchdogExit, watchdogOut
	defer func() { hangTimeout, watchdogExit, watchdogOut = oldTimeout, oldExit, oldOut }()
	hangTimeout = 100 * time.Millisecond
	watchdogOut = io.Discard // the goroutine dump is long
	fired := make(chan int, 1)
	watchdogExit = func(code int) {
		select {
		case fired <- code:
		default:
		}
	}
	wd, stop := startWatchdog("hung")
	defer stop()
	for busy := time.Now().Add(3 * hangTimeout); time.Now().Before(busy); time.Sleep(hangTimeout / 20) {
		wd.tick()
	}
	select {
	case <-fired:
		t.Fatal("watchdog fired while ops were completing")
	default:
	}
	select {
	case code := <-fired:
		if code == 0 {
			t.Error("watchdog exited with code 0")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

// TestSmoke runs every workload end to end and layer by layer on the
// 1024-vector corpus with windows of a fraction of a second: every op
// must succeed and match the reference, and every metric must be there.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		spec
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		seed: 3, sz: smokeSizes, modelOps: 64, outDir: t.TempDir(),
		warm: 20 * time.Millisecond, window: 200 * time.Millisecond,
	}
	if raceEnabled {
		cfg.warm, cfg.window = 200*time.Millisecond, 4*time.Second
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads()))
	}
	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// The frozen rates belong to the full corpus; the smoke corpus
			// paces itself.
			w.RateQPS, w.LadderBaseQPS, w.SLOLimitMs = 0, 0, 0
			e2e, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
				t.Errorf("end to end: correct=%v failed=%d attempted=%d", e2e.Correct, e2e.Failed, e2e.Attempted)
			}
			for _, m := range sp.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			if len(e2e.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%d end-to-end metrics reported, BENCHMARK.json names %d", len(e2e.Metrics), len(sp.EndToEnd))
			}
			layers, err := runPerLayer(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.Correct {
				t.Errorf("per layer: failed=%d of %d", layers.Failed, layers.Attempted)
			}
			for _, m := range sp.PerLayer {
				if got, ok := layers.Metrics[m.Name]; !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer metric %s: got %+v (present %v)", m.Name, got, ok)
				}
			}
			if len(layers.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json names %d", len(layers.Metrics), len(sp.PerLayer))
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
