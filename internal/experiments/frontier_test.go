package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestRunFrontierShape pins the frontier's contents: all three DRAM
// rivals and both flash configurations present, recalls valid,
// latencies positive, and the DRAM rivals paying a load term the
// flash rows don't.
func TestRunFrontierShape(t *testing.T) {
	rows, err := RunFrontier()
	if err != nil {
		t.Fatal(err)
	}
	bySystem := map[string][]FrontierRow{}
	for _, r := range rows {
		if r.Recall < 0 || r.Recall > 1 {
			t.Errorf("%s %s: recall %v out of range", r.System, r.Param, r.Recall)
		}
		if r.ServeMs <= 0 || r.TotalMs <= 0 {
			t.Errorf("%s %s: non-positive latency %v/%v", r.System, r.Param, r.ServeMs, r.TotalMs)
		}
		bySystem[r.System] = append(bySystem[r.System], r)
	}
	for _, sys := range []string{"HNSW", "LSH", "PQ-IVF", "REIS-pruned", "REIS-pruned+cached"} {
		if len(bySystem[sys]) < 3 {
			t.Errorf("system %s has %d rows, want >= 3", sys, len(bySystem[sys]))
		}
	}
	for _, r := range rows {
		isREIS := strings.HasPrefix(r.System, "REIS")
		if isREIS && r.TotalMs != r.ServeMs {
			t.Errorf("%s %s: flash rows pay no load term (%v != %v)", r.System, r.Param, r.TotalMs, r.ServeMs)
		}
		if !isREIS && r.TotalMs <= r.ServeMs {
			t.Errorf("%s %s: DRAM rival must pay a load term (%v <= %v)", r.System, r.Param, r.TotalMs, r.ServeMs)
		}
	}
	// The table must actually span the recall axis (the tiny functional
	// corpus saturates some individual sweeps, but the systems land at
	// different accuracies) and every sweep's knob must move its
	// modeled latency.
	distinct := map[float64]bool{}
	for _, r := range rows {
		distinct[r.Recall] = true
	}
	if len(distinct) < 2 {
		t.Errorf("frontier is flat on the recall axis: %v", distinct)
	}
	for sys, rs := range bySystem {
		lat := map[float64]bool{}
		for _, r := range rs {
			lat[r.ServeMs] = true
		}
		if len(lat) < 2 {
			t.Errorf("system %s: latency sweep is flat", sys)
		}
	}
	// The cached configuration changes where work happens, never what is
	// returned: recall matches the pruned run point for point (the
	// page-partition invariant). And it never costs latency: the tier pins
	// a cluster only where the timing model says the DRAM scan is cheaper
	// than the flash one, so the cached row sits at or below the pruned
	// row at every param.
	pruned := map[string]FrontierRow{}
	for _, r := range bySystem["REIS-pruned"] {
		pruned[r.Param] = r
	}
	for _, r := range bySystem["REIS-pruned+cached"] {
		base, ok := pruned[r.Param]
		if !ok {
			t.Fatalf("cached row %s has no pruned counterpart", r.Param)
		}
		if r.Recall != base.Recall {
			t.Errorf("cached %s recall %v != pruned %v", r.Param, r.Recall, base.Recall)
		}
		if r.ServeMs > base.ServeMs {
			t.Errorf("cached %s serves in %v ms, above pruned %v ms", r.Param, r.ServeMs, base.ServeMs)
		}
	}
	out := FormatFrontier(rows)
	for _, want := range []string{"HNSW", "LSH", "PQ-IVF", "REIS-pruned+cached", "recall"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted frontier missing %q", want)
		}
	}
}

// TestRunSLOShapeAndDeterminism pins the SLO sweep: every (depth,
// load) cell reports ordered quantiles, and the whole table is
// bit-identical across runs and GOMAXPROCS settings (the modeled
// distribution is a pure function of the deterministic stats).
func TestRunSLOShapeAndDeterminism(t *testing.T) {
	depths := []int{1, 8}
	loads := []float64{0.8}
	ref, err := RunSLO(testScale, depths, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(sloShardCounts)*len(depths)*len(loads) {
		t.Fatalf("rows = %d", len(ref))
	}
	for _, r := range ref {
		if r.ArrivalQPS <= 0 || r.ModelQPS <= 0 {
			t.Errorf("%+v: non-positive rates", r)
		}
		if !(r.ModelP50Ms > 0 && r.ModelP50Ms <= r.ModelP95Ms &&
			r.ModelP95Ms <= r.ModelP99Ms && r.ModelP99Ms <= r.ModelP999Ms) {
			t.Errorf("%+v: quantiles not ordered", r)
		}
		if r.ArrivalQPS >= r.ModelQPS {
			t.Errorf("%+v: pinned arrival rate must sit below saturation", r)
		}
	}
	out := FormatSLO(ref)
	if !strings.Contains(out, "p99") {
		t.Errorf("formatted SLO output missing quantile header:\n%s", out)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := RunSLO(testScale, depths, loads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("GOMAXPROCS=%d: SLO table diverged\nref: %+v\ngot: %+v", procs, ref, got)
		}
	}
}
