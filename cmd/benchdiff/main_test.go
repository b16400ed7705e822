package main

import (
	"maps"
	"math"
	"strings"
	"testing"
)

// sec builds a section generated at -scale 16.
func sec(id string, roles map[string]string, rows ...map[string]any) section {
	return section{ID: id, Scale: 16, Roles: roles, Rows: rows}
}

// throughputRoles are the roles of mkReport's columns.
var throughputRoles = map[string]string{
	"Dataset": "id", "Mode": "id", "Batch": "id",
	"ModelQPS": "exact", "WallQPS": "report", "AllocsPerOp": "allocs",
	"PlaneBusyShare": "busy", "ChannelBusyShare": "busy", "CoreBusyShare": "busy",
}

func mkReport(modelQPS, wallQPS, allocs float64) *report {
	return &report{Experiments: []section{sec("throughput", throughputRoles, map[string]any{
		"Dataset": "NQ", "Mode": "IVF@np2", "Batch": float64(8),
		"ModelQPS": modelQPS, "WallQPS": wallQPS, "AllocsPerOp": allocs,
	})}}
}

// TestDiffPassesWithinTolerance: the wall clock and an allocs rise
// inside the slack pass, while the model clock has no tolerance — a
// ModelQPS change of either sign fails.
func TestDiffPassesWithinTolerance(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	if v, _, _ := diff(base, mkReport(1000, 1200, 25)); len(v) != 0 {
		t.Fatalf("wall noise and allocs within slack: violations %v", v)
	}
	for _, qps := range []float64{900, 1100} {
		v, _, _ := diff(base, mkReport(qps, 2000, 24.5))
		if len(v) != 1 || !strings.Contains(v[0], "ModelQPS") {
			t.Fatalf("ModelQPS 1000 -> %v: violations %v", qps, v)
		}
	}
}

func TestDiffCatchesModelRegression(t *testing.T) {
	v, _, _ := diff(mkReport(1000, 2000, 24.5), mkReport(700, 2000, 24.5))
	if len(v) != 1 || !strings.Contains(v[0], "ModelQPS") {
		t.Fatalf("violations: %v", v)
	}
}

func TestDiffCatchesAllocIncrease(t *testing.T) {
	v, _, _ := diff(mkReport(1000, 2000, 24.5), mkReport(1000, 2000, 25.5))
	if len(v) != 1 || !strings.Contains(v[0], "AllocsPerOp") {
		t.Fatalf("violations: %v", v)
	}
}

func TestDiffSkipsUnmatchedRows(t *testing.T) {
	// A current row the baseline lacks (a new configuration) is a note,
	// as long as every baseline row of the section is still matched.
	base := mkReport(1000, 2000, 24.5)
	cur := mkReport(1000, 2000, 24.5)
	extra := map[string]any{}
	for k, v := range cur.Experiments[0].Rows[0] {
		extra[k] = v
	}
	extra["Batch"] = float64(64)
	cur.Experiments[0].Rows = append(cur.Experiments[0].Rows, extra)
	v, notes, _ := diff(base, cur)
	if len(v) != 0 || len(notes) != 1 {
		t.Fatalf("violations %v notes %v", v, notes)
	}
}

// TestDiffFailsOnUngatedBaselineRows: a section both reports carry must
// be compared row for row. A baseline row with no counterpart fails, and
// so does a section where nothing matched — which is what changing one
// id column's values does to every row at once.
func TestDiffFailsOnUngatedBaselineRows(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	second := map[string]any{
		"Dataset": "NQ", "Mode": "IVF@np2", "Batch": float64(1),
		"ModelQPS": 800.0, "WallQPS": 1500.0, "AllocsPerOp": 6.0,
	}
	base.Experiments[0].Rows = append(base.Experiments[0].Rows, second)
	// The Batch=1 row is gone from the current report.
	v, _, _ := diff(base, mkReport(1000, 2000, 24.5))
	if len(v) != 1 || !strings.Contains(v[0], "Batch=1") || !strings.Contains(v[0], "no counterpart") {
		t.Fatalf("missing baseline row not flagged: %v", v)
	}
	// Every current row's Mode changed: nothing matches.
	cur := mkReport(1000, 2000, 24.5)
	cur.Experiments[0].Rows[0]["Mode"] = "IVF@np4"
	v, _, _ = diff(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "none of the 1 current rows") {
		t.Fatalf("fully unmatched section not flagged: %v", v)
	}
	// A section the current report does not carry at all is a partial
	// run, not a failure.
	cur = mkReport(1000, 2000, 24.5)
	cur.Experiments[0].ID = "qdepth"
	base.Experiments = append(base.Experiments, cur.Experiments...)
	if v, _, _ := diff(base, cur); len(v) != 0 {
		t.Fatalf("partial run flagged: %v", v)
	}
}

// TestDiffRefusesAllocsAcrossGOMAXPROCS: allocs/op depends on the
// per-P pools, so a comparison across settings is refused (one
// violation, whatever the values), while the model columns are still
// gated.
func TestDiffRefusesAllocsAcrossGOMAXPROCS(t *testing.T) {
	base, cur := mkReport(1000, 2000, 24.5), mkReport(1000, 2000, 20)
	base.GOMAXPROCS, cur.GOMAXPROCS = 1, 2
	v, _, _ := diff(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "GOMAXPROCS") {
		t.Fatalf("cross-GOMAXPROCS allocs comparison not refused: %v", v)
	}
	cur.Experiments[0].Rows[0]["ModelQPS"] = 700.0
	if v, _, _ = diff(base, cur); len(v) != 2 {
		t.Fatalf("model regression must still gate: %v", v)
	}
	// Sections without the column (slo, churn) compare at any setting.
	sb, sc := sloReport(10), sloReport(10)
	sb.GOMAXPROCS, sc.GOMAXPROCS = 1, 4
	if v, _, _ := diff(sb, sc); len(v) != 0 {
		t.Fatalf("alloc-free section refused: %v", v)
	}
}

func TestDiffSkewSectionAbsentFromBaseline(t *testing.T) {
	// A baseline that predates the skew experiment must not fail the
	// gate, and the skew metrics (HitRate, CachedPages, Speedup, ...)
	// must be treated as metrics, not identity: a skew row whose
	// baseline row exists matches on {Dataset, Device, S, Budget} alone.
	skewRoles := map[string]string{
		"Dataset": "id", "Device": "id", "S": "id", "Budget": "id", "ModelQPS": "exact",
		"HitRate": "report", "FinePages": "report", "CachedPages": "report", "BaseFinePages": "report",
		"Speedup": "report", "PinsOnly": "report", "ResultsOnly": "report",
	}
	base := mkReport(1000, 2000, 24.5)
	cur := mkReport(1000, 2000, 24.5)
	skewRow := func(qps, hitRate, cached float64) map[string]any {
		return map[string]any{
			"Dataset": "skew-3k", "Device": "SSD1/4p", "S": 1.2, "Budget": float64(4 << 20),
			"HitRate": hitRate, "FinePages": 2.0, "CachedPages": cached,
			"BaseFinePages": 9.0, "ModelQPS": qps, "Speedup": qps / 1000,
			"PinsOnly": 1 + cached/50, "ResultsOnly": 1 + hitRate,
		}
	}
	cur.Experiments = append(cur.Experiments, sec("skew", skewRoles, skewRow(1800, 0.5, 7)))
	v, notes, _ := diff(base, cur)
	if len(v) != 0 {
		t.Fatalf("skew section absent from baseline must not violate: %v", v)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "skew") {
		t.Fatalf("notes: %v", notes)
	}

	// Once the baseline has the section, metric drift must not break
	// row matching (metrics excluded from the key) and a ModelQPS
	// regression must gate.
	base.Experiments = append(base.Experiments, sec("skew", skewRoles, skewRow(1800, 0.6, 8)))
	if v, _, _ := diff(base, cur); len(v) != 0 {
		t.Fatalf("metric drift broke skew row matching: %v", v)
	}
	cur.Experiments[1].Rows[0]["ModelQPS"] = 900.0
	v, _, _ = diff(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "ModelQPS") {
		t.Fatalf("skew ModelQPS regression not gated: %v", v)
	}
}

// sloReport builds a report with one slo-sweep row at the given p99.
func sloReport(p99 float64) *report {
	roles := map[string]string{
		"Dataset": "id", "Mode": "id", "Shards": "id", "Depth": "id", "Load": "id",
		"ArrivalQPS": "report", "ModelQPS": "exact", "ModelP50Ms": "report", "ModelP95Ms": "report",
		"ModelP99Ms": "exact", "ModelP999Ms": "report", "MeanBatch": "report", "MaxBacklog": "report",
	}
	return &report{Experiments: []section{sec("slo", roles, map[string]any{
		"Dataset": "NQ", "Mode": "IVF@np2", "Shards": float64(1),
		"Depth": float64(8), "Load": "0.80",
		"ArrivalQPS": 800.0, "ModelQPS": 1000.0,
		"ModelP50Ms": 1.0, "ModelP95Ms": 2.0, "ModelP99Ms": p99,
		"ModelP999Ms": p99 * 1.5, "MeanBatch": 2.5, "MaxBacklog": float64(6),
	})}}
}

// TestDiffSLOGateCatchesP99Regression pins the SLO gate: any p99
// change fails, a rise or a fall, while the report-only quantiles never
// do.
func TestDiffSLOGateCatchesP99Regression(t *testing.T) {
	base := sloReport(10)
	for _, p99 := range []float64{14, 12, 2} {
		v, _, _ := diff(base, sloReport(p99))
		if len(v) != 1 || !strings.Contains(v[0], "ModelP99Ms") {
			t.Fatalf("p99 10 -> %v not gated: %v", p99, v)
		}
	}
	// Report-only quantiles are never compared.
	cur := sloReport(10)
	cur.Experiments[0].Rows[0]["ModelP999Ms"] = 100.0
	v, notes, _ := diff(base, cur)
	if len(v) != 0 {
		t.Fatalf("report-only quantile violated: %v", v)
	}
	if len(notes) != 0 {
		t.Fatalf("notes: %v", notes)
	}
}

// TestDiffSLOSectionAbsentFromBaseline pins the report-only behaviour
// for new sections: a baseline that predates the slo sweep gets one
// note and no violations, however bad the current quantiles look.
func TestDiffSLOSectionAbsentFromBaseline(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	cur := mkReport(1000, 2000, 24.5)
	cur.Experiments = append(cur.Experiments, sloReport(1e9).Experiments...)
	v, notes, _ := diff(base, cur)
	if len(v) != 0 {
		t.Fatalf("slo section absent from baseline must not violate: %v", v)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "slo") {
		t.Fatalf("notes: %v", notes)
	}
}

func TestDiffNotesMissingExperimentOnce(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	cur := mkReport(1000, 2000, 24.5)
	cur.Experiments = append(cur.Experiments, sec("prune",
		map[string]string{"Dataset": "id", "Mode": "id", "K": "id", "ModelQPS": "exact"},
		map[string]any{"Dataset": "NQ", "Mode": "base", "K": float64(10), "ModelQPS": 900.0},
		map[string]any{"Dataset": "NQ", "Mode": "prune", "K": float64(10), "ModelQPS": 1800.0},
		map[string]any{"Dataset": "NQ", "Mode": "prune", "K": float64(100), "ModelQPS": 1500.0},
	))
	v, notes, _ := diff(base, cur)
	if len(v) != 0 {
		t.Fatalf("a baseline-less experiment must not violate: %v", v)
	}
	// One note for the whole missing section, not one per row.
	if len(notes) != 1 || !strings.Contains(notes[0], "prune") || !strings.Contains(notes[0], "3 rows") {
		t.Fatalf("notes: %v", notes)
	}
}

// TestDiffChurnCountsGateOnEquality: the churn sweep's GC event counts
// fail on any difference, in either direction — one fewer erase is as
// much a behaviour change as one more — while identical rows pass.
func TestDiffChurnCountsGateOnEquality(t *testing.T) {
	roles := map[string]string{
		"Dataset": "id", "Placement": "id", "Rounds": "id", "Batch": "id",
		"CompactedRows": "exact", "BlockErases": "exact", "MaxBlockErase": "exact", "WriteAmp": "exact",
	}
	mk := func(rows, erases, maxErase, writeAmp float64) *report {
		return &report{Experiments: []section{sec("churn", roles, map[string]any{
			"Dataset": "churn", "Placement": "wear-leveled", "Rounds": float64(20), "Batch": float64(63),
			"CompactedRows": rows, "BlockErases": erases, "MaxBlockErase": maxErase, "WriteAmp": writeAmp,
		})}}
	}
	base := mk(46, 92, 2, 1.6981119465329992)
	if v, _, _ := diff(base, mk(46, 92, 2, 1.6981119465329992)); len(v) != 0 {
		t.Fatalf("identical churn rows flagged: %v", v)
	}
	for field, cur := range map[string]*report{
		"CompactedRows": mk(45, 92, 2, 1.6981119465329992),
		"BlockErases":   mk(46, 94, 2, 1.6981119465329992),
		"MaxBlockErase": mk(46, 92, 1, 1.6981119465329992),
		"WriteAmp":      mk(46, 92, 2, 1.6981119465329990),
	} {
		v, _, _ := diff(base, cur)
		if len(v) != 1 || !strings.Contains(v[0], field) {
			t.Fatalf("%s drift: violations %v", field, v)
		}
	}
}

// TestDiffNotesBusyShareAboveOne: a current row whose plane, channel or
// core busy share exceeds 1 — the makespan clamp undercutting occupancy —
// gets one report-only note per share, whether or not the baseline has
// the row, and never a violation.
func TestDiffNotesBusyShareAboveOne(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	cur := mkReport(1000, 2000, 24.5)
	row := cur.Experiments[0].Rows[0]
	row["PlaneBusyShare"], row["ChannelBusyShare"], row["CoreBusyShare"] = 1.031, 0.9, 1.0
	cur.Experiments = append(cur.Experiments, sec("prune",
		map[string]string{"Mode": "id", "ModelQPS": "exact", "CoreBusyShare": "busy"},
		map[string]any{"Mode": "base", "ModelQPS": 1.0, "CoreBusyShare": 1.013}))
	v, notes, _ := diff(base, cur)
	if len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	var shares []string
	for _, n := range notes {
		if strings.Contains(n, "> 1") {
			shares = append(shares, n)
		}
	}
	if len(shares) != 2 || !strings.Contains(shares[0], "PlaneBusyShare 1.031") || !strings.Contains(shares[1], "prune{") ||
		!strings.Contains(shares[1], "CoreBusyShare 1.013") {
		t.Fatalf("busy-share notes %q (all notes %q)", shares, notes)
	}
}

// TestDiffFig7Gates: a Fig 7 row is identified by (Dataset, Mode) alone,
// and every column gates on any difference: a faster REIS row fails as
// a slower one does.
func TestDiffFig7Gates(t *testing.T) {
	roles := map[string]string{
		"Dataset": "id", "Mode": "id", "CPUQPS": "exact", "NoIO": "exact",
		"SSD1": "exact", "SSD2": "exact", "SSD1QPSW": "exact", "SSD2QPSW": "exact",
	}
	mk := func(cpu, noio, ssd1, ssd2, w1, w2 float64) *report {
		return &report{Experiments: []section{sec("fig7", roles, map[string]any{
			"Dataset": "NQ", "Mode": "IVF@0.98", "CPUQPS": cpu, "NoIO": noio,
			"SSD1": ssd1, "SSD2": ssd2, "SSD1QPSW": w1, "SSD2QPSW": w2,
		})}}
	}
	base := mk(365.64, 13.81, 3.33, 4.79, 45.48, 48.29)
	if v, notes, _ := diff(base, mk(365.64, 13.81, 3.33, 4.79, 45.48, 48.29)); len(v) != 0 || len(notes) != 0 {
		t.Fatalf("an identical row: violations %v notes %v", v, notes)
	}
	if v, _, _ := diff(base, mk(365.64, 13.81, 4.5, 6.1, 60, 62)); len(v) != 4 {
		t.Fatalf("a faster REIS row: violations %v", v)
	}
	for field, cur := range map[string]*report{
		"SSD1":     mk(365.64, 13.81, 2.0, 4.79, 45.48, 48.29),
		"SSD2":     mk(365.64, 13.81, 3.33, 5.0, 45.48, 48.29),
		"SSD1QPSW": mk(365.64, 13.81, 3.33, 4.79, 30, 48.29),
		"SSD2QPSW": mk(365.64, 13.81, 3.33, 4.79, 45.48, 60),
		"CPUQPS":   mk(365.65, 13.81, 3.33, 4.79, 45.48, 48.29),
		"NoIO":     mk(365.64, 13.80, 3.33, 4.79, 45.48, 48.29),
	} {
		v, _, _ := diff(base, cur)
		if len(v) != 1 || !strings.Contains(v[0], field+" ") || !strings.Contains(v[0], "fig7{Dataset=NQ Mode=IVF@0.98}") {
			t.Fatalf("%s drift: violations %v", field, v)
		}
	}
}

// TestDiffGatesOneULP pins each bound at its edge: a throughput
// (ModelQPS) or tail (ModelP99Ms) column moved by one ulp either way
// fails, a report column moves freely, and allocs may rise by the slack,
// 0.9, but not by 0.91.
func TestDiffGatesOneULP(t *testing.T) {
	for _, to := range []float64{math.Inf(1), math.Inf(-1)} {
		if v, _, _ := diff(mkReport(1000, 2000, 24.5), mkReport(math.Nextafter(1000, to), 2000, 24.5)); len(v) != 1 || !strings.Contains(v[0], "ModelQPS") {
			t.Errorf("ModelQPS one ulp toward %v: violations %v", to, v)
		}
		if v, _, _ := diff(sloReport(10), sloReport(math.Nextafter(10, to))); len(v) != 1 || !strings.Contains(v[0], "ModelP99Ms") {
			t.Errorf("ModelP99Ms one ulp toward %v: violations %v", to, v)
		}
	}
	cur := sloReport(10)
	cur.Experiments[0].Rows[0]["ModelP50Ms"] = 7.0
	if v, _, _ := diff(sloReport(10), cur); len(v) != 0 {
		t.Errorf("report column gated: %v", v)
	}
	if v, _, _ := diff(mkReport(1000, 2000, 24.5), mkReport(1000, 2000, 24.5+0.9)); len(v) != 0 {
		t.Errorf("allocs +0.9: violations %v", v)
	}
	if v, _, _ := diff(mkReport(1000, 2000, 24.5), mkReport(1000, 2000, 24.5+0.91)); len(v) != 1 || !strings.Contains(v[0], "AllocsPerOp") {
		t.Errorf("allocs +0.91: violations %v", v)
	}
}

// TestDiffRefusesCrossScaleSection: rows generated at different -scale
// values are different workloads, so a section whose scale differs from
// the baseline's is refused with one message, whatever its rows say —
// not reported as one "regression" per drifted column.
func TestDiffRefusesCrossScaleSection(t *testing.T) {
	base, cur := mkReport(1000, 2000, 24.5), mkReport(500, 2000, 30)
	base.Experiments[0].Scale = 32
	v, _, _ := diff(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "-scale 32, current at -scale 16") {
		t.Fatalf("cross-scale section not refused once: %v", v)
	}
}

// TestDiffRefusesReroledColumn: a column whose role differs from the
// baseline's would be compared under the wrong rule (or drop out of the
// row key), so its section is refused, naming the column.
func TestDiffRefusesReroledColumn(t *testing.T) {
	base, cur := mkReport(1000, 2000, 24.5), mkReport(500, 2000, 24.5)
	cur.Experiments[0].Roles = maps.Clone(throughputRoles)
	cur.Experiments[0].Roles["ModelQPS"] = "report"
	v, _, _ := diff(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], `ModelQPS "exact" -> "report"`) {
		t.Fatalf("re-roled column not refused: %v", v)
	}
	// A column added to the row type changes the roles too.
	cur = mkReport(1000, 2000, 24.5)
	cur.Experiments[0].Roles = maps.Clone(throughputRoles)
	cur.Experiments[0].Roles["Topology"] = "id"
	if v, _, _ := diff(base, cur); len(v) != 1 || !strings.Contains(v[0], `Topology "" -> "id"`) {
		t.Fatalf("added column not refused: %v", v)
	}
}

// TestDiffRefusesRolelessBaseline: a baseline written before sections
// carried roles cannot say which columns are identity, so every section
// it shares with the current report is refused.
func TestDiffRefusesRolelessBaseline(t *testing.T) {
	base := mkReport(1000, 2000, 24.5)
	base.Experiments[0].Roles = nil
	v, _, _ := diff(base, mkReport(1000, 2000, 24.5))
	if len(v) != 1 || !strings.Contains(v[0], "carries no column roles") {
		t.Fatalf("role-less baseline not refused: %v", v)
	}
}

// TestDiffTalliesGatedScalars: each compared section reports how many
// numeric cells of its matched rows it gated, by role, and how many
// differ at all — an allocs drift inside the slack included. Busy,
// report and id columns are not counted, and neither is allocs across
// GOMAXPROCS settings.
func TestDiffTalliesGatedScalars(t *testing.T) {
	_, _, tallies := diff(mkReport(1000, 2000, 24.5), mkReport(1000, 1200, 25))
	if len(tallies) != 1 {
		t.Fatalf("tallies: %v", tallies)
	}
	if got, want := tallies[0].String(), "throughput: 2 gated scalars compared (exact 1, allocs 1), 1 differ"; got != want {
		t.Fatalf("tally %q, want %q", got, want)
	}
	base, cur := mkReport(1000, 2000, 24.5), mkReport(1000, 2000, 24.5)
	cur.GOMAXPROCS = 4
	if _, _, tallies = diff(base, cur); tallies[0] != (tally{id: "throughput", exact: 1}) {
		t.Fatalf("allocs counted across GOMAXPROCS: %v", tallies)
	}

	roles := map[string]string{"Dataset": "id", "Load": "exact", "P99": "exact", "Note": "report"}
	mk := func(load, p99, note float64) *report {
		return &report{Experiments: []section{sec("slo", roles,
			map[string]any{"Dataset": "NQ", "Load": load, "P99": p99, "Note": note},
			map[string]any{"Dataset": "wiki", "Load": load, "P99": p99, "Note": note},
		)}}
	}
	v, _, tallies := diff(mk(0.5, 3, 1), mk(0.51, 3, 2))
	if len(v) != 2 || len(tallies) != 1 || tallies[0] != (tally{id: "slo", exact: 4, differ: 2}) {
		t.Fatalf("violations %v, tallies %v", v, tallies)
	}
	// A section the baseline lacks compares nothing, and says so in a note
	// rather than a tally.
	base = mkReport(1000, 2000, 24.5)
	base.Experiments[0].ID = "qdepth"
	if _, _, tallies = diff(base, mkReport(1000, 2000, 24.5)); len(tallies) != 0 {
		t.Fatalf("tallies for an unbaselined section: %v", tallies)
	}
}
