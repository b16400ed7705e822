// Command benchdiff is the CI benchmark regression gate: it compares a
// freshly generated `reisbench -json` report against the committed
// BENCH_*.json baseline and fails (exit 1) when a deterministic metric
// regressed:
//
//   - ModelQPS (the timing model's throughput — a pure function of the
//     bit-identical device stats, so machine-independent) dropping more
//     than -max-regress percent,
//   - ModelP99Ms (the SLO gate: modeled p99 latency under the pinned
//     arrival schedule — deterministic like ModelQPS) increasing by
//     more than -max-regress percent, or
//   - AllocsPerOp (the zero-alloc query-path contract) increasing by
//     more than -allocs-slack — compared only between reports generated
//     at the same GOMAXPROCS (the pools behind it are per-P; a report
//     that carries the column at a different setting fails instead), or
//   - Fig 7/8's normalized REIS columns (SSD1, SSD2 and their QPS/W,
//     SSD1QPSW and SSD2QPSW) dropping more than -max-regress percent,
//     like ModelQPS: every one is a paper-figure headline the timing
//     model moves, or
//   - any difference at all in the churn sweep's GC counts (CompactedRows,
//     BlockErases, MaxBlockErase, WriteAmp), or in Fig 7's CPU-Real
//     columns (CPUQPS, NoIO): the former are event counts of a
//     deterministic mutation history, the latter the rival's own model,
//     which no change to the flash engine may move (its DRAM stream floor
//     binds, so two runs agree to the byte), so there is no tolerance to
//     allow.
//
// The remaining latency quantiles (ModelP50Ms, ModelP95Ms,
// ModelP999Ms) and the frontier latencies are report-only, like the
// other informational metrics. So is a busy share above 1 on any current
// row: a note says the batch model's makespan clamp let the row finish
// before that resource did.
//
// Wall-clock metrics (WallQPS, NsPerOp) are reported but not enforced
// by default — shared CI runners make them noisy; pass -wall to gate
// on them too (same -max-regress bound).
//
// Usage:
//
//	go run ./cmd/reisbench -exp throughput -json /tmp/bench.json
//	go run ./cmd/benchdiff -baseline BENCH_2026-10-03.json -current /tmp/bench.json
//
// Rows are matched by experiment id plus their identity fields
// (Dataset, Mode, Batch, Depth, Shards, ...). Experiments missing from
// the current report are skipped, so a partial CI run gates only what it
// measured — but an experiment both reports carry must match: a baseline
// row with no counterpart in the current report fails, so a renamed or
// added identity field cannot un-gate a section silently. Current rows
// the baseline lacks (a new configuration) are noted, not gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// report mirrors reisbench's -json document, with rows kept generic so
// every experiment's row shape works.
type report struct {
	GOMAXPROCS  int `json:"gomaxprocs"`
	Experiments []struct {
		ID   string           `json:"id"`
		Rows []map[string]any `json:"rows"`
	} `json:"experiments"`
}

// metricFields are enforced or informational; everything else in a row
// is identity.
var metricFields = map[string]bool{
	"WallQPS": true, "ModelQPS": true, "ModelSerialQPS": true,
	"ModelSpeedup": true, "NsPerOp": true, "AllocsPerOp": true,
	"BytesPerOp": true, "AvgBatch": true, "Speedup": true,
	"FinePages": true, "PrunedPages": true, "AbortedWaves": true,
	"HitRate": true, "CachedPages": true, "BaseFinePages": true,
	// The skew sweep's per-half speedups (report-only, like Speedup; the
	// rows' ModelQPS is what gates).
	"PinsOnly": true, "ResultsOnly": true,
	// GC wear metrics from the churn experiment (exactFields: gated on
	// equality).
	"WriteAmp": true, "MaxBlockErase": true, "CompactedRows": true,
	"BlockErases": true,
	// Latency-distribution metrics from the SLO sweep and the tail
	// columns of qdepth/shards. ModelP99Ms is enforced (increase is a
	// regression); the rest are report-only.
	"ModelP50Ms": true, "ModelP95Ms": true, "ModelP99Ms": true,
	"ModelP999Ms": true, "ArrivalQPS": true, "MeanBatch": true,
	"MaxBacklog": true,
	// Frontier metrics (report-only): recall and modeled latency of
	// the DRAM-side rivals and the flash configurations.
	"Recall": true, "ServeMs": true, "TotalMs": true,
	// Where the model clock went (experiments.ModelShares): report-only
	// attribution, never part of a row's identity.
	"IBCShare": true, "CoarseShare": true, "FineShare": true,
	"RerankShare": true, "DocsShare": true, "PlaneBusyShare": true,
	"ChannelBusyShare": true, "CoreBusyShare": true, "Bottleneck": true,
	// Fig 7/8 (a row is one Dataset x Mode): CPU-Real's QPS and the
	// No-I/O, REIS-SSD1 and REIS-SSD2 columns normalized to it.
	"CPUQPS": true, "NoIO": true, "SSD1": true, "SSD2": true,
	"SSD1QPSW": true, "SSD2QPSW": true,
}

// throughputFields are metrics where a *drop* is the regression, gated at
// -max-regress: the model's QPS and Fig 7/8's normalized REIS columns.
var throughputFields = []string{"ModelQPS", "SSD1", "SSD2", "SSD1QPSW", "SSD2QPSW"}

// latencyFields are metrics where an *increase* is the regression;
// only ModelP99Ms — the SLO — is enforced.
var latencyFields = []struct {
	name    string
	enforce bool
}{
	{"ModelP99Ms", true},
	{"ModelP50Ms", false},
	{"ModelP95Ms", false},
	{"ModelP999Ms", false},
	{"ServeMs", false},
	{"TotalMs", false},
}

// busyShareFields are the occupancy columns of experiments.ModelShares:
// each resource's busy time over the row's makespan, which the timing
// model's clamp to serial execution can push above 1.
var busyShareFields = []string{"PlaneBusyShare", "ChannelBusyShare", "CoreBusyShare"}

// exactFields are event counts of the mutation path (GC rows collected,
// blocks erased, erase skew, bytes programmed per payload byte) — pure
// functions of the command history — and Fig 7's CPU-Real columns, a pure
// function of the dataset and the query's centroid and candidate counts:
// any drift is a behaviour change.
var exactFields = []string{"CompactedRows", "BlockErases", "MaxBlockErase", "WriteAmp", "CPUQPS", "NoIO"}

// rowKey builds the match key of a row: the experiment id plus every
// identity field, sorted for stability.
func rowKey(exp string, row map[string]any) string {
	var parts []string
	for k, v := range row {
		if metricFields[k] {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(parts)
	return exp + "{" + strings.Join(parts, " ") + "}"
}

func num(row map[string]any, field string) (float64, bool) {
	v, ok := row[field].(float64)
	return v, ok
}

func index(r *report) map[string]map[string]any {
	idx := make(map[string]map[string]any)
	for _, e := range r.Experiments {
		for _, row := range e.Rows {
			idx[rowKey(e.ID, row)] = row
		}
	}
	return idx
}

type options struct {
	maxRegressPct float64
	allocsSlack   float64
	gateWall      bool
}

// diff returns the violations (enforced regressions) and notes
// (informational drift) between the two reports.
func diff(baseline, current *report, opt options) (violations, notes []string) {
	base := index(baseline)
	baseRows := make(map[string][]map[string]any)
	for _, e := range baseline.Experiments {
		baseRows[e.ID] = e.Rows
	}
	allocsRefused := false
	for _, e := range current.Experiments {
		for _, row := range e.Rows {
			for _, f := range busyShareFields {
				if v, ok := num(row, f); ok && v > 1 {
					notes = append(notes, fmt.Sprintf(
						"%s: %s %.3f > 1 — the makespan, clamped to serial execution, ends before this resource's occupancy does (report-only)",
						rowKey(e.ID, row), f, v))
				}
			}
		}
		if _, ok := baseRows[e.ID]; !ok {
			// A whole experiment section the baseline predates: one
			// report-only note, not an error (and not one note per row) —
			// the next baseline refresh starts gating it.
			notes = append(notes, fmt.Sprintf(
				"%s: experiment absent from baseline (%d rows not gated; refresh the baseline to gate it)",
				e.ID, len(e.Rows)))
			continue
		}
		matched := make(map[string]bool, len(e.Rows))
		for _, row := range e.Rows {
			key := rowKey(e.ID, row)
			b, ok := base[key]
			if !ok {
				notes = append(notes, fmt.Sprintf("%s: no baseline row (new configuration?)", key))
				continue
			}
			matched[key] = true
			check := func(field string, enforce bool) {
				cv, ok1 := num(row, field)
				bv, ok2 := num(b, field)
				if !ok1 || !ok2 || bv <= 0 {
					return
				}
				dropPct := (bv - cv) / bv * 100
				if dropPct > opt.maxRegressPct {
					msg := fmt.Sprintf("%s: %s %.1f -> %.1f (-%.1f%%, limit %.0f%%)",
						key, field, bv, cv, dropPct, opt.maxRegressPct)
					if enforce {
						violations = append(violations, msg)
					} else {
						notes = append(notes, msg)
					}
				}
			}
			// Latency direction: the SLO gate fires when a quantile
			// *rises* past the bound (mirroring the ModelQPS drop gate).
			checkRise := func(field string, enforce bool) {
				cv, ok1 := num(row, field)
				bv, ok2 := num(b, field)
				if !ok1 || !ok2 || bv <= 0 {
					return
				}
				risePct := (cv - bv) / bv * 100
				if risePct > opt.maxRegressPct {
					msg := fmt.Sprintf("%s: %s %.3f -> %.3f (+%.1f%%, limit %.0f%%) — tail-latency regression",
						key, field, bv, cv, risePct, opt.maxRegressPct)
					if enforce {
						violations = append(violations, msg)
					} else {
						notes = append(notes, msg)
					}
				}
			}
			for _, f := range throughputFields {
				check(f, true)
			}
			check("WallQPS", opt.gateWall)
			for _, lf := range latencyFields {
				checkRise(lf.name, lf.enforce)
			}
			for _, f := range exactFields {
				cv, ok1 := num(row, f)
				bv, ok2 := num(b, f)
				if ok1 && ok2 && cv != bv {
					violations = append(violations, fmt.Sprintf(
						"%s: %s %v -> %v — deterministic (GC event counts, the CPU-Real model); any difference is a behaviour change",
						key, f, bv, cv))
				}
			}
			ca, ok1 := num(row, "AllocsPerOp")
			ba, ok2 := num(b, "AllocsPerOp")
			switch {
			case !ok1 || !ok2:
			case baseline.GOMAXPROCS != current.GOMAXPROCS:
				allocsRefused = true
			case ca > ba+opt.allocsSlack:
				violations = append(violations, fmt.Sprintf(
					"%s: AllocsPerOp %.3f -> %.3f (+%.3f, slack %.3f) — zero-alloc path regression",
					key, ba, ca, ca-ba, opt.allocsSlack))
			}
		}
		// A section both reports carry must actually be compared: rows
		// are matched on every non-metric field, so one renamed or added
		// identity field would otherwise un-gate all of it silently.
		if len(matched) == 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: none of the %d current rows matches any of the %d baseline rows — nothing was gated (did an identity field change?)",
				e.ID, len(e.Rows), len(baseRows[e.ID])))
			continue
		}
		for _, row := range baseRows[e.ID] {
			if key := rowKey(e.ID, row); !matched[key] {
				violations = append(violations, fmt.Sprintf(
					"%s: baseline row has no counterpart in the current report — it is not being gated", key))
			}
		}
	}
	if allocsRefused {
		violations = append(violations, fmt.Sprintf(
			"AllocsPerOp not compared: baseline generated at GOMAXPROCS=%d, current at GOMAXPROCS=%d — the allocation pools are per-P; regenerate at the baseline's setting",
			baseline.GOMAXPROCS, current.GOMAXPROCS))
	}
	return violations, notes
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed BENCH_*.json baseline")
	current := flag.String("current", "", "freshly generated reisbench -json report")
	maxRegress := flag.Float64("max-regress", 25, "maximum allowed throughput regression, percent")
	allocsSlack := flag.Float64("allocs-slack", 0, "maximum allowed allocs/op increase")
	wall := flag.Bool("wall", false, "also gate wall-clock metrics (noisy on shared runners)")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	b, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	c, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	violations, notes := diff(b, c, options{
		maxRegressPct: *maxRegress,
		allocsSlack:   *allocsSlack,
		gateWall:      *wall,
	})
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("FAIL:", v)
		}
		fmt.Printf("benchdiff: %d regression(s) against %s\n", len(violations), *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions against %s\n", *baseline)
}
