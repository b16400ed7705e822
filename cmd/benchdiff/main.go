// Command benchdiff is the CI benchmark regression gate: it compares a
// freshly generated `reisbench -json` report against the committed
// BENCH_*.json baseline and fails (exit 1) when a gated cell moved.
//
// What a column means is its role. Each experiment's row type names it
// once, in the field's `gate` tag (internal/experiments), and reisbench
// writes the roles beside each section's rows. benchdiff reads them from
// the baseline section:
//
//   - id: part of the row's identity. Rows are matched on the
//     experiment id plus every id column.
//   - exact: any difference fails, in either direction. These are the
//     model clock's columns (QPS, modeled tails, the paper figures'
//     ratios, recall) and event counts of a deterministic history.
//   - allocs: a rise of more than allocsSlack fails. It is compared
//     only between reports generated at the same GOMAXPROCS: the pools
//     behind it are per-P, and a report at another setting fails
//     instead.
//   - busy: report-only, with a note when a value exceeds 1: the batch
//     model's makespan clamp let the row finish before that resource did.
//   - report: never compared. Wall-clock columns are here: shared
//     runners make them noise.
//
// Why the model clock is gated exactly: its columns are pure functions
// of the bit-identical device stats and of CPU-Real's constant kernel
// rates, and nothing in the float arithmetic behind them depends on the
// CPU on amd64. Go 1.24 compiles x*y+z there to a multiply and a
// separate add (MULSD+ADDSD) even at GOAMD64=v3, so the compiler fuses
// no multiply-add. The one amd64 routine that picks an FMA path at run
// time is math.Exp; model code never calls it, and xrand.Zipf reaches
// it only through math.Pow while building its CDF, where a draw changes
// only if it lands inside a one-ulp gap. Measured on a 2-vCPU
// AVX2+FMA host with Go 1.24.0, every CI sweep read no difference from
// its baseline at GOMAXPROCS 1 and 2, built at GOAMD64=v1 and v3. So
// any model change, faster or slower, fails until it ships a new
// baseline. On arm64, which fuses x*y+z, and after a toolchain bump
// that moves a digit, the baseline must be regenerated too.
//
// For every section it compares, benchdiff prints how many gated
// scalars it compared (the numeric cells of matched rows under exact
// and allocs) and how many of them differ at all: "0 differ" is the
// claim a refactor makes.
//
// A section is compared only with a baseline section that carries the
// same roles and was generated at the same -scale (0 for a sweep of a
// fixed corpus, whatever -scale it ran at). A baseline section
// without roles, a re-roled column and a cross-scale section each fail
// with one message.
//
// Usage:
//
//	go run ./cmd/reisbench -exp throughput -json /tmp/bench.json
//	go run ./cmd/benchdiff -baseline "$(ls BENCH_*.json | sort | tail -1)" -current /tmp/bench.json
//
// Experiments missing from the current report are skipped, so a partial
// CI run gates only what it measured — but an experiment both reports
// carry must match: a baseline row with no counterpart in the current
// report fails, so a changed id value cannot un-gate a section silently.
// Current rows the baseline lacks (a new configuration) are noted, not
// gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

// section is one experiment of reisbench's -json document, with rows
// kept generic so every experiment's row shape works.
type section struct {
	ID    string            `json:"id"`
	Scale int               `json:"scale"`
	Roles map[string]string `json:"roles"`
	Rows  []map[string]any  `json:"rows"`
}

// report mirrors reisbench's -json document.
type report struct {
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Experiments []section `json:"experiments"`
}

// key builds the match key of a row: the experiment id plus every id
// column, sorted for stability.
func (s *section) key(row map[string]any) string {
	var parts []string
	for col, role := range s.Roles {
		if role == "id" {
			parts = append(parts, fmt.Sprintf("%s=%v", col, row[col]))
		}
	}
	slices.Sort(parts)
	return s.ID + "{" + strings.Join(parts, " ") + "}"
}

// reroled lists the columns whose role differs between two sections.
func reroled(base, cur map[string]string) []string {
	all := maps.Clone(base)
	maps.Copy(all, cur)
	var cols []string
	for col := range all {
		if base[col] != cur[col] {
			cols = append(cols, fmt.Sprintf("%s %q -> %q", col, base[col], cur[col]))
		}
	}
	slices.Sort(cols)
	return cols
}

// tally counts the gated scalars one section compared, by role, and
// how many of them differ at all.
type tally struct {
	id            string
	exact, allocs int
	differ        int
}

func (t tally) String() string {
	return fmt.Sprintf("%s: %d gated scalars compared (exact %d, allocs %d), %d differ",
		t.id, t.exact+t.allocs, t.exact, t.allocs, t.differ)
}

// allocsSlack is how far an allocs column may rise: under one
// allocation per query, and above the sub-1.0 run-to-run jitter of the
// runtime and the queue dispatcher.
const allocsSlack = 0.9

// diff returns the violations (gated cells that moved), notes
// (informational) and per-section tallies between the two reports.
func diff(baseline, current *report) (violations, notes []string, tallies []tally) {
	bases := make(map[string]*section)
	for i := range baseline.Experiments {
		bases[baseline.Experiments[i].ID] = &baseline.Experiments[i]
	}
	allocsRefused := false
	for i := range current.Experiments {
		cur := &current.Experiments[i]
		cols := slices.Sorted(maps.Keys(cur.Roles))
		for _, row := range cur.Rows {
			for _, col := range cols {
				if v, ok := row[col].(float64); ok && cur.Roles[col] == "busy" && v > 1 {
					notes = append(notes, fmt.Sprintf(
						"%s: %s %.3f > 1 — the makespan, clamped to serial execution, ends before this resource's occupancy does (report-only)",
						cur.key(row), col, v))
				}
			}
		}
		base, ok := bases[cur.ID]
		switch {
		case !ok:
			// A whole experiment section the baseline predates: one
			// report-only note, not an error (and not one note per row) —
			// the next baseline refresh starts gating it.
			notes = append(notes, fmt.Sprintf(
				"%s: experiment absent from baseline (%d rows not gated; refresh the baseline to gate it)",
				cur.ID, len(cur.Rows)))
			continue
		case base.Roles == nil:
			violations = append(violations, fmt.Sprintf(
				"%s: the baseline section carries no column roles — regenerate the baseline with the current reisbench",
				cur.ID))
			continue
		case !maps.Equal(base.Roles, cur.Roles):
			violations = append(violations, fmt.Sprintf(
				"%s: column roles differ from the baseline's (%s) — a re-roled column is not comparable; regenerate the baseline",
				cur.ID, strings.Join(reroled(base.Roles, cur.Roles), ", ")))
			continue
		case base.Scale != cur.Scale:
			violations = append(violations, fmt.Sprintf(
				"%s: baseline generated at -scale %d, current at -scale %d — rows at different scales are not comparable; regenerate at -scale %d",
				cur.ID, base.Scale, cur.Scale, base.Scale))
			continue
		}
		baseRows := make(map[string]map[string]any, len(base.Rows))
		for _, row := range base.Rows {
			baseRows[base.key(row)] = row
		}
		matched := make(map[string]bool, len(cur.Rows))
		t := tally{id: cur.ID}
		for _, row := range cur.Rows {
			key := base.key(row)
			b, ok := baseRows[key]
			if !ok {
				notes = append(notes, fmt.Sprintf("%s: no baseline row (new configuration?)", key))
				continue
			}
			matched[key] = true
			for _, col := range cols {
				cv, ok1 := row[col].(float64)
				bv, ok2 := b[col].(float64)
				if !ok1 || !ok2 {
					continue
				}
				switch role := cur.Roles[col]; {
				case role == "exact":
					t.exact++
					if cv != bv {
						violations = append(violations, fmt.Sprintf(
							"%s: %s %v -> %v — an exact column: any difference is a behaviour change", key, col, bv, cv))
					}
				case role == "allocs" && baseline.GOMAXPROCS != current.GOMAXPROCS:
					allocsRefused = true
					continue
				case role == "allocs":
					t.allocs++
					if cv > bv+allocsSlack {
						violations = append(violations, fmt.Sprintf(
							"%s: %s %.3f -> %.3f (+%.3f, slack %.3f) — zero-alloc path regression",
							key, col, bv, cv, cv-bv, allocsSlack))
					}
				default:
					continue
				}
				if cv != bv {
					t.differ++
				}
			}
		}
		tallies = append(tallies, t)
		// A section both reports carry must actually be compared: one
		// changed id value would otherwise un-gate all of it silently.
		if len(matched) == 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: none of the %d current rows matches any of the %d baseline rows — nothing was gated (did an id column change?)",
				cur.ID, len(cur.Rows), len(base.Rows)))
			continue
		}
		for _, row := range base.Rows {
			if key := base.key(row); !matched[key] {
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
	return violations, notes, tallies
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
	violations, notes, tallies := diff(b, c)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	for _, t := range tallies {
		fmt.Println("benchdiff:", t)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("FAIL:", v)
		}
		fmt.Printf("benchdiff: %d failure(s) against %s\n", len(violations), *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no failures against %s\n", *baseline)
}
