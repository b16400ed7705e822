// Command reisbench regenerates the paper's evaluation. Each
// experiment is addressed by the paper artifact it reproduces:
//
//	reisbench -exp fig7 -scale 16
//	reisbench -exp throughput,qdepth
//	reisbench -exp all
//
// The experiments — ids, the other artifacts an id also reproduces, and
// what each measures — are the table in this file; `reisbench -h` prints
// it.
//
// Profiling and machine-readable output:
//
//	reisbench -exp throughput -cpuprofile cpu.out -memprofile mem.out
//	reisbench -exp throughput -json /tmp/bench.json
//
// The -json report carries every experiment's rows (for throughput:
// QPS, ns/op and allocs/op per batch size), the -scale they were
// generated at (0 for a sweep of a fixed corpus, which ignores -scale),
// and each column's gate role, read from the row type's
// `gate` tags: the repository's BENCH_*.json baselines, which
// cmd/benchdiff gates against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"reis/internal/experiments"
)

// jsonExperiment is one experiment's machine-readable result.
type jsonExperiment struct {
	ID        string            `json:"id"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Scale     int               `json:"scale"`
	Roles     map[string]string `json:"roles"`
	Rows      any               `json:"rows"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Tool        string           `json:"tool"`
	GeneratedAt string           `json:"generated_at"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() {
	// realMain returns instead of calling os.Exit so deferred cleanup
	// (CPU-profile stop, file closes) runs on every path — an early
	// exit would truncate the pprof output.
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "reisbench: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	var help strings.Builder
	help.WriteString("comma-separated experiment ids, or all:")
	for _, e := range experimentTable {
		if e.err != nil {
			return fmt.Errorf("%s: %w", e.id, e.err)
		}
		fmt.Fprintf(&help, "\n  %-10s %s", strings.Join(append([]string{e.id}, e.aliases...), "|"), e.about)
	}
	exp := flag.String("exp", "all", help.String())
	scale := flag.Int("scale", 16, "workload scale divisor (larger = smaller functional datasets)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	jsonOut := flag.String("json", "", "write machine-readable results (JSON) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	exps, err := resolve(*exp)
	if err != nil {
		return err
	}
	report := jsonReport{
		Tool:        "reisbench",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, e := range exps {
		start := time.Now()
		rows, err := e.run(*scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		elapsed := time.Since(start)
		ran := *scale
		if e.fixed {
			ran = 0
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.id, ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
			Scale: ran, Roles: e.roles, Rows: rows,
		})
		fmt.Printf("[%s completed in %v]\n\n", e.id, elapsed.Round(time.Millisecond))
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// experiment is one row of the experiment table: the id it is addressed
// by, the other paper artifacts the same run reproduces, what it
// measures (the -exp help line), and its sweep.
type experiment struct {
	id      string
	aliases []string
	about   string
	sweep
}

// sweep is an experiment's run, which prints its table and returns its
// rows for the -json report, and the gate role of each row column. err
// is set when a column has none: reisbench then refuses to run. fixed
// marks a run of a fixed corpus, which ignores -scale.
type sweep struct {
	run   func(scale int) (any, error)
	roles map[string]string
	err   error
	fixed bool
}

// of builds a sweep from its runner and its formatter, and the roles
// from the row type R.
func of[R any](run func(scale int) ([]R, error), format func([]R) string) sweep {
	roles, err := rolesOf(reflect.TypeFor[R]())
	return sweep{func(scale int) (any, error) {
		rows, err := run(scale)
		if err != nil {
			return nil, err
		}
		fmt.Print(format(rows))
		return rows, nil
	}, roles, err, false}
}

// fixedOf builds the sweep of a fixed corpus from its runner and its
// formatter: its section records scale 0, so it compares whatever -scale
// it ran at.
func fixedOf[R any](run func() ([]R, error), format func([]R) string) sweep {
	s := of(func(int) ([]R, error) { return run() }, format)
	s.fixed = true
	return s
}

// gateRoles are the roles a row field's `gate` tag may name; what each
// one gates is cmd/benchdiff's to say.
var gateRoles = []string{"id", "exact", "allocs", "busy", "report"}

// rolesOf maps each -json column of row type t to the role its field's
// `gate` tag names, walking embedded structs. A field with no role or an
// unknown one is an error, and so is a -json key that is not a field's
// name.
func rolesOf(t reflect.Type) (map[string]string, error) {
	roles := map[string]string{}
	if err := addRoles(roles, t); err != nil {
		return nil, err
	}
	var keys map[string]any
	data, err := json.Marshal(reflect.New(t).Interface())
	if err == nil && json.Unmarshal(data, &keys) == nil && maps.EqualFunc(keys, roles, func(any, string) bool { return true }) {
		return roles, nil
	}
	return nil, fmt.Errorf("%s: -json keys %v are not its tagged fields %v", t, slices.Sorted(maps.Keys(keys)), slices.Sorted(maps.Keys(roles)))
}

// addRoles adds the roles of struct type t's fields to roles.
func addRoles(roles map[string]string, t reflect.Type) error {
	for i := range t.NumField() {
		f := t.Field(i)
		if f.Anonymous {
			if err := addRoles(roles, f.Type); err != nil {
				return err
			}
			continue
		}
		if roles[f.Name] = f.Tag.Get("gate"); !slices.Contains(gateRoles, roles[f.Name]) {
			return fmt.Errorf("%s.%s: gate role %q is none of %v", t, f.Name, roles[f.Name], gateRoles)
		}
	}
	return nil
}

// experimentTable lists every experiment, in the order `-exp all` runs
// them.
var experimentTable = []experiment{
	{"fig2", []string{"fig3", "table4"}, "RAG pipeline breakdown: CPU flat, CPU+BQ, REIS end to end",
		of(experiments.RunRAGBreakdown, experiments.FormatRAG)},
	{"fig5", nil, "ANNS algorithms on CPU (wall clock)",
		of(experiments.RunFig5, experiments.FormatFig5)},
	{"fig7", []string{"fig8"}, "throughput and energy efficiency vs CPU-Real",
		of(func(scale int) ([]experiments.Fig7Row, error) { return experiments.RunFig7(scale, nil) }, formatFig7)},
	{"fig9", nil, "optimization sensitivity",
		of(func(scale int) ([]experiments.Fig9Row, error) { return experiments.RunFig9(scale, nil) }, experiments.FormatFig9)},
	{"asic", nil, "REIS-ASIC slowdown (Sec 6.3.1)",
		of(func(scale int) ([]experiments.ASICRow, error) { return experiments.RunASIC(scale, nil) }, experiments.FormatASIC)},
	{"fig10", nil, "speedup over ICE",
		of(func(scale int) ([]experiments.Fig10Row, error) { return experiments.RunFig10(scale, nil) }, experiments.FormatFig10)},
	{"fig11", nil, "speedup over NDSearch",
		of(experiments.RunFig11, experiments.FormatFig11)},
	{"throughput", nil, "batched vs sequential query admission",
		of(experiments.RunThroughput, experiments.FormatThroughput)},
	{"qdepth", nil, "QPS and modeled tails vs submission-queue depth through the async host API",
		of(experiments.RunQDepth, experiments.FormatQDepth)},
	{"shards", nil, "throughput and modeled tails vs device count",
		of(experiments.RunShards, experiments.FormatShards)},
	{"prune", nil, "threshold-propagated top-k pruning vs the unpruned scan (fixed corpus; -scale unused)",
		fixedOf(experiments.RunPrune, experiments.FormatPrune)},
	{"skew", nil, "the DRAM caching tier under Zipfian query skew and bursty churn (fixed corpus)",
		fixedOf(func() ([]experiments.SkewRow, error) { return experiments.RunSkew(nil, nil) }, experiments.FormatSkew)},
	{"churn", nil, "GC wear under append/delete/compact: wear-leveled vs first-fit placement (fixed corpus)",
		fixedOf(experiments.RunChurn, experiments.FormatChurn)},
	{"slo", nil, "modeled p50/p95/p99/p999 under Poisson arrivals: arrival rate x queue depth x shard count",
		of(func(scale int) ([]experiments.SLORow, error) { return experiments.RunSLO(scale, nil, nil) }, experiments.FormatSLO)},
	{"frontier", nil, "recall vs modeled latency: DRAM-side HNSW/LSH/PQ-IVF vs the flash engine, pruned and cached (fixed corpus; -scale unused)",
		fixedOf(experiments.RunFrontier, experiments.FormatFrontier)},
}

// formatFig7 is Fig 7's table plus the aggregates the paper quotes.
func formatFig7(rows []experiments.Fig7Row) string {
	avg, maxS, avgW, maxW := experiments.SummarizeFig7(rows)
	return experiments.FormatFig7(rows) + fmt.Sprintf(
		"summary: speedup avg %.1fx max %.1fx (paper: 13x / 112x); QPS/W avg %.1fx max %.1fx (paper: 55x / 157x)\n",
		avg, maxS, avgW, maxW)
}

// resolve turns the -exp value into experiments: "all" is the table, in
// order; otherwise each comma-separated id or alias is looked up, and
// each experiment runs once, where it was first named (fig7,fig8 is one
// Fig 7 section, not two).
func resolve(exp string) ([]experiment, error) {
	if exp == "all" {
		return experimentTable, nil
	}
	var exps []experiment
	for _, id := range strings.Split(exp, ",") {
		i := slices.IndexFunc(experimentTable, func(e experiment) bool {
			return id == e.id || slices.Contains(e.aliases, id)
		})
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		if !slices.ContainsFunc(exps, func(e experiment) bool { return e.id == experimentTable[i].id }) {
			exps = append(exps, experimentTable[i])
		}
	}
	return exps, nil
}
