// Command benchmark is the repository's benchmark: four workloads driven
// through the public top of the serving stack (serve.Gateway over HTTP,
// serve.Group.Do otherwise), measured on the model clock and the wall
// clock, with a layer ladder. See README.md.
//
// Run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload rag_uniform --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # all four workloads, both passes
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir is where trace files and reports go, relative to the
// repository root run.sh runs the program from.
const outDir = "benchmark/out"

// benchProcs is the GOMAXPROCS of every measured run. The bench host's
// two vCPUs are hardware threads the shared machine places where it likes:
// for seconds to minutes at a time they are siblings of one core, and two
// busy threads then run 1.5x slower each (2x on the popcount kernels,
// which share one port). A probe of a fixed kernel read steady times from
// one thread and times 1.5-2x apart from two, in episodes covering 40 % of
// a minute; alternating runs of sharded_deep, wall.qps ranged 2.4 % at one
// P and 8-10 % at two. One P keeps the second vCPU idle, so the busy one
// has a core to itself whatever the placement. What it gives up is the
// parallel speed-up, at most 1.25x on this host, and with it any view of
// lock contention; clients and in-flight counts are unchanged. A
// GOMAXPROCS set in the environment is left alone, which is how the
// model-clock metrics are shown to be the same at 1 and 2.
const benchProcs = 1

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, both passes)")
		seed         = flag.Uint64("seed", 1, "seed of the query draw, Zipf order, op schedule, routing and arrival schedules")
		seconds      = flag.Int("seconds", 15, "length of the timed wall window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		runs         = flag.Int("runs", 1, "with no -workload: repeat every workload on this many consecutive seeds")
		report       = flag.String("report", filepath.Join(outDir, "report.json"), "with no -workload: where the runs are written for -compare")
		compare      = flag.Bool("compare", false, "compare two reports: -compare a.json b.json (a is the base)")
	)
	flag.Parse()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(benchProcs)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		worse, err := compareReports(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(2, "unknown workload %q", *workloadName)
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(2, "need --seconds >= 1 and --trace 0 or 1")
		}
		cfg := fullRun(*seed, *seconds)
		res, err := runOne(w, cfg, *trace)
		if err != nil {
			fatal(1, "%s: %v", w.Name, err)
		}
		printMetrics(os.Stderr, w.Name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(line))
	default:
		if err := runAll(*seed, *seconds, *runs, *report); err != nil {
			fatal(1, "%v", err)
		}
	}
}

func fatal(code int, format string, args ...any) {
	logf(format, args...)
	os.Exit(code)
}

// fullRun is the configuration of a measured run on the full corpus.
func fullRun(seed uint64, seconds int) runConfig {
	return runConfig{
		seed: seed, sz: fullSizes, outDir: outDir,
		warm: warmup, window: time.Duration(seconds) * time.Second,
	}
}

func runOne(w *workload, cfg runConfig, trace int) (*result, error) {
	if trace == 1 {
		return runPerLayer(w, cfg)
	}
	return runEndToEnd(w, cfg)
}

// printMetrics lists every metric by name with its unit.
func printMetrics(out *os.File, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-20s %-32s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-20s %-32s %14d of %d attempted (failed_share %.6f)\n", workload, "failed", res.Failed, res.Attempted,
		ratio(float64(res.Failed), float64(res.Attempted)))
}

// reportRun is one run in a report file.
type reportRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// runAll runs every workload, end-to-end pass then per-layer pass, on
// runs consecutive seeds, prints every metric and writes the report.
func runAll(seed uint64, seconds, runs int, reportPath string) error {
	var all []reportRun
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads() {
			cfg := fullRun(seed+uint64(r), seconds)
			for trace := 0; trace <= 1; trace++ {
				res, err := runOne(w, cfg, trace)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				printMetrics(os.Stdout, w.Name, res)
				all = append(all, reportRun{Workload: w.Name, Seed: cfg.seed, Trace: trace, result: *res})
				failed = failed || !res.Correct
			}
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(reportPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(reportPath, data, 0o644); err != nil {
		return err
	}
	logf("report written to %s", reportPath)
	if failed {
		return fmt.Errorf("at least one op failed or returned a wrong result")
	}
	return nil
}
