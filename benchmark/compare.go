package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare reads: the end-to-end
// metrics with their direction and regression bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile of v by the rule of
// Python's statistics.quantiles(v, n=4) (the "exclusive" method), which
// is how the driver measures spread. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict judges change against base for one metric: "worse" when the
// change's median is worse than the base's by more than bound, "same"
// when it is not, and "unresolved" when the base's own run-to-run
// spread (interquartile range over median) is wider than the bound and
// it is not the case that every change run beats every base run.
func verdict(base, change []float64, higherBetter bool, bound float64) string {
	mb, mc := median(base), median(change)
	worseBy := ratio(mc-mb, mb)
	if higherBetter {
		worseBy = -worseBy
	}
	if len(base) >= 4 {
		q1, q3 := quartiles(base)
		if spread := ratio(q3-q1, mb); spread > bound {
			sb, sc := append([]float64(nil), base...), append([]float64(nil), change...)
			sort.Float64s(sb)
			sort.Float64s(sc)
			allBetter := sc[len(sc)-1] < sb[0]
			if higherBetter {
				allBetter = sc[0] > sb[len(sb)-1]
			}
			if allBetter {
				return "same"
			}
			return "unresolved"
		}
	}
	if worseBy > bound {
		return "worse"
	}
	return "same"
}

// workloadRuns is one workload's end-to-end runs in a report: each
// metric's values, and the ops attempted and failed summed over the runs.
type workloadRuns struct {
	metrics           map[string][]float64
	attempted, failed int
}

// failedShare is failed or refused ops over attempted.
func (r *workloadRuns) failedShare() float64 {
	return ratio(float64(r.failed), float64(r.attempted))
}

func readReport(path string) (map[string]*workloadRuns, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []reportRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*workloadRuns)
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		w := out[r.Workload]
		if w == nil {
			w = &workloadRuns{metrics: make(map[string][]float64)}
			out[r.Workload] = w
		}
		w.attempted += r.Attempted
		w.failed += r.Failed
		for name, m := range r.Metrics {
			w.metrics[name] = append(w.metrics[name], m.Value)
		}
	}
	return out, nil
}

// compareReports prints, per workload, the failed share of both reports
// and, per end-to-end metric, both medians, the ratio change/base and
// the verdict against the bound in the benchmark file. It reports
// whether any pairing is worse. failed_share has a bound of zero: a
// change that fails or mis-answers a larger share of its ops than the
// base is worse whatever its speed. A pairing one of the reports has no
// runs for cannot be judged and counts as worse too.
func compareReports(out io.Writer, specPath, basePath, changePath string) (anyWorse bool, err error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %18s %6s  %s\n", "workload", "metric", "base median", "change median", "change/base", "bound", "verdict")
	missing := func(workload, name string, bound float64) {
		anyWorse = true
		fmt.Fprintf(out, "%-20s %-20s %14s %14s %18s %6.3f  missing\n", workload, name, "-", "-", "-", bound)
	}
	for _, w := range sp.Workloads {
		b, c := base[w.Name], change[w.Name]
		if b == nil || c == nil {
			missing(w.Name, "failed_share", 0)
			for _, m := range sp.EndToEnd {
				missing(w.Name, m.Name, m.Bound)
			}
			continue
		}
		v := "same"
		if c.failedShare() > b.failedShare() {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(out, "%-20s %-20s %14s %14s %18s %6.3f  %s\n", w.Name, "failed_share",
			fmt.Sprintf("%d/%d", b.failed, b.attempted), fmt.Sprintf("%d/%d", c.failed, c.attempted), "-", 0.0, v)
		for _, m := range sp.EndToEnd {
			bv, cv := b.metrics[m.Name], c.metrics[m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				missing(w.Name, m.Name, m.Bound)
				continue
			}
			v := verdict(bv, cv, m.Better == "higher", m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-20s %-20s %14.6g %14.6g %8.4f of %-6.4g %6.3f  %s\n",
				w.Name, m.Name, median(bv), median(cv), ratio(median(cv), median(bv)), median(bv), m.Bound, v)
		}
	}
	return anyWorse, nil
}
