package experiments

import (
	"fmt"
	"strings"

	"reis/internal/host"
	"reis/internal/reis"
)

// Fig7Row is one bar group of Fig 7 (throughput) and Fig 8 (energy
// efficiency): one dataset x search mode, with REIS-SSD1, REIS-SSD2
// and No-I/O normalized to CPU-Real.
type Fig7Row struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"` // "BF" or "IVF@0.98" etc.

	// CPU-Real's columns are its own model, which its DRAM stream floor
	// binds: no change to the flash engine may move them. The REIS
	// columns are the flash engine's model clock.
	CPUQPS   float64 `gate:"exact"` // absolute, queries/s
	NoIO     float64 `gate:"exact"` // normalized QPS
	SSD1     float64 `gate:"exact"`
	SSD2     float64 `gate:"exact"`
	SSD1QPSW float64 `gate:"exact"` // normalized QPS/W (Fig 8)
	SSD2QPSW float64 `gate:"exact"`
}

// fig7Datasets are the evaluation datasets of Figs 7/8/10.
var fig7Datasets = []string{"NQ", "HotpotQA", "wiki_en", "wiki_full"}

// RunFig7 regenerates Figs 7 and 8 at the given functional scale
// divisor. It returns one row per dataset x mode.
func RunFig7(scale int, datasets []string) ([]Fig7Row, error) {
	if datasets == nil {
		datasets = fig7Datasets
	}
	var rows []Fig7Row
	for _, name := range datasets {
		dsRows, err := fig7Rows(loadWorkload(name, scale))
		if err != nil {
			return nil, err
		}
		rows = append(rows, dsRows...)
	}
	return rows, nil
}

// fig7Rows holds both devices at once: every row compares them on one
// command, REIS-SSD2 at the nprobe REIS-SSD1 calibrated.
func fig7Rows(w *workload) ([]Fig7Row, error) {
	s1, err := newSetup(paperSSDs[0], 1, w, reis.AllOptions())
	if err != nil {
		return nil, err
	}
	defer s1.Close()
	s2, err := newSetup(paperSSDs[1], 1, w, reis.AllOptions())
	if err != nil {
		return nil, err
	}
	defer s2.Close()

	// Brute force.
	b1, st1, err := s1.runBF(10)
	if err != nil {
		return nil, err
	}
	b2, _, err := s2.runBF(10)
	if err != nil {
		return nil, err
	}
	rows := []Fig7Row{makeRow(w, "BF", w.BF, b1, b2, st1)}

	// IVF at each recall target.
	for _, target := range recallTargets {
		nprobe, err := s1.nprobeFor(target)
		if err != nil {
			return nil, err
		}
		b1, st, err := s1.runIVF(10, nprobe)
		if err != nil {
			return nil, err
		}
		b2, _, err := s2.runIVF(10, nprobe)
		if err != nil {
			return nil, err
		}
		rows = append(rows, makeRow(w, fmt.Sprintf("IVF@%.2f", target), w.IVF, b1, b2, st))
	}
	return rows, nil
}

func makeRow(w *workload, mode string, sc reis.Scale, b1, b2 reis.Breakdown, st reis.QueryStats) Fig7Row {
	fineCands := fineCandidates(st, sc)
	coarse := rivalCoarse(w, st)
	cpuQPS, noioQPS := cpuBaselineQPS(w, fineCands, coarse)

	q1 := 1 / b1.Total.Seconds()
	q2 := 1 / b2.Total.Seconds()
	cpuQPSW := cpuQPS / host.ActiveWatts
	return Fig7Row{
		Dataset:  w.Name,
		Mode:     mode,
		CPUQPS:   cpuQPS,
		NoIO:     noioQPS / cpuQPS,
		SSD1:     q1 / cpuQPS,
		SSD2:     q2 / cpuQPS,
		SSD1QPSW: q1 / b1.AvgWatts / cpuQPSW,
		SSD2QPSW: q2 / b2.AvgWatts / cpuQPSW,
	}
}

// FormatFig7 renders the rows as the paper's figure series.
func FormatFig7(rows []Fig7Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 7: throughput normalized to CPU-Real (and Fig 8: QPS/W)\n")
	fmt.Fprintf(&sb, "%-10s %-9s %9s %8s %8s %8s | %9s %9s\n",
		"dataset", "mode", "CPU(QPS)", "No-I/O", "SSD1", "SSD2", "SSD1 Q/W", "SSD2 Q/W")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-9s %9.2f %8.2f %8.2f %8.2f | %9.2f %9.2f\n",
			r.Dataset, r.Mode, r.CPUQPS, r.NoIO, r.SSD1, r.SSD2, r.SSD1QPSW, r.SSD2QPSW)
	}
	return sb.String()
}

// SummarizeFig7 reports the aggregates the paper quotes: average and
// maximum REIS speedup and energy-efficiency gain over CPU-Real.
func SummarizeFig7(rows []Fig7Row) (avgSpeedup, maxSpeedup, avgQPSW, maxQPSW float64) {
	var n float64
	for _, r := range rows {
		for _, v := range []float64{r.SSD1, r.SSD2} {
			avgSpeedup += v
			if v > maxSpeedup {
				maxSpeedup = v
			}
			n++
		}
		for _, v := range []float64{r.SSD1QPSW, r.SSD2QPSW} {
			avgQPSW += v
			if v > maxQPSW {
				maxQPSW = v
			}
		}
	}
	return avgSpeedup / n, maxSpeedup, avgQPSW / n, maxQPSW
}
