package experiments

import (
	"fmt"
	"strings"

	"reis/internal/reis"
)

// Fig9Row is one point of the Fig 9 sensitivity study: normalized QPS
// of each optimization stack at one recall target on wiki_full.
type Fig9Row struct {
	SSD    string  `gate:"id"`
	Recall float64 `gate:"id"`
	NoOpt  float64 `gate:"exact"` // normalized to CPU-Real
	DF     float64 `gate:"exact"` // +distance filtering
	DFPL   float64 `gate:"exact"` // +pipelining
	Full   float64 `gate:"exact"` // +MPIBC
}

// fig9Recalls are the sweep points of Fig 9.
var fig9Recalls = []float64{0.98, 0.96, 0.94, 0.92, 0.90}

// RunFig9 regenerates the Fig 9 sensitivity sweep on wiki_full.
func RunFig9(scale int, recalls []float64) ([]Fig9Row, error) {
	if recalls == nil {
		recalls = fig9Recalls
	}
	w := loadWorkload("wiki_full", scale)

	// The optimization stacks, each with the column it fills. One stack
	// is deployed at a time, on each device in turn, and fills its column
	// of every (device, recall) row.
	stacks := []struct {
		opts reis.Options
		col  func(*Fig9Row) *float64
	}{
		{reis.Options{}, func(r *Fig9Row) *float64 { return &r.NoOpt }},
		{reis.Options{DistanceFilter: true}, func(r *Fig9Row) *float64 { return &r.DF }},
		{reis.Options{DistanceFilter: true, Pipelining: true}, func(r *Fig9Row) *float64 { return &r.DFPL }},
		{reis.AllOptions(), func(r *Fig9Row) *float64 { return &r.Full }},
	}
	rows := make([]Fig9Row, len(paperSSDs)*len(recalls))
	for _, stk := range stacks {
		next := 0
		for s, err := range setups(w, stk.opts, paperSSDs, 1) {
			if err != nil {
				return nil, err
			}
			for _, target := range recalls {
				b, st, err := s.runIVFAt(10, target)
				if err != nil {
					return nil, err
				}
				cpuQPS, _ := cpuBaselineQPS(w, fineCandidates(st, w.IVF), rivalCoarse(w, st))
				row := &rows[next]
				next++
				row.SSD, row.Recall = s.Cfg.Name, target
				*stk.col(row) = (1 / b.Total.Seconds()) / cpuQPS
			}
		}
	}
	return rows, nil
}

// FormatFig9 renders the sensitivity sweep.
func FormatFig9(rows []Fig9Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 9: optimization sensitivity on wiki_full (QPS normalized to CPU-Real)\n")
	fmt.Fprintf(&sb, "%-10s %-7s %8s %8s %8s %8s\n", "SSD", "recall", "NO-OPT", "+DF", "+PL", "+MPIBC")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-7.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.SSD, r.Recall, r.NoOpt, r.DF, r.DFPL, r.Full)
	}
	return sb.String()
}

// ASICRow is the Sec 6.3.1 comparison: REIS versus the REIS-ASIC
// variant that replaces ESP with controller-side ECC.
type ASICRow struct {
	Dataset  string  `gate:"id"`
	SSD      string  `gate:"id"`
	Recall   float64 `gate:"id"`
	Slowdown float64 `gate:"exact"` // ASIC latency / REIS latency
}

// RunASIC regenerates the Sec 6.3.1 REIS-ASIC comparison.
func RunASIC(scale int, datasets []string) ([]ASICRow, error) {
	if datasets == nil {
		datasets = fig7Datasets
	}
	var rows []ASICRow
	for _, name := range datasets {
		w := loadWorkload(name, scale)
		for s, err := range setups(w, reis.AllOptions(), paperSSDs, 1) {
			if err != nil {
				return nil, err
			}
			for _, target := range recallTargets {
				_, st, err := s.runIVFAt(10, target)
				if err != nil {
					return nil, err
				}
				sc := w.IVF
				reisL := s.price(st, nil, sc).Total
				asicL := s.Engine.ASICLatency(s.DB, st, sc).Total
				rows = append(rows, ASICRow{
					Dataset: name, SSD: s.Cfg.Name, Recall: target,
					Slowdown: float64(asicL) / float64(reisL),
				})
			}
		}
	}
	return rows, nil
}

// FormatASIC renders the REIS-ASIC comparison.
func FormatASIC(rows []ASICRow) string {
	var sb strings.Builder
	sb.WriteString("Sec 6.3.1: REIS-ASIC slowdown vs REIS (paper: 4.1-5.0x SSD1, 3.9-6.5x SSD2)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %-7s %9s\n", "dataset", "SSD", "recall", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %-7.2f %8.2fx\n", r.Dataset, r.SSD, r.Recall, r.Slowdown)
	}
	return sb.String()
}
