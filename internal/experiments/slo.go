package experiments

import (
	"fmt"
	"strings"

	"reis/internal/reis"
)

// This file runs the SLO sweep: per-command latency distributions
// under an open-loop arrival schedule, across arrival rate × queue
// depth × shard count. Where the throughput sweeps ask "how many
// queries per second can the device absorb", the SLO sweep asks what a
// single command experiences while the queue is loaded — the p99 here
// is the number a serving tier would put in its latency SLO, and
// cmd/benchdiff gates on it (see DESIGN.md, "Latency distributions and
// SLOs").

// loadUtilization is the pinned operating point of the tail columns on
// the qdepth and shards sweeps: the arrival rate is this fraction of
// the row's saturation throughput. Pinning utilization instead of an
// absolute rate keeps rows comparable across model changes — a faster
// model is probed proportionally harder — while still exposing
// service-time regressions directly in the quantiles.
const loadUtilization = 0.8

// loadCommands is the command-stream length behind every modeled tail;
// long enough that p99 rests on real samples.
const loadCommands = 256

// loadSeed seeds every arrival schedule in the sweeps; a fixed seed is
// what makes the reported quantiles reproducible bit for bit.
const loadSeed = 0x510ad

// SLO sweep axes: every (depth, load) cell runs on every shard count.
var (
	sloDepths      = []int{1, 8, 32}
	sloLoads       = []float64{0.5, 0.8, 0.95}
	sloShardCounts = []int{1, 2}
)

// SLORow is one cell of the SLO sweep. Dataset/Mode/Shards/Depth/Load
// identify the cell; everything else is a deterministic function of
// the timing model, so benchdiff can gate on it.
type SLORow struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"`
	Shards  int    `gate:"id"`
	Depth   int    `gate:"id"`
	// Load is the utilization label ("0.50", "0.80", "0.95"): the
	// arrival rate as a fraction of this cell's saturation throughput.
	Load string `gate:"id"`
	// ArrivalQPS is the resolved arrival rate of the schedule.
	ArrivalQPS float64 `gate:"report"`
	// ModelQPS is the saturation throughput at this depth and shard
	// count (every command arrived at once, full coalescing) — the
	// ceiling the Load fraction is taken of.
	ModelQPS float64 `gate:"exact"`
	// ModelP50Ms..ModelP999Ms are modeled per-command latency
	// quantiles (completion minus arrival) under the schedule; p99 is
	// the SLO.
	ModelP50Ms  float64 `gate:"report"`
	ModelP95Ms  float64 `gate:"report"`
	ModelP99Ms  float64 `gate:"exact"`
	ModelP999Ms float64 `gate:"report"`
	// MeanBatch is the mean commands per dispatch the replay achieved;
	// MaxBacklog is the peak arrived-but-unserved command count.
	MeanBatch  float64 `gate:"report"`
	MaxBacklog int     `gate:"report"`
	// ModelShares is priced at saturation: groups of Depth commands.
	ModelShares
}

// RunSLO sweeps arrival rate × queue depth × shard count on
// REIS-SSD1-class devices over NQ. Every topology serves the workload's
// query set once, as one batched IVF command; every cell replays
// loadCommands single-query commands (those queries, cycled) under the
// seeded Poisson schedule through the virtual-time dispatcher model
// (setup.tail). nil axes select the defaults.
func RunSLO(scale int, depths []int, loads []float64) ([]SLORow, error) {
	if depths == nil {
		depths = sloDepths
	}
	if loads == nil {
		loads = sloLoads
	}
	var rows []SLORow
	w := loadWorkload("NQ", scale)
	for s, err := range setups(w, reis.AllOptions(), paperSSDs[:1], sloShardCounts...) {
		if err != nil {
			return nil, err
		}
		cmd, mode, err := s.sweepIVF()
		if err != nil {
			return nil, err
		}
		resp, err := s.Submit(cmd)
		if err != nil {
			return nil, err
		}
		for _, depth := range depths {
			shares := s.sharesAt(passOf(resp), w.IVF, depth)
			for _, load := range loads {
				res := s.tail(passOf(resp), w.IVF, depth, load)
				rows = append(rows, SLORow{
					Dataset: w.Name, Mode: mode,
					Shards: s.Devices, Depth: depth, Load: fmt.Sprintf("%.2f", load),
					ArrivalQPS:  res.Rate,
					ModelQPS:    res.SaturationQPS,
					ModelP50Ms:  ms(res.P50),
					ModelP95Ms:  ms(res.P95),
					ModelP99Ms:  ms(res.P99),
					ModelP999Ms: ms(res.P999),
					MeanBatch:   res.MeanBatch,
					MaxBacklog:  res.MaxBacklog,
					ModelShares: shares,
				})
			}
		}
	}
	return rows, nil
}

// FormatSLO renders the SLO sweep.
func FormatSLO(rows []SLORow) string {
	var sb strings.Builder
	sb.WriteString("SLO sweep: open-loop arrivals through one async queue pair (REIS-SSD1 class)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %6s %5s %10s %10s %9s %9s %9s %9s %7s %8s %5s %8s\n",
		"dataset", "mode", "shards", "depth", "load", "arrive/s", "sat QPS",
		"p50 ms", "p95 ms", "p99 ms", "p999 ms", "batch", "backlog", "ibc", "bound")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %6d %6d %5s %10.1f %10.1f %9.3f %9.3f %9.3f %9.3f %7.2f %8d %5.2f %8s\n",
			r.Dataset, r.Mode, r.Shards, r.Depth, r.Load, r.ArrivalQPS, r.ModelQPS,
			r.ModelP50Ms, r.ModelP95Ms, r.ModelP99Ms, r.ModelP999Ms, r.MeanBatch, r.MaxBacklog, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
