package experiments

import (
	"context"
	"fmt"
	"strings"

	"reis/internal/reis"
)

// QDepthRow is one point of the queue-depth sweep: the whole workload
// query set served as single-query host commands through one
// asynchronous queue pair of the given depth. Depth 1 degenerates to
// synchronous submission; deeper queues let the dispatcher coalesce
// pending commands into batched executions, so the sweep reports how
// much of the batched path's throughput the NVMe-style interface
// recovers without any caller-side batching.
type QDepthRow struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"`
	Depth   int    `gate:"id"`
	HostCost
	// AvgBatch is the mean commands per dispatch (the coalescing the
	// queue achieved at this depth).
	AvgBatch float64 `gate:"report"`
	// ModelQPS is the modeled saturation throughput at this depth
	// (every command arrived at once, dispatcher coalescing up to the
	// depth bound) — deterministic, unlike WallQPS.
	ModelQPS float64 `gate:"exact"`
	// ModelP50Ms/P95/P99 are modeled per-command latency quantiles at
	// loadUtilization of ModelQPS (see slo.go).
	ModelP50Ms float64 `gate:"report"`
	ModelP95Ms float64 `gate:"report"`
	ModelP99Ms float64 `gate:"exact"`
	// ModelShares is priced at saturation: groups of Depth commands.
	ModelShares
}

// qdepthDepths is the queue-depth sweep.
var qdepthDepths = []int{1, 2, 4, 8, 16, 32}

// RunQDepth measures QPS versus submission-queue depth on REIS-SSD1
// for NQ. Every row serves the identical workload (each query one
// IVF_Search command); rows differ only in how many commands may be
// outstanding.
func RunQDepth(scale int) ([]QDepthRow, error) {
	var rows []QDepthRow
	w := loadWorkload("NQ", scale)
	for s, err := range setups(w, reis.AllOptions(), paperSSDs[:1], 1) {
		if err != nil {
			return nil, err
		}
		cmd, mode, err := s.sweepIVF()
		if err != nil {
			return nil, err
		}
		// One batched pass collects the per-query device stats behind
		// the modeled tail columns; queue coalescing never changes
		// stats (the determinism contract), so these stand for every
		// depth row below.
		resp, err := s.Submit(cmd)
		if err != nil {
			return nil, err
		}
		queries := cmd.Queries
		for _, depth := range qdepthDepths {
			q, err := s.NewQueue(reis.QueueConfig{Depth: depth})
			if err != nil {
				return nil, err
			}
			cost, err := measure(len(queries), func() error {
				return q.SubmitDrain(context.Background(), len(queries), func(i int) reis.HostCommand {
					single := cmd
					single.Queries = queries[i : i+1]
					return single
				}, nil)
			})
			st := q.Stats()
			q.Close()
			if err != nil {
				return nil, err
			}
			tail := s.tail(passOf(resp), w.IVF, depth, loadUtilization)
			row := QDepthRow{
				Dataset: w.Name, Mode: mode, Depth: depth, HostCost: cost,
				ModelQPS:   tail.SaturationQPS,
				ModelP50Ms: ms(tail.P50),
				ModelP95Ms: ms(tail.P95),
				ModelP99Ms: ms(tail.P99),

				ModelShares: s.sharesAt(passOf(resp), w.IVF, depth),
			}
			if st.Dispatches > 0 {
				row.AvgBatch = float64(st.Submitted) / float64(st.Dispatches)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatQDepth renders the queue-depth sweep.
func FormatQDepth(rows []QDepthRow) string {
	var sb strings.Builder
	sb.WriteString("Queue-depth sweep: single-query commands through one async queue pair (REIS-SSD1)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %10s %10s %10s %9s %9s %9s %5s %8s\n",
		"dataset", "mode", "depth", "wall QPS", "avg batch", "ns/op", "allocs/op",
		"model QPS", "p50 ms", "p95 ms", "p99 ms", "ibc", "bound")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.2f %10.0f %10.1f %10.1f %9.3f %9.3f %9.3f %5.2f %8s\n",
			r.Dataset, r.Mode, r.Depth, r.WallQPS, r.AvgBatch, r.NsPerOp, r.AllocsPerOp,
			r.ModelQPS, r.ModelP50Ms, r.ModelP95Ms, r.ModelP99Ms, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
