package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"reis/internal/reis"
	"reis/internal/ssd"
)

// QDepthRow is one point of the queue-depth sweep: the whole workload
// query set served as single-query host commands through one
// asynchronous queue pair of the given depth. Depth 1 degenerates to
// synchronous submission; deeper queues let the dispatcher coalesce
// pending commands into batched executions, so the sweep reports how
// much of the batched path's throughput the NVMe-style interface
// recovers without any caller-side batching.
type QDepthRow struct {
	Dataset string
	Mode    string
	Depth   int
	// WallQPS is the functional simulation's wall-clock throughput.
	WallQPS float64
	// AvgBatch is the mean commands per dispatch (the coalescing the
	// queue achieved at this depth).
	AvgBatch float64
	// NsPerOp / AllocsPerOp / BytesPerOp are per served query, the
	// quantities the BENCH_*.json trajectory tracks.
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	// ModelQPS is the modeled saturation throughput at this depth
	// (every command arrived at once, dispatcher coalescing up to the
	// depth bound) — deterministic, unlike WallQPS.
	ModelQPS float64
	// ModelP50Ms/P95/P99 are modeled per-command latency quantiles at
	// LoadUtilization of ModelQPS (see slo.go).
	ModelP50Ms float64
	ModelP95Ms float64
	ModelP99Ms float64
}

// QDepthDepths is the default queue-depth sweep.
var QDepthDepths = []int{1, 2, 4, 8, 16, 32}

// RunQDepth measures QPS versus submission-queue depth on REIS-SSD1.
// Every row serves the identical workload (each query one IVF_Search
// command); rows differ only in how many commands may be outstanding.
func RunQDepth(scale int, datasets []string, depths []int) ([]QDepthRow, error) {
	if datasets == nil {
		datasets = []string{"NQ"}
	}
	if depths == nil {
		depths = QDepthDepths
	}
	var rows []QDepthRow
	for _, name := range datasets {
		w := LoadWorkload(name, scale)
		s, err := NewSetup(ssd.SSD1(), w, reis.AllOptions())
		if err != nil {
			return nil, err
		}
		defer s.Close()
		nprobe, err := s.NProbeFor(0.94)
		if err != nil {
			return nil, err
		}
		queries := w.Data.Queries
		// One batched pass collects the per-query device stats behind
		// the modeled tail columns; queue coalescing never changes
		// stats (the determinism contract), so these stand for every
		// depth row below.
		statsResp, err := s.Engine.Submit(reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 1,
			Queries: queries, K: 10, NProbe: nprobe,
		})
		if err != nil {
			return nil, err
		}
		sc := w.ScaleIVF()
		for _, depth := range depths {
			ch := make(chan reis.Completion, depth)
			q, err := s.Engine.NewQueue(reis.QueueConfig{Depth: depth, Completions: ch})
			if err != nil {
				return nil, err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			err = q.SubmitDrain(context.Background(), ch, len(queries), func(i int) reis.HostCommand {
				return reis.HostCommand{
					Opcode: reis.OpcodeIVFSearch, DBID: 1,
					Queries: [][]float32{queries[i]}, K: 10, NProbe: nprobe,
				}
			}, nil)
			if err != nil {
				q.Close()
				return nil, err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			st := q.Stats()
			q.Close()
			n := float64(len(queries))
			avg := 0.0
			if st.Dispatches > 0 {
				avg = float64(st.Submitted) / float64(st.Dispatches)
			}
			cost := func(first, cn int) time.Duration {
				window := make([]reis.QueryStats, cn)
				for k := range window {
					window[k] = statsResp.QueryStats[(first+k)%len(statsResp.QueryStats)]
				}
				return s.Engine.BatchLatency(s.DB, window, sc).Makespan
			}
			tail := modelTail(cost, depth)
			rows = append(rows, QDepthRow{
				Dataset: name, Mode: fmt.Sprintf("IVF@np%d", nprobe), Depth: depth,
				WallQPS:     n / wall.Seconds(),
				AvgBatch:    avg,
				NsPerOp:     float64(wall.Nanoseconds()) / n,
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
				BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
				ModelQPS:    tail.SaturationQPS,
				ModelP50Ms:  ms(tail.P50),
				ModelP95Ms:  ms(tail.P95),
				ModelP99Ms:  ms(tail.P99),
			})
		}
	}
	return rows, nil
}

// FormatQDepth renders the queue-depth sweep.
func FormatQDepth(rows []QDepthRow) string {
	var sb strings.Builder
	sb.WriteString("Queue-depth sweep: single-query commands through one async queue pair (REIS-SSD1)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %10s %10s %10s %9s %9s %9s\n",
		"dataset", "mode", "depth", "wall QPS", "avg batch", "ns/op", "allocs/op",
		"model QPS", "p50 ms", "p95 ms", "p99 ms")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.2f %10.0f %10.1f %10.1f %9.3f %9.3f %9.3f\n",
			r.Dataset, r.Mode, r.Depth, r.WallQPS, r.AvgBatch, r.NsPerOp, r.AllocsPerOp,
			r.ModelQPS, r.ModelP50Ms, r.ModelP95Ms, r.ModelP99Ms)
	}
	return sb.String()
}
