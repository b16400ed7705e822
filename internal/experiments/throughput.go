package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"reis/internal/reis"
	"reis/internal/ssd"
)

// ThroughputRow is one point of the batched-admission throughput
// sweep: a dataset served at one batch size, with the wall-clock
// queries/sec of the functional simulation and the timing model's
// batch QPS at paper scale.
type ThroughputRow struct {
	Dataset string
	Mode    string
	Batch   int
	// WallQPS is the functional simulation's wall-clock throughput
	// (how fast this reproduction executes, not a paper quantity).
	WallQPS float64
	// ModelQPS is the modeled device throughput of the batch under the
	// channel-occupancy overlap model.
	ModelQPS float64
	// ModelSerialQPS is the modeled throughput of one-at-a-time
	// admission (1 / mean standalone latency).
	ModelSerialQPS float64
	// NsPerOp, AllocsPerOp and BytesPerOp are wall-clock nanoseconds,
	// heap allocations and heap bytes per served query of the
	// functional simulation — the quantities the repo's BENCH_*.json
	// perf trajectory tracks.
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
}

// ThroughputBatches is the default admission batch-size sweep.
var ThroughputBatches = []int{1, 8, 64}

// RunThroughput measures batched versus sequential query admission on
// REIS-SSD1 for the given datasets. Every batch size serves the whole
// workload query set, admitted as host commands of the batch size
// (batch 1 is one one-query command per query), so rows differ only in
// admission overlap — never in which queries they serve.
func RunThroughput(scale int, datasets []string, batches []int) ([]ThroughputRow, error) {
	if datasets == nil {
		datasets = []string{"NQ", "wiki_en"}
	}
	if batches == nil {
		batches = ThroughputBatches
	}
	var rows []ThroughputRow
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
		sc := w.ScaleIVF()
		queries := w.Data.Queries
		seen := make(map[int]bool)
		for _, batch := range batches {
			if batch > len(queries) {
				batch = len(queries)
			}
			// Small workloads clamp large batch sizes to the query
			// count; skip duplicate rows.
			if seen[batch] {
				continue
			}
			seen[batch] = true
			var (
				makespan, serial time.Duration
				m0, m1           runtime.MemStats
			)
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for lo := 0; lo < len(queries); lo += batch {
				hi := min(lo+batch, len(queries))
				// Every batch size, 1 included, goes through the host
				// command interface, as the NVMe driver would submit it.
				resp, err := s.Engine.Submit(reis.HostCommand{
					Opcode: reis.OpcodeIVFSearch, DBID: 1,
					Queries: queries[lo:hi], K: 10, NProbe: nprobe,
				})
				if err != nil {
					return nil, err
				}
				sts := resp.QueryStats
				bd := s.Engine.BatchLatency(s.DB, sts, sc)
				makespan += bd.Makespan
				serial += bd.Serial
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			n := float64(len(queries))
			rows = append(rows, ThroughputRow{
				Dataset: name, Mode: fmt.Sprintf("IVF@np%d", nprobe), Batch: batch,
				WallQPS:        n / wall.Seconds(),
				ModelQPS:       n / makespan.Seconds(),
				ModelSerialQPS: n / serial.Seconds(),
				NsPerOp:        float64(wall.Nanoseconds()) / n,
				AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / n,
				BytesPerOp:     float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			})
		}
	}
	return rows, nil
}

// FormatThroughput renders the batched-admission sweep.
func FormatThroughput(rows []ThroughputRow) string {
	var sb strings.Builder
	sb.WriteString("Batched query admission: wall-clock and modeled QPS (REIS-SSD1)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %12s %8s %10s %10s\n",
		"dataset", "mode", "batch", "wall QPS", "model QPS", "model serial", "overlap", "ns/op", "allocs/op")
	for _, r := range rows {
		gain := 0.0
		if r.ModelSerialQPS > 0 {
			gain = r.ModelQPS / r.ModelSerialQPS
		}
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.1f %12.1f %7.2fx %10.0f %10.1f\n",
			r.Dataset, r.Mode, r.Batch, r.WallQPS, r.ModelQPS, r.ModelSerialQPS, gain, r.NsPerOp, r.AllocsPerOp)
	}
	return sb.String()
}
