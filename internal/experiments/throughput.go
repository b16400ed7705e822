package experiments

import (
	"fmt"
	"strings"
	"time"

	"reis/internal/reis"
)

// ThroughputRow is one point of the batched-admission throughput
// sweep: a dataset served at one batch size, with the wall-clock
// queries/sec of the functional simulation and the timing model's
// batch QPS at paper scale.
type ThroughputRow struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"`
	Batch   int    `gate:"id"`
	HostCost
	// ModelQPS is the modeled device throughput of the batch under the
	// channel-occupancy overlap model.
	ModelQPS float64 `gate:"exact"`
	// ModelSerialQPS is the modeled throughput of one-at-a-time
	// admission (1 / mean standalone latency).
	ModelSerialQPS float64 `gate:"report"`
	ModelShares
}

// throughputBatches is the admission batch-size sweep.
var throughputBatches = []int{1, 8, 64}

// RunThroughput measures batched versus sequential query admission on
// REIS-SSD1 for NQ and wiki_en. Every batch size serves the whole
// workload query set, admitted as host commands of the batch size
// (batch 1 is one one-query command per query), so rows differ only in
// admission overlap — never in which queries they serve.
func RunThroughput(scale int) ([]ThroughputRow, error) {
	var rows []ThroughputRow
	for _, name := range []string{"NQ", "wiki_en"} {
		w := loadWorkload(name, scale)
		for s, err := range setups(w, reis.AllOptions(), paperSSDs[:1], 1) {
			if err != nil {
				return nil, err
			}
			cmd, mode, err := s.sweepIVF()
			if err != nil {
				return nil, err
			}
			// One batched pass collects the per-query rows every batch
			// size is priced from: admission never changes them.
			resp, err := s.Submit(cmd)
			if err != nil {
				return nil, err
			}
			all, sc, queries := passOf(resp), w.IVF, cmd.Queries
			seen := make(map[int]bool)
			for _, batch := range throughputBatches {
				// Small workloads clamp large batch sizes to the query
				// count; skip duplicate rows.
				batch = min(batch, len(queries))
				if seen[batch] {
					continue
				}
				seen[batch] = true
				// Every batch size, 1 included, goes through the host
				// command interface, as the NVMe driver would submit it.
				cost, err := measure(len(queries), func() error {
					for lo := 0; lo < len(queries); lo += batch {
						cmd.Queries = queries[lo:min(lo+batch, len(queries))]
						if _, err := s.Submit(cmd); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				var use clockUse
				var serial time.Duration
				for lo := 0; lo < len(queries); lo += batch {
					serial += s.use(&use, all.window(lo, min(lo+batch, len(queries))), sc).Serial
				}
				n := float64(len(queries))
				rows = append(rows, ThroughputRow{
					Dataset: name, Mode: mode, Batch: batch, HostCost: cost,
					ModelQPS:       n / use.busy.Makespan.Seconds(),
					ModelSerialQPS: n / serial.Seconds(),
					ModelShares:    use.shares(),
				})
			}
		}
	}
	return rows, nil
}

// FormatThroughput renders the batched-admission sweep.
func FormatThroughput(rows []ThroughputRow) string {
	var sb strings.Builder
	sb.WriteString("Batched query admission: wall-clock and modeled QPS (REIS-SSD1)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %12s %8s %10s %10s %5s %8s\n",
		"dataset", "mode", "batch", "wall QPS", "model QPS", "model serial", "overlap", "ns/op", "allocs/op", "ibc", "bound")
	for _, r := range rows {
		gain := 0.0
		if r.ModelSerialQPS > 0 {
			gain = r.ModelQPS / r.ModelSerialQPS
		}
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.1f %12.1f %7.2fx %10.0f %10.1f %5.2f %8s\n",
			r.Dataset, r.Mode, r.Batch, r.WallQPS, r.ModelQPS, r.ModelSerialQPS, gain, r.NsPerOp, r.AllocsPerOp, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
