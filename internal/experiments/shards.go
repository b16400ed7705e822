package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"reis/internal/reis"
)

// ShardRow is one point of the scale-out sweep: the whole workload
// query set served by a ShardedEngine of the given device count.
// Results are bit-identical across rows (the determinism contract of
// the sharded topology); rows differ in wall-clock cost of the
// functional simulation and in the modeled makespan, where the scan
// phases shrink with the per-shard critical path.
type ShardRow struct {
	Dataset string `gate:"id"`
	Mode    string `gate:"id"`
	Shards  int    `gate:"id"`
	HostCost
	// ModelQPS is the modeled batch throughput of the sharded topology
	// (per-shard occupancy bottleneck + the host's tail).
	ModelQPS float64 `gate:"exact"`
	// ModelSpeedup is ModelQPS relative to the 1-shard row.
	ModelSpeedup float64 `gate:"report"`
	// ModelP50Ms/P95/P99 are modeled per-command latency quantiles at
	// loadUtilization of the depth-DefaultQueueDepth saturation
	// throughput of this topology (see slo.go).
	ModelP50Ms float64 `gate:"report"`
	ModelP95Ms float64 `gate:"report"`
	ModelP99Ms float64 `gate:"exact"`
	ModelShares
}

// shardCounts is the scale-out sweep; every count divides the
// 8 channels of REIS-SSD1.
var shardCounts = []int{1, 2, 4}

// RunShards measures throughput versus shard count on REIS-SSD1-class
// devices for NQ. Every shard count serves the identical workload twice
// through the sharded router: as one batched brute-force Search
// command (scan-bound — scale-out's best case: the fine-scan critical
// path shrinks with the device count) and as one batched IVF_Search at
// the calibrated nprobe (each device loads the query into the dies its
// share of the probe touches; the controller tail, which does not
// shard, bounds the speedup).
func RunShards(scale int) ([]ShardRow, error) {
	var rows []ShardRow
	w := loadWorkload("NQ", scale)
	base := map[string]float64{}
	for s, err := range setups(w, reis.AllOptions(), paperSSDs[:1], shardCounts...) {
		if err != nil {
			return nil, err
		}
		// Every topology calibrates for itself and lands on the same
		// nprobe: sharded results are bit-identical to a single
		// device's (pinned by the equivalence tests).
		ivf, mode, err := s.sweepIVF()
		if err != nil {
			return nil, err
		}
		bf := ivf
		bf.Opcode, bf.Opt.NProbe = reis.OpcodeSearch, 0
		for _, r := range []struct {
			mode string
			cmd  reis.HostCommand
			sc   reis.Scale
		}{{"BF", bf, w.BF}, {mode, ivf, w.IVF}} {
			row, err := shardRow(s, r.cmd, r.sc)
			if err != nil {
				return nil, err
			}
			row.Mode = r.mode
			if base[r.mode] == 0 {
				base[r.mode] = row.ModelQPS
			}
			row.ModelSpeedup = row.ModelQPS / base[r.mode]
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// shardRepeats is how many times shardRow's host-clock bracket serves
// the command.
const shardRepeats = 8

// shardRow serves the whole query set as one batched host command and
// models the batch, and the loaded queue's tail, on the setup's topology.
func shardRow(s *setup, cmd reis.HostCommand, sc reis.Scale) (ShardRow, error) {
	// Serve the command once unmeasured: the first one on a topology
	// starts the built-in queue pair and every member's plane workers and
	// grows the pooled buffers, and what that costs depends on what the
	// process ran before (dead goroutines are recycled). The measured
	// repeat is the steady state, reproducible enough for benchdiff to
	// gate its allocs/op. No caching tier is configured, so the repeat
	// does the same device work. The collection pins the one remaining
	// variable, where the collector's next cycle falls: the deploy leaves
	// the heap near its trigger, and a cycle that lands inside the
	// measured command is charged to it. Measured without this line, the
	// BF rows read 28 and ~26 allocs/op at 2 and 4 shards instead of 13.25
	// and 14.875, and moved with what the process had run before. What is
	// left is a pooled buffer the collector may empty inside the window
	// and the next command allocates again — one allocation, a whole
	// 0.125 of an 8-query command's allocs/op — so the bracket holds
	// shardRepeats repeats of the command and charges each query its
	// share of all of them.
	if _, err := s.Submit(cmd); err != nil {
		return ShardRow{}, err
	}
	runtime.GC()
	var resp reis.HostResponse
	cost, err := measure(shardRepeats*len(cmd.Queries), func() (err error) {
		for range shardRepeats {
			if resp, err = s.Submit(cmd); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ShardRow{}, err
	}
	tail := s.tail(passOf(resp), sc, reis.DefaultQueueDepth, loadUtilization)
	var use clockUse
	return ShardRow{
		Dataset: s.W.Name, Shards: s.Devices, HostCost: cost,
		ModelQPS:   s.use(&use, passOf(resp), sc).QPS,
		ModelP50Ms: ms(tail.P50),
		ModelP95Ms: ms(tail.P95),
		ModelP99Ms: ms(tail.P99),

		ModelShares: use.shares(),
	}, nil
}

// FormatShards renders the scale-out sweep.
func FormatShards(rows []ShardRow) string {
	var sb strings.Builder
	sb.WriteString("Shard scale-out: one batched command over N devices (REIS-SSD1 class)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %8s %10s %10s %9s %9s %9s %5s %8s\n",
		"dataset", "mode", "shards", "wall QPS", "model QPS", "speedup", "ns/op", "allocs/op",
		"p50 ms", "p95 ms", "p99 ms", "ibc", "bound")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.1f %7.2fx %10.0f %10.1f %9.3f %9.3f %9.3f %5.2f %8s\n",
			r.Dataset, r.Mode, r.Shards, r.WallQPS, r.ModelQPS, r.ModelSpeedup, r.NsPerOp, r.AllocsPerOp,
			r.ModelP50Ms, r.ModelP95Ms, r.ModelP99Ms, r.IBCShare, r.Bottleneck)
	}
	return sb.String()
}
