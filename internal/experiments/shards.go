package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"reis/internal/reis"
	"reis/internal/ssd"
)

// ShardRow is one point of the scale-out sweep: the whole workload
// query set served by a ShardedEngine of the given device count.
// Results are bit-identical across rows (the determinism contract of
// the sharded topology); rows differ in wall-clock cost of the
// functional simulation and in the modeled makespan, where the scan
// phases shrink with the per-shard critical path.
type ShardRow struct {
	Dataset string
	Mode    string
	Shards  int
	// WallQPS is the functional simulation's wall-clock throughput. On
	// a single-CPU host it does not improve with shard count (the
	// simulation does the same total work); ModelQPS is the scale-out
	// quantity.
	WallQPS float64
	// ModelQPS is the modeled batch throughput of the sharded topology
	// (per-shard occupancy bottleneck + the host's tail).
	ModelQPS float64
	// ModelSpeedup is ModelQPS relative to the 1-shard row.
	ModelSpeedup float64
	// NsPerOp / AllocsPerOp / BytesPerOp are per served query.
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	// ModelP50Ms/P95/P99 are modeled per-command latency quantiles at
	// LoadUtilization of the depth-DefaultQueueDepth saturation
	// throughput of this topology (see slo.go).
	ModelP50Ms float64
	ModelP95Ms float64
	ModelP99Ms float64
}

// ShardCounts is the default scale-out sweep; every count divides the
// 8 channels of REIS-SSD1.
var ShardCounts = []int{1, 2, 4}

// RunShards measures throughput versus shard count on REIS-SSD1-class
// devices. Every shard count serves the identical workload twice
// through the sharded router: as one batched brute-force Search
// command (scan-bound — scale-out's best case: the fine-scan critical
// path shrinks with the device count) and as one batched IVF_Search at
// the calibrated nprobe (the broadcast floor bounds the speedup —
// every device still latches the query into all of its dies).
func RunShards(scale int, datasets []string, counts []int) ([]ShardRow, error) {
	if datasets == nil {
		datasets = []string{"NQ"}
	}
	if counts == nil {
		counts = ShardCounts
	}
	var rows []ShardRow
	for _, name := range datasets {
		w := LoadWorkload(name, scale)
		nprobe := 0
		base := map[string]float64{}
		for _, n := range counts {
			cfg := ssd.SSD1()
			cfg.Geo.BlocksPerPlane = 8
			cfg.Geo.PagesPerBlock = 16
			need := int64(w.Data.Len()) * int64(w.Data.Dim*3)
			sh, err := reis.NewSharded(cfg, n, need*4+64<<20, reis.AllOptions())
			if err != nil {
				return nil, err
			}
			_, err = sh.IVFDeploy(reis.DeployConfig{
				ID: 1, Vectors: w.Data.Vectors, Docs: w.Data.Docs,
				DocSlotBytes: docSlot(w.Data), Centroids: w.Centroids, Assign: w.Assign,
			})
			if err != nil {
				sh.Close()
				return nil, err
			}
			if nprobe == 0 {
				// Calibrate once: sharded results are bit-identical to a
				// single device's, so the calibrated nprobe is the same
				// for every shard count (pinned by the equivalence tests).
				if nprobe, err = sh.CalibrateNProbe(1, w.Data.Queries, w.Data.GroundTruth, 10, 0.94); err != nil {
					sh.Close()
					return nil, err
				}
			}
			runs := []struct {
				mode string
				op   uint8
				np   int
				sc   reis.Scale
			}{
				{"BF", reis.OpcodeSearch, 0, w.ScaleBF()},
				{fmt.Sprintf("IVF@np%d", nprobe), reis.OpcodeIVFSearch, nprobe, w.ScaleIVF()},
			}
			for _, r := range runs {
				row, err := runShardRow(sh, w, name, r.mode, r.op, r.np, n, r.sc)
				if err != nil {
					sh.Close()
					return nil, err
				}
				if base[r.mode] == 0 {
					base[r.mode] = row.ModelQPS
				}
				row.ModelSpeedup = row.ModelQPS / base[r.mode]
				rows = append(rows, row)
			}
			sh.Close()
		}
	}
	return rows, nil
}

// runShardRow serves the whole query set as one batched host command
// and models the batch on the sharded topology.
func runShardRow(sh *reis.ShardedEngine, w *Workload, dataset, mode string, op uint8, nprobe, shards int, sc reis.Scale) (ShardRow, error) {
	queries := w.Data.Queries
	cmd := reis.HostCommand{Opcode: op, DBID: 1, Queries: queries, K: 10, NProbe: nprobe}
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
	// BF rows (the first command after each deploy) read 28 and ~26
	// allocs/op at 2 and 4 shards instead of 13.25 and 14.875, and moved
	// with what the process had run before; with it every row repeats to
	// ±0.25.
	if _, err := sh.Submit(cmd); err != nil {
		return ShardRow{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	resp, err := sh.Submit(cmd)
	if err != nil {
		return ShardRow{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	bb, err := sh.BatchLatency(1, resp.QueryStats, resp.PerShard, sc)
	if err != nil {
		return ShardRow{}, err
	}
	// Tail columns: replay the cycled query stats through the
	// virtual-time dispatcher model over this topology.
	n := len(resp.QueryStats)
	var costErr error
	cost := func(first, cn int) time.Duration {
		sts := make([]reis.QueryStats, cn)
		group := make([][]reis.QueryStats, shards)
		for s := range group {
			group[s] = make([]reis.QueryStats, cn)
		}
		for k := 0; k < cn; k++ {
			qi := (first + k) % n
			sts[k] = resp.QueryStats[qi]
			for s := 0; s < shards; s++ {
				group[s][k] = resp.PerShard[s][qi]
			}
		}
		gb, err := sh.BatchLatency(1, sts, group, sc)
		if err != nil && costErr == nil {
			costErr = err
		}
		return gb.Makespan
	}
	tail := modelTail(cost, reis.DefaultQueueDepth)
	if costErr != nil {
		return ShardRow{}, costErr
	}
	nq := float64(len(queries))
	return ShardRow{
		Dataset: dataset, Mode: mode, Shards: shards,
		WallQPS:     nq / wall.Seconds(),
		ModelQPS:    bb.QPS,
		NsPerOp:     float64(wall.Nanoseconds()) / nq,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / nq,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / nq,
		ModelP50Ms:  ms(tail.P50),
		ModelP95Ms:  ms(tail.P95),
		ModelP99Ms:  ms(tail.P99),
	}, nil
}

// FormatShards renders the scale-out sweep.
func FormatShards(rows []ShardRow) string {
	var sb strings.Builder
	sb.WriteString("Shard scale-out: one batched command over N devices (REIS-SSD1 class)\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %10s %10s %8s %10s %10s %9s %9s %9s\n",
		"dataset", "mode", "shards", "wall QPS", "model QPS", "speedup", "ns/op", "allocs/op",
		"p50 ms", "p95 ms", "p99 ms")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %6d %10.1f %10.1f %7.2fx %10.0f %10.1f %9.3f %9.3f %9.3f\n",
			r.Dataset, r.Mode, r.Shards, r.WallQPS, r.ModelQPS, r.ModelSpeedup, r.NsPerOp, r.AllocsPerOp,
			r.ModelP50Ms, r.ModelP95Ms, r.ModelP99Ms)
	}
	return sb.String()
}
