package reis

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark executes the corresponding experiment
// runner and reports the headline quantity the paper quotes as a
// custom benchmark metric, so `go test -bench=. -benchmem` regenerates
// the full evaluation.
//
// BENCH_SCALE semantics: workloads run at catalog size divided by the
// scale constant below; device latencies are costed at the paper's
// full dataset sizes (see internal/experiments).

import (
	"context"
	"fmt"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/experiments"
	"reis/internal/reis"
	"reis/internal/ssd"
)

// benchScale divides the catalog workload sizes. 16 keeps the full
// suite within a few minutes while leaving thousands of vectors per
// dataset.
const benchScale = 16

// benchCorpus is the quickstart-scale workload (2000 x 256-dim, 20
// topics, 64 queries) with its k-means clustering, and the REIS-SSD1
// configuration the host benchmarks deploy it on: full plane
// parallelism, 8 blocks of 16 pages per plane.
func benchCorpus() (*dataset.Dataset, *reis.DeployConfig, ssd.Config) {
	data := dataset.Generate(dataset.Config{
		Name: "throughput", N: 2000, Dim: 256, Clusters: 20,
		Queries: 64, DocBytes: 512, Seed: 7,
	})
	cents, assign := ann.KMeans(data.Vectors, ann.KMeansConfig{K: 20, Seed: 7})
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	return data, &reis.DeployConfig{
		ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512,
		Centroids: cents, Assign: assign,
	}, cfg
}

// throughputSetup deploys benchCorpus as one IVF database on one device,
// for the batched-vs-sequential throughput benchmarks.
func throughputSetup(b *testing.B) (*reis.Engine, *reis.Database, [][]float32) {
	b.Helper()
	data, deploy, cfg := benchCorpus()
	engine, err := reis.New(cfg, 256<<20, reis.AllOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := engine.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: deploy}); err != nil {
		b.Fatal(err)
	}
	db, err := engine.DB(1)
	if err != nil {
		b.Fatal(err)
	}
	return engine, db, data.Queries
}

// BenchmarkShardedSearch times the cross-device round and fold: one
// 8-query command per op on a 4-device host (NewSharded) over
// benchCorpus, a flat command on its flat deployment and an IVF command
// (nprobe 4) on its IVF one. Every device's die workers scan their share
// of a round and the controller folds the four streams into each query's
// before the tail. The response is released, so its output blocks
// recycle; no queue or gateway is in the path.
func BenchmarkShardedSearch(b *testing.B) {
	data, deploy, cfg := benchCorpus()
	host, err := reis.NewSharded(cfg, 4, 256<<20, reis.AllOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()
	flat := *deploy
	flat.ID, flat.Centroids, flat.Assign = 2, nil, nil
	for _, cmd := range []reis.HostCommand{
		{Opcode: reis.OpcodeIVFDeploy, Deploy: deploy},
		{Opcode: reis.OpcodeDBDeploy, Deploy: &flat},
	} {
		if _, err := host.Submit(cmd); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		cmd  reis.HostCommand
	}{
		{"flat", reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 2, K: 10}},
		{"ivf", reis.HostCommand{Opcode: reis.OpcodeIVFSearch, DBID: 1, K: 10, Opt: reis.SearchOptions{NProbe: 4}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cmd := bc.cmd
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				// Rotate through the query set eight at a time.
				lo := i * 8 % len(data.Queries)
				cmd.Queries = data.Queries[lo : lo+8]
				resp, err := host.Submit(cmd)
				if err != nil {
					b.Fatal(err)
				}
				resp.Release()
			}
		})
	}
}

// BenchmarkSearchThroughput sweeps the admission batch size and
// reports wall-clock queries/sec of the functional simulation plus the
// timing model's batch QPS: one Search command of batch queries per op,
// through Submit. Batch size 1 is the one-at-a-time baseline.
func BenchmarkSearchThroughput(b *testing.B) {
	engine, db, queries := throughputSetup(b)
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			// Every sub-benchmark rotates through the same query list,
			// so qps across batch sizes compares identical workloads.
			qs := make([][]float32, batch)
			var resp reis.HostResponse
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range qs {
					qs[j] = queries[(i*batch+j)%len(queries)]
				}
				var err error
				resp, err = engine.Submit(reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: qs, K: 10})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "qps")
			bd := engine.BatchLatency(db, resp.QueryStats, reis.UnitScale())
			b.ReportMetric(bd.QPS, "model_qps")
		})
	}
}

// BenchmarkQueueDepth serves the same workload as
// BenchmarkSearchThroughput, but as single-query host commands through
// one asynchronous queue pair, sweeping the submission-queue depth. At
// depth 1 the queue degenerates to synchronous submission; at depth 8+
// the dispatcher coalesces pending commands into batched executions,
// so qps should approach the batch=8/64 rows of the batched path.
func BenchmarkQueueDepth(b *testing.B) {
	engine, _, queries := throughputSetup(b)
	defer engine.Close()
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			queue, err := engine.NewQueue(reis.QueueConfig{Depth: depth})
			if err != nil {
				b.Fatal(err)
			}
			defer queue.Close()
			b.ResetTimer()
			err = queue.SubmitDrain(context.Background(), b.N, func(i int) reis.HostCommand {
				return reis.HostCommand{
					Opcode: reis.OpcodeSearch, DBID: 1,
					Queries: [][]float32{queries[i%len(queries)]}, K: 10,
				}
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			st := queue.Stats()
			if st.Dispatches > 0 {
				b.ReportMetric(float64(st.Submitted)/float64(st.Dispatches), "avg_batch")
			}
		})
	}
}

func BenchmarkFig2RAGBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRAGBreakdown(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "CPU flat" && r.Dataset == "wiki_en" {
				b.ReportMetric(100*r.Stages.Fractions().DatasetLoad, "wiki_en_load_%")
			}
		}
	}
}

func BenchmarkFig3RAGBreakdownBQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRAGBreakdown(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "CPU+BQ" && r.Dataset == "wiki_en" {
				b.ReportMetric(100*r.Stages.Fractions().DatasetLoad, "wiki_en_BQ_load_%")
			}
		}
	}
}

func BenchmarkFig5AlgorithmComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig5(benchScale * 2)
		if err != nil {
			b.Fatal(err)
		}
		var bestBQIVF float64
		for _, p := range pts {
			if p.Algorithm == "BQ IVF" && p.NormQPS > bestBQIVF {
				bestBQIVF = p.NormQPS
			}
		}
		b.ReportMetric(bestBQIVF, "BQ-IVF_peak_normQPS")
	}
}

func BenchmarkFig7Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig7(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		avg, maxS, _, _ := experiments.SummarizeFig7(rows)
		b.ReportMetric(avg, "avg_speedup_x")
		b.ReportMetric(maxS, "max_speedup_x")
	}
}

func BenchmarkFig8EnergyEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig7(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, _, avgW, maxW := experiments.SummarizeFig7(rows)
		b.ReportMetric(avgW, "avg_QPSperW_x")
		b.ReportMetric(maxW, "max_QPSperW_x")
	}
}

func BenchmarkTable4EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRAGBreakdown(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var reisTotal, cpuTotal float64
		for _, r := range rows {
			if r.Dataset == "wiki_en" {
				switch r.System {
				case "REIS-SSD1":
					reisTotal = r.Stages.Total()
				case "CPU+BQ":
					cpuTotal = r.Stages.Total()
				}
			}
		}
		if reisTotal > 0 {
			b.ReportMetric(cpuTotal/reisTotal, "wiki_en_e2e_speedup_x")
		}
	}
}

func BenchmarkFig9Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig9(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		var dfGain float64
		var n float64
		for _, r := range rows {
			if r.NoOpt > 0 {
				dfGain += r.DF / r.NoOpt
				n++
			}
		}
		b.ReportMetric(dfGain/n, "avg_DF_gain_x")
	}
}

func BenchmarkREISASIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunASIC(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Slowdown
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_ASIC_slowdown_x")
	}
}

func BenchmarkFig10VersusICE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig10(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.SpeedupICE
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_speedup_vs_ICE_x")
	}
}

func BenchmarkFig11VersusNDSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig11(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.SpeedupND
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_speedup_vs_ND_x")
	}
}
