package reis

import (
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/ssd"
)

// benchShape is a corpus of the repo benchmark's shape (N 8192, dim 256,
// 64 clusters, 64 queries, 512-byte documents), its k-means clustering,
// and the one-SSD1 configuration (16 KiB pages) it deploys on.
func benchShape() (data *dataset.Dataset, cents [][]float32, assign []int, cfg ssd.Config) {
	data = dataset.Generate(dataset.Config{
		Name: "bench-shape", N: 8192, Dim: 256, Clusters: 64, Queries: 64, K: 10,
		DocBytes: 512, QueryNoise: 0.5, Seed: 3,
	})
	cents, assign = ann.KMeans(data.Vectors, ann.KMeansConfig{K: 64, Seed: 5, SampleLimit: 4096})
	cfg = ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	return data, cents, assign, cfg
}

// BenchmarkDeploy times one deploy of the benchmark-shaped corpus
// (benchShape) per op, flat or IVF, onto a fresh host whose construction
// and Close are untimed: planning and calibration, region reservation,
// quantization, placement and every page program.
func BenchmarkDeploy(b *testing.B) {
	data, cents, assign, cfg := benchShape()
	for _, ivf := range []bool{false, true} {
		name := "flat"
		if ivf {
			name = "ivf"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				e, err := New(cfg, 0, AllOptions())
				if err != nil {
					b.Fatal(err)
				}
				d := DeployConfig{ID: 1, Vectors: data.Vectors, Docs: data.Docs, DocSlotBytes: 512}
				if ivf {
					d.Centroids, d.Assign = cents, assign
				}
				b.StartTimer()
				if err := e.deploy(d, ivf); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
		})
	}
}
