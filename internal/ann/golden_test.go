package ann

import (
	"hash/fnv"
	"math"
	"testing"

	"reis/internal/dataset"
	"reis/internal/xrand"
)

// benchSubSeed is the repo benchmark's per-consumer seed derivation,
// copied from subSeed in benchmark/corpus.go.
func benchSubSeed(seed, consumer uint64) uint64 {
	return xrand.New(seed*0x9e3779b97f4a7c15+consumer).Uint64() | 1
}

// TestKMeansGolden pins the IVF clustering of the repo benchmark's
// corpus bit for bit: buildCorpus in benchmark/corpus.go at its full
// size (corpusSeed 1; seedCorpus 1, seedKMeans 2). Every posting list,
// page count and model-clock figure of the benchmark follows from these
// centroids and assignments. The digest was recorded on amd64
// (GOAMD64=v1); a target where the compiler fuses multiply-adds may
// round differently.
func TestKMeansGolden(t *testing.T) {
	cents, assign := KMeans(benchCorpus().Vectors, benchKMeansConfig())
	const want = 0x5eeb77dfd27c3dec
	if got := kmeansDigest(cents, assign); got != want {
		t.Errorf("KMeans digest %#016x, want %#016x", got, want)
	}
}

// BenchmarkKMeans times the IVF training of the repo benchmark's corpus
// (TestKMeansGolden's input): k-means++ seeding plus the Lloyd
// iterations.
func BenchmarkKMeans(b *testing.B) {
	vectors := benchCorpus().Vectors
	cfg := benchKMeansConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		KMeans(vectors, cfg)
	}
}

// benchCorpus is buildCorpus's dataset in benchmark/corpus.go at its
// full size (corpusSeed 1, seedCorpus 1).
func benchCorpus() *dataset.Dataset {
	return dataset.Generate(dataset.Config{
		Name: "bench", N: 8192, Dim: 256, Clusters: 64,
		Queries: 1024, K: 10, DocBytes: 512,
		QueryNoise: 0.5,
		Seed:       benchSubSeed(1, 1),
	})
}

// benchKMeansConfig is buildCorpus's k-means config (seedKMeans 2).
func benchKMeansConfig() KMeansConfig {
	return KMeansConfig{K: 64, Seed: benchSubSeed(1, 2), SampleLimit: 8192}
}

// TestKMeansGoldenSmall pins KMeans on the shared test corpus at
// several seeds, with and without training-set subsampling.
func TestKMeansGoldenSmall(t *testing.T) {
	cases := []struct {
		cfg  KMeansConfig
		want uint64
	}{
		{KMeansConfig{K: 16, Seed: 1}, 0xfb8ecf8465711b8c},
		{KMeansConfig{K: 24, Seed: 4}, 0x99aa8182b8cecb24},
		{KMeansConfig{K: 32, Seed: 9, SampleLimit: 700}, 0x13b4729eea86b528},
	}
	for _, c := range cases {
		cents, assign := KMeans(testData.Vectors, c.cfg)
		if got := kmeansDigest(cents, assign); got != c.want {
			t.Errorf("%+v: digest %#016x, want %#016x", c.cfg, got, c.want)
		}
	}
}

// kmeansDigest is an FNV-64a hash of centroid float bits and
// assignments.
func kmeansDigest(cents [][]float32, assign []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range cents {
		for _, x := range c {
			put(uint64(math.Float32bits(x)))
		}
	}
	for _, a := range assign {
		put(uint64(a))
	}
	return h.Sum64()
}

// TestHNSWGolden pins the graph NewHNSW builds, bit for bit: every
// node's level, the entry point and each layer's adjacency lists in
// order, in float mode and in binary mode. The neighbour heuristic and
// the pruning decide every edge, so a change to how either compares
// distances shows here first.
func TestHNSWGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  HNSWConfig
		want uint64
	}{
		{"float", HNSWConfig{M: 8, Seed: 12}, 0x44654fa7a1847721},
		{"binary", HNSWConfig{M: 8, Seed: 13, Binary: true}, 0x91b570344956132d},
	}
	for _, c := range cases {
		h := NewHNSW(testData.Vectors[:1000], c.cfg)
		if got := hnswDigest(h); got != c.want {
			t.Errorf("%s: adjacency digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// hnswDigest is an FNV-64a hash of an HNSW graph's levels, entry point
// and per-layer adjacency lists.
func hnswDigest(h *HNSW) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		f.Write(buf[:])
	}
	put(uint64(h.entry))
	put(uint64(h.maxLevel))
	for _, l := range h.levels {
		put(uint64(l))
	}
	for _, layer := range h.neighbors {
		for _, ns := range layer {
			put(uint64(len(ns)))
			for _, n := range ns {
				put(uint64(n))
			}
		}
	}
	return f.Sum64()
}
