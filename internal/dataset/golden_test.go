package dataset

import (
	"hash/fnv"
	"math"
	"testing"

	"reis/internal/xrand"
)

// benchSubSeed is the repo benchmark's per-consumer seed derivation,
// copied from subSeed in benchmark/corpus.go (that package is a main
// package of its own module, so it cannot be imported here).
func benchSubSeed(seed, consumer uint64) uint64 {
	return xrand.New(seed*0x9e3779b97f4a7c15+consumer).Uint64() | 1
}

// benchCorpusConfig is buildCorpus's dataset config at the benchmark's
// full size (benchmark/corpus.go: fullSizes, corpusSeed 1, seedCorpus 1).
func benchCorpusConfig() Config {
	return Config{
		Name: "bench", N: 8192, Dim: 256, Clusters: 64,
		Queries: 1024, K: 10, DocBytes: 512,
		QueryNoise: 0.5,
		Seed:       benchSubSeed(1, 1),
	}
}

// BenchmarkGenerate times the repo benchmark's corpus build: vectors,
// queries, documents and the exact top-10 ground truth of 1024 queries
// over 8192 vectors of dim 256.
func BenchmarkGenerate(b *testing.B) {
	cfg := benchCorpusConfig()
	b.ReportAllocs()
	for range b.N {
		Generate(cfg)
	}
}

// digest is an FNV-64a hash of everything Generate returns: vector and
// query float bits, ground truth, documents and topic tags.
func digest(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	floats := func(vs [][]float32) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(len(v)))
			for _, x := range v {
				put(uint64(math.Float32bits(x)))
			}
		}
	}
	floats(d.Vectors)
	floats(d.Queries)
	put(uint64(d.groundTruthK))
	for _, gt := range d.GroundTruth {
		put(uint64(len(gt)))
		for _, id := range gt {
			put(uint64(id))
		}
	}
	for _, doc := range d.Docs {
		put(uint64(len(doc)))
		h.Write(doc)
	}
	for _, c := range d.ClusterOf {
		put(uint64(c))
	}
	return h.Sum64()
}

// TestGenerateGolden pins Generate's output bit for bit on a catalog
// dataset and on the repo benchmark's corpus, whose frozen arrival
// rates and limits were calibrated on exactly these vectors. A changed
// digest means every recall, posting list and model-clock figure
// downstream moved with it. The digests were recorded on amd64
// (GOAMD64=v1); a target where the compiler fuses multiply-adds may
// round differently.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Dataset
		want uint64
	}{
		{"NQ/16", func() *Dataset { return Load("NQ", 16) }, 0x2e7df5398330156a},
		{"bench", func() *Dataset { return Generate(benchCorpusConfig()) }, 0xedfe417914c96d19},
	}
	for _, c := range cases {
		if got := digest(c.gen()); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
