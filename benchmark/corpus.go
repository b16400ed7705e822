package main

import (
	"math"
	"time"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// sizes fixes the corpus shape. fullSizes is what the benchmark
// measures; smokeSizes is the `go test` corpus. Both have 64 clusters:
// each cluster takes a page of the binary region, and churn_mixed's GC
// needs the region to span several 16-page GC rows.
type sizes struct {
	N, Dim, Clusters, Queries, DocBytes int
}

var (
	fullSizes  = sizes{N: 8192, Dim: 256, Clusters: 64, Queries: 1024, DocBytes: 512}
	smokeSizes = sizes{N: 1024, Dim: 256, Clusters: 64, Queries: 128, DocBytes: 512}
)

// corpusSeed seeds the corpus, its k-means, the hot query set and the
// churn payloads. It is a constant, not a share of --seed: the frozen
// arrival rates, rate ladder and p99 limit of every workload were
// calibrated against this corpus, and a new corpus per seed moves every
// model-clock metric by more than the bounds are meant to resolve
// (k-means cluster-size imbalance alone moved model_qps by 3-5% and the
// modelled p50 at the frozen rate by 15-25% between corpora). --seed
// varies what is drawn from the corpus, not the corpus.
const corpusSeed = 1

// subSeed derives an independent, non-zero stream seed for one consumer
// (corpus, k-means, schedule, routing, ...) from a seed, so no two
// consumers share a stream and seed 0 never selects a package default.
func subSeed(seed uint64, consumer uint64) uint64 {
	return xrand.New(seed*0x9e3779b97f4a7c15+consumer).Uint64() | 1
}

const (
	seedCorpus uint64 = iota + 1
	seedKMeans
	seedSchedule
	seedRouting
	seedArrivals
	seedChurn
	seedHotSet
)

// corpus is the seeded input every workload deploys: vectors, documents,
// held-out queries with exact ground truth, and the IVF clustering.
type corpus struct {
	sz     sizes
	data   *dataset.Dataset
	cents  [][]float32
	assign []int

	generateS, kmeansS float64
}

// buildCorpus generates the dataset and trains its IVF centroids — the
// offline half of set-up.
func buildCorpus(sz sizes) *corpus {
	c := &corpus{sz: sz}
	t0 := time.Now()
	c.data = dataset.Generate(dataset.Config{
		Name: "bench", N: sz.N, Dim: sz.Dim, Clusters: sz.Clusters,
		Queries: sz.Queries, K: 10, DocBytes: sz.DocBytes,
		// The catalog's "harder queries" setting: queries sit between
		// topics, so recall depends on nprobe instead of saturating.
		QueryNoise: 0.5,
		Seed:       subSeed(corpusSeed, seedCorpus),
	})
	t1 := time.Now()
	c.cents, c.assign = ann.KMeans(c.data.Vectors, ann.KMeansConfig{
		K: sz.Clusters, Seed: subSeed(corpusSeed, seedKMeans), SampleLimit: 8192,
	})
	c.generateS = t1.Sub(t0).Seconds()
	c.kmeansS = time.Since(t1).Seconds()
	return c
}

// clusterPages returns how many binary-region pages each cluster's
// posting list occupies at deployment (clusters are page-aligned).
func (c *corpus) clusterPages(pageBytes int) []int {
	embPerPage := pageBytes / (c.sz.Dim / 8)
	counts := make([]int, len(c.cents))
	for _, a := range c.assign {
		counts[a]++
	}
	for i, n := range counts {
		counts[i] = (n + embPerPage - 1) / embPerPage
	}
	return counts
}

// nearestCentroid assigns an appended vector to its IVF cluster the way
// the offline indexer would.
func (c *corpus) nearestCentroid(v []float32) int {
	best, bestD := 0, float32(0)
	for i, cent := range c.cents {
		if d := vecmath.L2Squared(v, cent); i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// burst is one churn round's append payload.
type burst struct {
	vectors [][]float32
	docs    [][]byte
	assign  []int
}

// churnBurstSize is the number of chunks one churn round appends.
const churnBurstSize = 16

// churnBurst builds round r's append payload: one ingested "document"
// of churnBurstSize chunks, each a perturbed copy of one of four base
// vectors, so a burst lands in a handful of clusters like chunks of one
// text would. It depends only on r.
func (c *corpus) churnBurst(r int) burst {
	rng := xrand.New(subSeed(corpusSeed, seedChurn) + uint64(r)*0x51ed27)
	bases := [4]int{}
	for i := range bases {
		bases[i] = rng.Intn(c.sz.N)
	}
	sigma := float32(0.25) / float32(math.Sqrt(float64(c.sz.Dim)))
	b := burst{}
	for i := 0; i < churnBurstSize; i++ {
		base := c.data.Vectors[bases[i%len(bases)]]
		v := make([]float32, c.sz.Dim)
		for j := range v {
			v[j] = base[j] + sigma*float32(rng.NormFloat64())
		}
		vecmath.Normalize(v)
		doc := make([]byte, c.sz.DocBytes)
		copy(doc, "[bench churn chunk]")
		doc[len(doc)-1] = byte(r)
		doc[len(doc)-2] = byte(i)
		b.vectors = append(b.vectors, v)
		b.docs = append(b.docs, doc)
		b.assign = append(b.assign, c.nearestCentroid(v))
	}
	return b
}
