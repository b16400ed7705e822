package ann

import (
	"slices"
	"testing"

	"reis/internal/dataset"
	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// testData caches a moderately sized clustered dataset shared by the
// index tests.
var testData = dataset.Generate(dataset.Config{
	Name: "ann-test", N: 2000, Dim: 96, Clusters: 24, Queries: 30, K: 10, Seed: 77,
})

func retrievedIDs(s Searcher, queries [][]float32, k int) [][]int {
	out := make([][]int, len(queries))
	for q, qv := range queries {
		rs := s.Search(qv, k)
		ids := make([]int, len(rs))
		for i, r := range rs {
			ids[i] = r.ID
		}
		out[q] = ids
	}
	return out
}

func recallOfSearcher(s Searcher, k int) float64 {
	return dataset.Recall(testData.GroundTruth, retrievedIDs(s, testData.Queries, k), k)
}

func TestFlatExactRecall(t *testing.T) {
	f := NewFlat(testData.Vectors)
	if r := recallOfSearcher(f, 10); r != 1 {
		t.Fatalf("flat recall = %v, want 1 (exact search)", r)
	}
}

func TestFlatResultsSorted(t *testing.T) {
	f := NewFlat(testData.Vectors)
	rs := f.Search(testData.Queries[0], 20)
	for i := 1; i < len(rs); i++ {
		if rs[i].dist < rs[i-1].dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestFlatPanicsOnDimMismatch(t *testing.T) {
	f := NewFlat(testData.Vectors)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Search(make([]float32, 7), 1)
}

func TestBinaryFlatHighRecall(t *testing.T) {
	b := NewBinaryFlat(testData.Vectors)
	r := recallOfSearcher(b, 10)
	if r < 0.90 {
		t.Fatalf("BQ+rerank recall = %v, want >= 0.90 (paper reports ~0.96)", r)
	}
	t.Logf("BinaryFlat Recall@10 = %.3f", r)
}

func TestBinaryFlatRerankImproves(t *testing.T) {
	// Reranking should not hurt: compare rerank factor 1 (no widening)
	// against the default 10.
	narrow := NewBinaryFlat(testData.Vectors)
	narrow.factor = 1
	wide := NewBinaryFlat(testData.Vectors)
	rn := recallOfSearcher(narrow, 10)
	rw := recallOfSearcher(wide, 10)
	if rw < rn {
		t.Fatalf("rerank hurt recall: %v -> %v", rn, rw)
	}
	t.Logf("recall narrow=%.3f wide=%.3f", rn, rw)
}

func TestKMeansBasicProperties(t *testing.T) {
	cents, assign := KMeans(testData.Vectors, KMeansConfig{K: 16, Seed: 1})
	if len(cents) != 16 {
		t.Fatalf("centroids = %d", len(cents))
	}
	if len(assign) != len(testData.Vectors) {
		t.Fatalf("assign len = %d", len(assign))
	}
	counts := make([]int, 16)
	for _, a := range assign {
		if a < 0 || a >= 16 {
			t.Fatalf("assignment out of range: %d", a)
		}
		counts[a]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("cluster %d empty", c)
		}
	}
}

func TestKMeansAssignsNearest(t *testing.T) {
	cents, assign := KMeans(testData.Vectors, KMeansConfig{K: 8, Seed: 2})
	for i, v := range testData.Vectors[:100] {
		if got := NearestCentroid(cents, v); got != assign[i] {
			t.Fatalf("vector %d assigned %d but nearest is %d", i, assign[i], got)
		}
	}
}

// TestNearestCentroidMatchesArgmin checks the bounded assignment rule
// against the lowest-index argmin of plain L2Squared, from every
// possible start centroid, with and without the centroid-distance skip
// (skipPoint). Duplicated centroids and small-integer coordinates force
// exact ties, the dimension (37) leaves a ragged last chunk in
// L2SquaredBelow, and a far-off point makes every distance +Inf.
func TestNearestCentroidMatchesArgmin(t *testing.T) {
	rng := xrand.New(5)
	const k, dim = 24, 37
	cents := make([][]float32, k)
	for c := range cents {
		switch {
		case c > 0 && c%5 == 0:
			cents[c] = slices.Clone(cents[rng.Intn(c)])
		case c%2 == 0:
			cents[c] = make([]float32, dim)
			for j := range cents[c] {
				cents[c][j] = float32(rng.Intn(3))
			}
		default:
			cents[c] = make([]float32, dim)
			for j := range cents[c] {
				cents[c][j] = float32(rng.NormFloat64())
			}
		}
	}
	points := [][]float32{make([]float32, dim)} // the origin
	for _, c := range cents {
		points = append(points, slices.Clone(c))
	}
	for i := 0; i < 40; i++ {
		v := make([]float32, dim)
		for j := range v {
			if i%2 == 0 {
				v[j] = float32(rng.Intn(3))
			} else {
				v[j] = float32(rng.NormFloat64())
			}
		}
		points = append(points, v)
	}
	huge := make([]float32, dim)
	for j := range huge {
		huge[j] = 3e19
	}
	points = append(points, huge)

	apart := make([]float64, k*k)
	fillApart(cents, apart)
	for p, v := range points {
		want := 0
		for c := range cents {
			if vecmath.L2Squared(v, cents[c]) < vecmath.L2Squared(v, cents[want]) {
				want = c
			}
		}
		if got := NearestCentroid(cents, v); got != want {
			t.Fatalf("point %d: NearestCentroid = %d, want %d", p, got, want)
		}
		for start := range cents {
			if got := nearestFrom(cents, v, start, nil); got != want {
				t.Fatalf("point %d start %d: nearestFrom = %d, want %d", p, start, got, want)
			}
			if got := nearestFrom(cents, v, start, apart); got != want {
				t.Fatalf("point %d start %d: nearestFrom with centroid distances = %d, want %d", p, start, got, want)
			}
		}
	}
}

func TestKMeansClampsK(t *testing.T) {
	small := testData.Vectors[:5]
	cents, _ := KMeans(small, KMeansConfig{K: 50, Seed: 3})
	if len(cents) != 5 {
		t.Fatalf("centroids = %d, want clamped to 5", len(cents))
	}
}

func TestKMeansReducesDistortion(t *testing.T) {
	// Total distortion with K=24 (matching generator clusters) must be
	// far below K=1.
	d1 := distortion(t, 1)
	d24 := distortion(t, 24)
	if d24*2 > d1 {
		t.Fatalf("kmeans barely reduced distortion: K=1 %v vs K=24 %v", d1, d24)
	}
}

func distortion(t *testing.T, k int) float64 {
	t.Helper()
	cents, assign := KMeans(testData.Vectors, KMeansConfig{K: k, Seed: 4})
	var total float64
	for i, v := range testData.Vectors {
		c := cents[assign[i]]
		var d float32
		for j := range v {
			diff := v[j] - c[j]
			d += diff * diff
		}
		total += float64(d)
	}
	return total
}

func TestIVFFloatRecallIncreasesWithNProbe(t *testing.T) {
	idx := NewIVF(testData.Vectors, IVFConfig{NList: 32, Mode: IVFFloat, Seed: 5})
	var prev float64
	for _, nprobe := range []int{1, 4, 32} {
		got := make([][]int, len(testData.Queries))
		for q, qv := range testData.Queries {
			rs := idx.SearchNProbe(qv, 10, nprobe)
			ids := make([]int, len(rs))
			for i, r := range rs {
				ids[i] = r.ID
			}
			got[q] = ids
		}
		r := dataset.Recall(testData.GroundTruth, got, 10)
		if r+1e-9 < prev {
			t.Fatalf("recall decreased with nprobe %d: %v < %v", nprobe, r, prev)
		}
		prev = r
	}
	if prev < 0.999 {
		t.Fatalf("full-probe IVF recall = %v, want ~1", prev)
	}
}

func TestIVFFullProbeEqualsFlat(t *testing.T) {
	idx := NewIVF(testData.Vectors, IVFConfig{NList: 16, Mode: IVFFloat, Seed: 6})
	flat := NewFlat(testData.Vectors)
	for _, qv := range testData.Queries[:5] {
		a := idx.SearchNProbe(qv, 10, 16)
		b := flat.Search(qv, 10)
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("full-probe IVF differs from flat at rank %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestIVFBinaryRecall(t *testing.T) {
	idx := NewIVF(testData.Vectors, IVFConfig{NList: 32, Mode: IVFBinary, Seed: 7})
	got := make([][]int, len(testData.Queries))
	for q, qv := range testData.Queries {
		rs := idx.SearchNProbe(qv, 10, 8)
		ids := make([]int, len(rs))
		for i, r := range rs {
			ids[i] = r.ID
		}
		got[q] = ids
	}
	r := dataset.Recall(testData.GroundTruth, got, 10)
	if r < 0.75 {
		t.Fatalf("BQ IVF recall@nprobe=8 = %v, too low", r)
	}
	t.Logf("BQ IVF Recall@10 (nprobe=8/32) = %.3f", r)
}

func TestIVFListsPartition(t *testing.T) {
	idx := NewIVF(testData.Vectors, IVFConfig{NList: 20, Mode: IVFFloat, Seed: 8})
	seen := make([]bool, len(testData.Vectors))
	for _, list := range idx.lists {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("id %d in two lists", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d in no list", id)
		}
	}
}

func TestHNSWRecall(t *testing.T) {
	h := NewHNSW(testData.Vectors, HNSWConfig{M: 16, EfConstruction: 200, Seed: 11})
	h.SetEfSearch(128)
	r := recallOfSearcher(h, 10)
	if r < 0.85 {
		t.Fatalf("HNSW recall = %v, want >= 0.85", r)
	}
	t.Logf("HNSW Recall@10 = %.3f", r)
}

func TestHNSWRecallIncreasesWithEf(t *testing.T) {
	lo := NewHNSW(testData.Vectors, HNSWConfig{M: 8, Seed: 12})
	hi := NewHNSW(testData.Vectors, HNSWConfig{M: 8, Seed: 12})
	lo.SetEfSearch(10)
	hi.SetEfSearch(128)
	rLo, rHi := recallOfSearcher(lo, 10), recallOfSearcher(hi, 10)
	if rHi < rLo {
		t.Fatalf("recall decreased with ef: %v -> %v", rLo, rHi)
	}
	t.Logf("HNSW recall ef=10: %.3f, ef=128: %.3f", rLo, rHi)
}

func TestHNSWBinaryMode(t *testing.T) {
	h := NewHNSW(testData.Vectors, HNSWConfig{M: 16, Seed: 13, Binary: true})
	h.SetEfSearch(96)
	r := recallOfSearcher(h, 10)
	if r < 0.70 {
		t.Fatalf("BQ HNSW recall = %v, too low", r)
	}
	t.Logf("BQ HNSW Recall@10 = %.3f", r)
}

func TestHNSWHopCountGrows(t *testing.T) {
	h := NewHNSW(testData.Vectors, HNSWConfig{M: 8, Seed: 14})
	before := h.HopCount
	h.Search(testData.Queries[0], 10)
	if h.HopCount <= before {
		t.Fatal("HopCount did not grow during search")
	}
}

func TestLSHFindsNearDuplicates(t *testing.T) {
	l := NewLSH(testData.Vectors, LSHConfig{Tables: 12, Bits: 12, Seed: 15})
	// Searching with a database vector itself must return that vector.
	hits := 0
	for i := 0; i < 50; i++ {
		rs := l.Search(testData.Vectors[i], 1)
		if len(rs) > 0 && rs[0].ID == i {
			hits++
		}
	}
	if hits < 45 {
		t.Fatalf("LSH self-retrieval %d/50, want >= 45", hits)
	}
}

func TestLSHRecallModerate(t *testing.T) {
	l := NewLSH(testData.Vectors, LSHConfig{Tables: 16, Bits: 10, Seed: 16})
	r := recallOfSearcher(l, 10)
	if r < 0.4 {
		t.Fatalf("LSH recall = %v, unreasonably low", r)
	}
	t.Logf("LSH Recall@10 = %.3f (candidates/query ~ %d)", r, l.CandidateCount(testData.Queries[0]))
}

// TestLSHCandidateCountMatchesSearch holds CandidateCount, which the
// frontier experiment prices LSH's work with, to the candidates Search
// rescores: a search for every entry returns each rescored id once.
func TestLSHCandidateCountMatchesSearch(t *testing.T) {
	for _, cfg := range []LSHConfig{{Tables: 4, Bits: 6, Seed: 21}, {Tables: 16, Bits: 10, Seed: 16}} {
		l := NewLSH(testData.Vectors, cfg)
		for qi, q := range testData.Queries[:20] {
			rs := l.Search(q, len(testData.Vectors))
			ids := map[int]bool{}
			for _, r := range rs {
				ids[r.ID] = true
			}
			if len(ids) != len(rs) {
				t.Fatalf("%+v query %d: %d results name %d distinct ids", cfg, qi, len(rs), len(ids))
			}
			if got := l.CandidateCount(q); got != len(ids) {
				t.Fatalf("%+v query %d: CandidateCount %d, Search rescored %d ids", cfg, qi, got, len(ids))
			}
		}
	}
}

func TestPQCompressesAndRecalls(t *testing.T) {
	p := newPQ(testData.Vectors, PQConfig{M: 16, KS: 256, Seed: 17})
	r := recallOfSearcher(p, 10)
	if r < 0.5 {
		t.Fatalf("PQ recall = %v, want >= 0.5", r)
	}
	t.Logf("PQ Recall@10 = %.3f", r)
}

func TestPQCodeShape(t *testing.T) {
	p := newPQ(testData.Vectors, PQConfig{M: 12, KS: 32, Seed: 18})
	if len(p.codes) != len(testData.Vectors) {
		t.Fatalf("codes = %d", len(p.codes))
	}
	for _, c := range p.codes[:10] {
		if len(c) != 12 {
			t.Fatalf("code length %d", len(c))
		}
		for _, b := range c {
			if int(b) >= 32 {
				t.Fatalf("code value %d out of range", b)
			}
		}
	}
}

func TestPQPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newPQ(testData.Vectors, PQConfig{M: 7}) // 96 % 7 != 0
}

func TestPQIVFRecallIncreasesWithNProbe(t *testing.T) {
	p := NewPQIVF(testData.Vectors, IVFConfig{NList: 16, Seed: 19}, PQConfig{M: 8, KS: 64, Seed: 19})
	var prev float64
	for _, nprobe := range []int{1, 4, 16} {
		got := make([][]int, len(testData.Queries))
		for q, qv := range testData.Queries {
			rs := p.SearchNProbe(qv, 10, nprobe)
			ids := make([]int, len(rs))
			for i, r := range rs {
				ids[i] = r.ID
			}
			got[q] = ids
		}
		r := dataset.Recall(testData.GroundTruth, got, 10)
		// PQ distances are approximate: a larger candidate set can
		// demote a true hit, so allow small dips.
		if r+0.05 < prev {
			t.Fatalf("PQIVF recall decreased: %v < %v at nprobe %d", r, prev, nprobe)
		}
		if r > prev {
			prev = r
		}
	}
	t.Logf("PQIVF Recall@10 full probe = %.3f", prev)
}

func TestSearchersReturnKResults(t *testing.T) {
	searchers := map[string]Searcher{
		"flat":   NewFlat(testData.Vectors),
		"bflat":  NewBinaryFlat(testData.Vectors),
		"ivf":    NewIVF(testData.Vectors, IVFConfig{NList: 8, Seed: 20}),
		"hnsw":   NewHNSW(testData.Vectors, HNSWConfig{M: 8, Seed: 20}),
		"lsh":    NewLSH(testData.Vectors, LSHConfig{Seed: 20}),
		"pq":     newPQ(testData.Vectors, PQConfig{M: 8, KS: 32, Seed: 20}),
		"pq-ivf": NewPQIVF(testData.Vectors, IVFConfig{NList: 8, Seed: 20}, PQConfig{M: 8, KS: 32, Seed: 20}),
	}
	for name, s := range searchers {
		rs := s.Search(testData.Queries[0], 5)
		if len(rs) > 5 {
			t.Errorf("%s returned %d > k results", name, len(rs))
		}
		if len(rs) == 0 && name != "lsh" { // LSH may legitimately miss
			t.Errorf("%s returned no results", name)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].dist < rs[i-1].dist {
				t.Errorf("%s results not sorted", name)
			}
		}
	}
}
