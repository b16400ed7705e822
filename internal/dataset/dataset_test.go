package dataset

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"reis/internal/vecmath"
	"reis/internal/xrand"
)

func small(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Config{Name: "test", N: 500, Dim: 64, Clusters: 10, Queries: 20, K: 10, Seed: 1})
}

func TestGenerateShapes(t *testing.T) {
	d := small(t)
	if d.Len() != 500 {
		t.Fatalf("Len = %d", d.Len())
	}
	if len(d.Docs) != 500 || len(d.Queries) != 20 || len(d.GroundTruth) != 20 {
		t.Fatalf("bad shapes: docs=%d queries=%d gt=%d", len(d.Docs), len(d.Queries), len(d.GroundTruth))
	}
	for _, v := range d.Vectors {
		if len(v) != 64 {
			t.Fatalf("vector dim %d", len(v))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := small(t)
	b := small(t)
	for i := range a.Vectors {
		for j := range a.Vectors[i] {
			if a.Vectors[i][j] != b.Vectors[i][j] {
				t.Fatalf("vectors differ at [%d][%d]", i, j)
			}
		}
	}
	for q := range a.GroundTruth {
		for k := range a.GroundTruth[q] {
			if a.GroundTruth[q][k] != b.GroundTruth[q][k] {
				t.Fatalf("ground truth differs at query %d", q)
			}
		}
	}
}

func TestVectorsAreUnitNorm(t *testing.T) {
	d := small(t)
	for i, v := range d.Vectors {
		if n := math.Sqrt(float64(vecmath.Dot(v, v))); math.Abs(n-1) > 1e-5 {
			t.Fatalf("vector %d norm %v", i, n)
		}
	}
	for i, v := range d.Queries {
		if n := math.Sqrt(float64(vecmath.Dot(v, v))); math.Abs(n-1) > 1e-5 {
			t.Fatalf("query %d norm %v", i, n)
		}
	}
}

func TestDocsAreDistinctAndSized(t *testing.T) {
	d := Generate(Config{Name: "x", N: 100, Dim: 16, Queries: 1, DocBytes: 512, Seed: 2})
	seen := map[string]bool{}
	for i, doc := range d.Docs {
		if len(doc) != 512 {
			t.Fatalf("doc %d size %d", i, len(doc))
		}
		key := string(doc[:32])
		if seen[key] {
			t.Fatalf("duplicate doc header %q", key)
		}
		seen[key] = true
	}
}

func TestDocHeaderEncodesID(t *testing.T) {
	d := Generate(Config{Name: "hdr", N: 10, Dim: 8, Queries: 1, Seed: 3})
	if !bytes.Contains(d.Docs[7], []byte("doc=7")) {
		t.Fatalf("doc 7 header missing id: %q", d.Docs[7][:40])
	}
}

func TestExactTopKOrdering(t *testing.T) {
	vs := [][]float32{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	got := ExactTopK(vs, []float32{0.1, 0}, 3)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExactTopK = %v, want %v", got, want)
		}
	}
}

func TestExactTopKClampsK(t *testing.T) {
	vs := [][]float32{{0}, {1}}
	got := ExactTopK(vs, []float32{0}, 10)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
}

func TestExactTopKTieBreaksByIndex(t *testing.T) {
	vs := [][]float32{{1, 0}, {1, 0}, {0, 1}}
	got := ExactTopK(vs, []float32{1, 0}, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie break wrong: %v", got)
	}
}

// referenceTopK is the exact top-k by definition: every vector's full
// L2Squared distance, sorted by (distance, index).
func referenceTopK(vectors [][]float32, query []float32, k int) []int {
	type cand struct {
		idx  int
		dist float32
	}
	cands := make([]cand, len(vectors))
	for i, v := range vectors {
		cands[i] = cand{i, vecmath.L2Squared(query, v)}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	out := make([]int, min(max(k, 0), len(cands)))
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

func TestGroundTruthMatchesExactSearch(t *testing.T) {
	d := small(t)
	for q, qv := range d.Queries {
		want := referenceTopK(d.Vectors, qv, d.groundTruthK)
		if !slices.Equal(d.GroundTruth[q], want) {
			t.Fatalf("query %d ground truth %v, want %v", q, d.GroundTruth[q], want)
		}
	}
}

// TestExactTopKMatchesReference compares ExactTopK with the full sort
// on random corpora that force exact ties: duplicated vectors, and
// queries equal to a stored vector. The dimension (37) is not a
// multiple of L2SquaredBelow's check interval, so the ragged last chunk
// decides some comparisons.
func TestExactTopKMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	const n, dim = 60, 37
	for trial := 0; trial < 20; trial++ {
		vs := make([][]float32, n)
		for i := range vs {
			if i > 0 && rng.Intn(4) == 0 {
				vs[i] = slices.Clone(vs[rng.Intn(i)])
				continue
			}
			vs[i] = make([]float32, dim)
			for j := range vs[i] {
				vs[i][j] = float32(rng.Intn(5)) // few distinct values: many equal distances
			}
		}
		queries := [][]float32{slices.Clone(vs[rng.Intn(n)]), make([]float32, dim)}
		for j := range queries[1] {
			queries[1][j] = float32(rng.NormFloat64())
		}
		// Arbitrary pivots: they may only change how many distances
		// pivotTopK computes.
		pivots := [][]float32{slices.Clone(vs[rng.Intn(n)]), slices.Clone(queries[1]), make([]float32, dim)}
		for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
			batch := pivotTopK(vs, queries, k, pivots, 1)
			for qi, q := range queries {
				want := referenceTopK(vs, q, k)
				if got := ExactTopK(vs, q, k); !slices.Equal(got, want) {
					t.Fatalf("trial %d query %d k=%d: ExactTopK %v, want %v", trial, qi, k, got, want)
				}
				if !slices.Equal(batch[qi], want) {
					t.Fatalf("trial %d query %d k=%d: pivotTopK %v, want %v", trial, qi, k, batch[qi], want)
				}
			}
		}
	}
}

// TestPivotTopKMatchesExactTopK holds the batched ground truth Generate
// computes to ExactTopK, query by query: on every catalog dataset at
// scales 16, 32 and 64, and on degenerate corpora — duplicated vectors,
// queries equal to a stored vector, K at and above N (pivotTopK itself,
// and Generate, which sorts those with ExactTopK), and one cluster.
func TestPivotTopKMatchesExactTopK(t *testing.T) {
	check := func(name string, vectors, queries [][]float32, k int, got [][]int) {
		t.Helper()
		for q, qv := range queries {
			if want := ExactTopK(vectors, qv, k); !slices.Equal(got[q], want) {
				t.Fatalf("%s query %d: batched ground truth %v, ExactTopK %v", name, q, got[q], want)
			}
		}
	}
	names := slices.Sorted(maps.Keys(Catalog))
	for _, name := range names {
		for _, scale := range []int{16, 32, 64} {
			d := Load(name, scale)
			check(fmt.Sprintf("%s/%d", name, scale), d.Vectors, d.Queries, d.groundTruthK, d.GroundTruth)
		}
	}

	cfg := Config{Name: "degenerate", N: 300, Dim: 48, Clusters: 6, Queries: 12, K: 10, Seed: 3}
	d := Generate(cfg)
	// Pivots: each cluster's member sum, as good as any other pivot, and
	// a stored vector.
	pivots := make([][]float32, cfg.Clusters)
	for c := range pivots {
		pivots[c] = make([]float32, cfg.Dim)
	}
	for i, v := range d.Vectors {
		for j, x := range v {
			pivots[d.ClusterOf[i]][j] += x
		}
	}
	pivots = append(pivots, slices.Clone(d.Vectors[7]))
	vectors := slices.Clone(d.Vectors)
	for i := range 100 { // duplicates
		vectors = append(vectors, slices.Clone(vectors[i*3]))
	}
	queries := slices.Clone(d.Queries)
	for i := range 6 { // queries equal to a stored, duplicated vector
		queries = append(queries, slices.Clone(vectors[i*3]))
	}
	for _, k := range []int{1, 10, 64, len(vectors), len(vectors) + 3} {
		check(fmt.Sprintf("duplicates k=%d", k), vectors, queries, k,
			pivotTopK(vectors, queries, k, pivots, 1))
	}

	// Collinear corpora: every vector, query and pivot on one line, so a
	// member's distance to the query is |a − b| up to rounding and the
	// window's edge falls on the k-th distance. Points repeat (ties at
	// the edge) and the step is not a binary fraction (rounding in a, b
	// and the distances).
	for _, step := range []float32{0.1, 0.37, 1} {
		const dim = 20
		at := func(t float32) []float32 {
			v := make([]float32, dim)
			for j := range v {
				v[j] = t * step * float32(j%3-1)
			}
			return v
		}
		var line, lineQueries [][]float32
		for i := range 120 {
			line = append(line, at(float32(i%40-20)))
		}
		for i := range 15 {
			lineQueries = append(lineQueries, at(float32(i*3-21)+float32(i%2)/2))
		}
		pivots := [][]float32{at(-5), at(7)}
		for _, k := range []int{1, 3, 7, 10, 25} {
			check(fmt.Sprintf("collinear step=%v k=%d", step, k), line, lineQueries, k,
				pivotTopK(line, lineQueries, k, pivots, 1))
		}
	}

	for _, c := range []Config{
		{Name: "one-cluster", N: 400, Dim: 40, Clusters: 1, Queries: 10, K: 12, Seed: 5},
		{Name: "k-at-n", N: 30, Dim: 24, Clusters: 3, Queries: 5, K: 30, Seed: 6},
		{Name: "k-above-n", N: 30, Dim: 24, Clusters: 3, Queries: 5, K: 45, Seed: 7},
	} {
		d := Generate(c)
		check(c.Name, d.Vectors, d.Queries, c.K, d.GroundTruth)
	}
}

func TestExactTopKNonPositiveK(t *testing.T) {
	vs := [][]float32{{0}, {1}}
	for _, k := range []int{0, -1, -10} {
		if got := ExactTopK(vs, []float32{0}, k); got == nil || len(got) != 0 {
			t.Fatalf("ExactTopK(k=%d) = %#v, want an empty list", k, got)
		}
	}
}

func TestRecallPerfect(t *testing.T) {
	gt := [][]int{{1, 2, 3}, {4, 5, 6}}
	if r := Recall(gt, gt, 3); r != 1 {
		t.Fatalf("Recall = %v, want 1", r)
	}
}

func TestRecallZero(t *testing.T) {
	gt := [][]int{{1, 2, 3}}
	got := [][]int{{7, 8, 9}}
	if r := Recall(gt, got, 3); r != 0 {
		t.Fatalf("Recall = %v, want 0", r)
	}
}

func TestRecallPartial(t *testing.T) {
	gt := [][]int{{1, 2, 3, 4}}
	got := [][]int{{1, 2, 99, 98}}
	if r := Recall(gt, got, 4); r != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", r)
	}
}

func TestRecallRespectsKCut(t *testing.T) {
	gt := [][]int{{1, 2, 3, 4, 5}}
	got := [][]int{{1, 9, 9, 9, 2}} // the 2 is past k=2 cut in retrieved
	if r := Recall(gt, got, 2); r != 0.5 {
		t.Fatalf("Recall@2 = %v, want 0.5", r)
	}
}

func TestRecallOrderInsensitiveWithinK(t *testing.T) {
	gt := [][]int{{1, 2, 3}}
	got := [][]int{{3, 1, 2}}
	if r := Recall(gt, got, 3); r != 1 {
		t.Fatalf("Recall = %v, want 1", r)
	}
}

func TestRecallEmptyInputs(t *testing.T) {
	if r := Recall(nil, nil, 10); r != 0 {
		t.Fatalf("Recall(nil) = %v", r)
	}
}

func TestRecallNonPositiveK(t *testing.T) {
	gt := [][]int{{1, 2, 3}}
	for _, k := range []int{0, -1, -5} {
		if r := Recall(gt, gt, k); r != 0 {
			t.Fatalf("Recall@%d = %v, want 0", k, r)
		}
	}
}

func TestRecallPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Recall([][]int{{1}}, nil, 1)
}

func TestQueriesAreNearDatabase(t *testing.T) {
	// Each query is a perturbation of some database vector, so its
	// nearest neighbor should be substantially closer than a random
	// vector would be (distance < sqrt(2) for unit vectors).
	d := small(t)
	for q, qv := range d.Queries {
		nn := d.GroundTruth[q][0]
		dist := vecmath.L2Squared(qv, d.Vectors[nn])
		if dist >= 2.0 {
			t.Fatalf("query %d nearest neighbor distance^2 %v is not better than orthogonal", q, dist)
		}
	}
}

func TestClusterStructureExists(t *testing.T) {
	// With strong clustering, the average distance to the assigned
	// cluster's other members must be far below the global average —
	// this is the property IVF exploits.
	d := Generate(Config{Name: "c", N: 400, Dim: 64, Clusters: 8, Queries: 1, Seed: 4})
	// Compute mean pairwise distance of a sample vs mean nearest-
	// neighbor distance.
	var nnSum, randSum float64
	for i := 0; i < 50; i++ {
		nn := ExactTopK(d.Vectors, d.Vectors[i], 2)[1] // skip self
		nnSum += float64(vecmath.L2Squared(d.Vectors[i], d.Vectors[nn]))
		randSum += float64(vecmath.L2Squared(d.Vectors[i], d.Vectors[(i+200)%400]))
	}
	if nnSum*4 > randSum {
		t.Fatalf("no cluster structure: nn avg %v vs random avg %v", nnSum/50, randSum/50)
	}
}

func TestCatalogLoad(t *testing.T) {
	for name := range Catalog {
		d := Load(name, 64)
		if d.Len() < 256 {
			t.Errorf("%s: too few entries %d", name, d.Len())
		}
		if d.Name != name {
			t.Errorf("%s: name %q", name, d.Name)
		}
		if d.Dim != Catalog[name].dim {
			t.Errorf("%s: dim %d want %d", name, d.Dim, Catalog[name].dim)
		}
	}
}

func TestCatalogOrdering(t *testing.T) {
	// The scaled sizes must preserve the paper's dataset-size ordering.
	order := []string{"NQ", "HotpotQA", "wiki_en", "wiki_full"}
	for i := 1; i < len(order); i++ {
		a, b := Catalog[order[i-1]], Catalog[order[i]]
		if a.scaledEntries >= b.scaledEntries {
			t.Errorf("scaled ordering violated: %s(%d) >= %s(%d)", a.name, a.scaledEntries, b.name, b.scaledEntries)
		}
		if a.PaperEntries >= b.PaperEntries {
			t.Errorf("paper ordering violated: %s >= %s", a.name, b.name)
		}
	}
}

func TestLoadPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Load("nope", 1)
}

func TestLoadPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Load("NQ", 0)
}

func TestSeedForStable(t *testing.T) {
	if seedFor("NQ") != seedFor("NQ") {
		t.Fatal("seedFor not deterministic")
	}
	if seedFor("NQ") == seedFor("HotpotQA") {
		t.Fatal("seedFor collision across names")
	}
}
