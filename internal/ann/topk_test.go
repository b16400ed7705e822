package ann

import (
	"testing"
	"testing/quick"

	"reis/internal/xrand"
)

func randResults(r *xrand.RNG, n int) []Result {
	rs := make([]Result, n)
	for i := range rs {
		rs[i] = Result{ID: i, dist: r.Float32()}
	}
	return rs
}

func TestQuickselectPartitions(t *testing.T) {
	r := xrand.New(1)
	for _, n := range []int{1, 2, 10, 100, 1000} {
		for _, k := range []int{1, 2, n / 2, n - 1, n} {
			if k <= 0 || k > n {
				continue
			}
			rs := randResults(r, n)
			quickselect(rs, k)
			var maxLeft, minRight float32 = -1, 2
			for i := 0; i < k; i++ {
				if rs[i].dist > maxLeft {
					maxLeft = rs[i].dist
				}
			}
			for i := k; i < n; i++ {
				if rs[i].dist < minRight {
					minRight = rs[i].dist
				}
			}
			if n > k && maxLeft > minRight {
				t.Fatalf("n=%d k=%d: left max %v > right min %v", n, k, maxLeft, minRight)
			}
		}
	}
}

func TestQuickselectPreservesMultiset(t *testing.T) {
	r := xrand.New(2)
	rs := randResults(r, 500)
	var before float64
	for _, x := range rs {
		before += float64(x.dist)
	}
	quickselect(rs, 100)
	var after float64
	for _, x := range rs {
		after += float64(x.dist)
	}
	if before != after {
		t.Fatalf("multiset changed: %v != %v", before, after)
	}
}

func TestQuickselectSortedInput(t *testing.T) {
	rs := make([]Result, 1000)
	for i := range rs {
		rs[i] = Result{ID: i, dist: float32(i)}
	}
	quickselect(rs, 10)
	for i := 0; i < 10; i++ {
		if rs[i].dist >= 10 {
			t.Fatalf("sorted input: element %d has dist %v", i, rs[i].dist)
		}
	}
}

func TestQuickselectDuplicates(t *testing.T) {
	rs := make([]Result, 100)
	for i := range rs {
		rs[i] = Result{ID: i, dist: float32(i % 3)}
	}
	quickselect(rs, 40)
	for i := 0; i < 34; i++ { // 34 zeros exist
		if rs[i].dist > 1 {
			t.Fatalf("duplicate handling: pos %d dist %v", i, rs[i].dist)
		}
	}
}

func TestQuickselectEdgeCases(t *testing.T) {
	quickselect(nil, 1)               // must not panic
	quickselect([]Result{{1, 0}}, 0)  // k=0
	quickselect([]Result{{1, 0}}, 5)  // k > len
	quickselect([]Result{{1, 0}}, -1) // negative k
}

func TestTopKSorted(t *testing.T) {
	r := xrand.New(3)
	rs := randResults(r, 200)
	top := topK(rs, 20)
	if len(top) != 20 {
		t.Fatalf("len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].dist < top[i-1].dist {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed uint16) bool {
		r := xrand.New(uint64(seed))
		n := 50 + r.Intn(200)
		k := 1 + r.Intn(n)
		rs := randResults(r, n)
		full := make([]Result, n)
		copy(full, rs)
		sortResults(full)
		top := topK(rs, k)
		for i := 0; i < k; i++ {
			if top[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKClampsK(t *testing.T) {
	rs := []Result{{1, 0.5}, {2, 0.1}}
	top := topK(rs, 10)
	if len(top) != 2 || top[0].ID != 2 {
		t.Fatalf("topK = %v", top)
	}
}

func TestSortResultsTieBreak(t *testing.T) {
	rs := []Result{{5, 1}, {2, 1}, {9, 0}}
	sortResults(rs)
	if rs[0].ID != 9 || rs[1].ID != 2 || rs[2].ID != 5 {
		t.Fatalf("tie break wrong: %v", rs)
	}
}

func TestBoundedListKeepsBest(t *testing.T) {
	b := newBoundedList(3)
	for i := 10; i > 0; i-- {
		b.push(Result{ID: i, dist: float32(i)})
	}
	got := b.results()
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Fatalf("Results = %v", got)
	}
}

func TestBoundedListWorst(t *testing.T) {
	b := newBoundedList(2)
	if _, ok := b.worst(); ok {
		t.Fatal("Worst ok before full")
	}
	b.push(Result{1, 1})
	b.push(Result{2, 2})
	w, ok := b.worst()
	if !ok || w.dist != 2 {
		t.Fatalf("Worst = %v ok=%v", w, ok)
	}
	b.push(Result{3, 0.5})
	w, _ = b.worst()
	if w.dist != 1 {
		t.Fatalf("Worst after push = %v", w)
	}
}

func TestBoundedListRejectsWorse(t *testing.T) {
	b := newBoundedList(1)
	b.push(Result{1, 1})
	b.push(Result{2, 5})
	got := b.results()
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Results = %v", got)
	}
}

func TestBoundedListMatchesFullSort(t *testing.T) {
	r := xrand.New(4)
	rs := randResults(r, 300)
	b := newBoundedList(25)
	for _, x := range rs {
		b.push(x)
	}
	full := make([]Result, len(rs))
	copy(full, rs)
	sortResults(full)
	got := b.results()
	for i := 0; i < 25; i++ {
		if got[i].ID != full[i].ID {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], full[i])
		}
	}
}

func TestBoundedListPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newBoundedList(0)
}

func BenchmarkQuickselect10kTop100(b *testing.B) {
	r := xrand.New(5)
	base := randResults(r, 10000)
	work := make([]Result, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		quickselect(work, 100)
	}
}
