package experiments

import (
	"fmt"
	"strings"
	"time"

	"reis/internal/ann"
	"reis/internal/dataset"
)

// Fig5Point is one point of the Fig 5 throughput/recall comparison of
// host-side ANNS algorithms, with QPS normalized to exhaustive search
// (as in the paper).
type Fig5Point struct {
	Algorithm string  `gate:"id"`
	Param     string  `gate:"id"` // the swept knob (nprobe, ef, ...)
	Recall    float64 `gate:"report"`
	NormQPS   float64 `gate:"report"`
}

// RunFig5 regenerates Fig 5: IVF, BQ IVF, PQ IVF, HNSW, BQ HNSW and
// LSH measured by wall clock on this machine over the (scaled)
// wiki_en dataset. Unlike the device experiments this one is a real
// CPU measurement, matching the paper's methodology for this figure.
func RunFig5(scale int) ([]Fig5Point, error) {
	d := dataset.Load("wiki_en", scale)
	flatQPS, _ := measureSearcher(d, ann.NewFlat(d.Vectors), 10)

	var pts []Fig5Point
	add := func(algo, param string, s ann.Searcher) {
		qps, recall := measureSearcher(d, s, 10)
		pts = append(pts, Fig5Point{Algorithm: algo, Param: param, Recall: recall, NormQPS: qps / flatQPS})
	}

	nlist := max(8, isqrt(d.Len()))
	ivfF := ann.NewIVF(d.Vectors, ann.IVFConfig{NList: nlist, Mode: ann.IVFFloat, Seed: 5})
	ivfB := ann.NewIVF(d.Vectors, ann.IVFConfig{NList: nlist, Mode: ann.IVFBinary, Seed: 5})
	pqivf := ann.NewPQIVF(d.Vectors,
		ann.IVFConfig{NList: nlist, Seed: 5},
		ann.PQConfig{M: 16, KS: 64, Seed: 5, TrainIters: 6})
	for _, nprobe := range []int{1, 2, 4, 8, 16, nlist / 2} {
		if nprobe < 1 || nprobe > nlist {
			continue
		}
		np := nprobe
		add("IVF", fmt.Sprintf("nprobe=%d", np), searchFunc(func(q []float32, k int) []ann.Result {
			return ivfF.SearchNProbe(q, k, np)
		}))
		add("BQ IVF", fmt.Sprintf("nprobe=%d", np), searchFunc(func(q []float32, k int) []ann.Result {
			return ivfB.SearchNProbe(q, k, np)
		}))
		add("PQ IVF", fmt.Sprintf("nprobe=%d", np), searchFunc(func(q []float32, k int) []ann.Result {
			return pqivf.SearchNProbe(q, k, np)
		}))
	}

	hnsw := ann.NewHNSW(d.Vectors, ann.HNSWConfig{M: 24, EfConstruction: 160, Seed: 5})
	bqHnsw := ann.NewHNSW(d.Vectors, ann.HNSWConfig{M: 24, EfConstruction: 160, Seed: 5, Binary: true})
	for _, ef := range []int{16, 48, 128, 320} {
		hnsw.SetEfSearch(ef)
		add("HNSW", fmt.Sprintf("ef=%d", ef), hnsw)
		bqHnsw.SetEfSearch(ef)
		add("BQ HNSW", fmt.Sprintf("ef=%d", ef), bqHnsw)
	}

	for _, bits := range []int{14, 12, 10} {
		lsh := ann.NewLSH(d.Vectors, ann.LSHConfig{Tables: 16, Bits: bits, Seed: 5})
		add("LSH", fmt.Sprintf("bits=%d", bits), lsh)
	}
	return pts, nil
}

type searchFunc func(q []float32, k int) []ann.Result

func (f searchFunc) Search(q []float32, k int) []ann.Result { return f(q, k) }

func measureSearcher(d *dataset.Dataset, s ann.Searcher, k int) (qps, recall float64) {
	got := make([][]int, len(d.Queries))
	start := time.Now()
	for qi, q := range d.Queries {
		rs := s.Search(q, k)
		ids := make([]int, len(rs))
		for i, r := range rs {
			ids[i] = r.ID
		}
		got[qi] = ids
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(len(d.Queries)) / elapsed, dataset.Recall(d.GroundTruth, got, k)
}

func isqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}

// FormatFig5 renders the algorithm comparison.
func FormatFig5(pts []Fig5Point) string {
	var sb strings.Builder
	sb.WriteString("Fig 5: ANNS algorithms on CPU, QPS normalized to exhaustive search\n")
	fmt.Fprintf(&sb, "%-9s %-12s %7s %9s\n", "algo", "param", "recall", "norm QPS")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-9s %-12s %7.3f %9.2f\n", p.Algorithm, p.Param, p.Recall, p.NormQPS)
	}
	return sb.String()
}
