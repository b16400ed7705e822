package experiments

import (
	"fmt"
	"math"
	"strings"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/rivals"
)

// Fig10Row is one bar of Fig 10: REIS speedup over ICE for one
// dataset x mode x SSD, plus the ICE-ESP comparison of Sec 6.4.
type Fig10Row struct {
	Dataset       string  `gate:"id"`
	Mode          string  `gate:"id"`
	SSD           string  `gate:"id"`
	SpeedupICE    float64 `gate:"exact"`
	SpeedupICEESP float64 `gate:"exact"`
}

// RunFig10 regenerates the Fig 10 comparison to ICE.
func RunFig10(scale int, datasets []string) ([]Fig10Row, error) {
	if datasets == nil {
		datasets = fig7Datasets
	}
	ice, iceESP := rivals.ICE(), rivals.ICEESP()
	var rows []Fig10Row
	for _, name := range datasets {
		w := loadWorkload(name, scale)
		for s, err := range setups(w, reis.AllOptions(), paperSSDs, 1) {
			if err != nil {
				return nil, err
			}
			add := func(mode string, sc reis.Scale, b reis.Breakdown, st reis.QueryStats) {
				// ICE scans the same logical embeddings; its pages are
				// amplified inside the model. Candidates (no DF) are
				// every scanned entry.
				cands := fineCandidates(st, sc)
				perPage := float64(s.DB.EmbPerPage())
				scanPages := rivalCoarse(w, st)/perPage + cands/perPage
				iceL := ice.Latency(s.Cfg, scanPages, cands, 8)
				espL := iceESP.Latency(s.Cfg, scanPages, cands, 8)
				rows = append(rows, Fig10Row{
					Dataset: name, Mode: mode, SSD: s.Cfg.Name,
					SpeedupICE:    float64(iceL) / float64(b.Total),
					SpeedupICEESP: float64(espL) / float64(b.Total),
				})
			}
			b, st, err := s.runBF(10)
			if err != nil {
				return nil, err
			}
			add("BF", w.BF, b, st)
			for _, target := range recallTargets {
				b, st, err := s.runIVFAt(10, target)
				if err != nil {
					return nil, err
				}
				add(fmt.Sprintf("IVF@%.2f", target), w.IVF, b, st)
			}
		}
	}
	return rows, nil
}

// FormatFig10 renders the ICE comparison.
func FormatFig10(rows []Fig10Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 10: REIS speedup over ICE (and ICE-ESP, Sec 6.4)\n")
	fmt.Fprintf(&sb, "%-10s %-9s %-10s %9s %12s\n", "dataset", "mode", "SSD", "vs ICE", "vs ICE-ESP")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-9s %-10s %8.2fx %11.2fx\n",
			r.Dataset, r.Mode, r.SSD, r.SpeedupICE, r.SpeedupICEESP)
	}
	return sb.String()
}

// Fig11Row is one bar of Fig 11: REIS speedup over NDSearch on the
// billion-scale pure-ANNS datasets.
type Fig11Row struct {
	Dataset   string  `gate:"id"`
	Recall    float64 `gate:"id"`
	SpeedupND float64 `gate:"exact"`
}

// RunFig11 regenerates the Fig 11 comparison to NDSearch. NDSearch's
// cost comes from real HNSW traversal hop counts measured on the
// scaled dataset and extrapolated logarithmically to the paper's
// billion-point sizes (graph search path length grows ~log N).
func RunFig11(scale int) ([]Fig11Row, error) {
	nd := rivals.NDSearch()
	targets := map[string]float64{"SIFT": 0.94, "DEEP": 0.93}
	var rows []Fig11Row
	for _, name := range []string{"SIFT", "DEEP"} {
		w, target := loadWorkload(name, scale), targets[name]
		for s, err := range setups(w, reis.AllOptions(), paperSSDs[1:], 1) {
			if err != nil {
				return nil, err
			}
			nprobe, err := s.nprobeFor(target)
			if err != nil {
				return nil, err
			}
			// runIVF without the document-retrieval stage: SIFT/DEEP are
			// pure-ANNS benchmarks, as in NDSearch's evaluation.
			b, _, err := s.run(10, w.IVF, reis.OpcodeIVFSearch, reis.SearchOptions{NProbe: nprobe, SkipDocs: true})
			if err != nil {
				return nil, err
			}
			hops := measureHNSWHops(w.Data, target)
			// log-extrapolate path length to paper scale.
			logRatio := math.Log(float64(w.paperN())) / math.Log(float64(w.Data.Len()))
			ndL := nd.Latency(s.Cfg, hops*logRatio)
			rows = append(rows, Fig11Row{
				Dataset: name, Recall: target,
				SpeedupND: float64(ndL) / float64(b.Total),
			})
		}
	}
	return rows, nil
}

// measureHNSWHops builds an HNSW graph over the dataset and measures
// the mean per-query hop count at (approximately) the target recall by
// sweeping efSearch.
func measureHNSWHops(d *dataset.Dataset, target float64) float64 {
	h := ann.NewHNSW(d.Vectors, ann.HNSWConfig{M: 16, EfConstruction: 128, Seed: 0xfd})
	for _, ef := range []int{16, 32, 64, 128, 256, 512} {
		h.HopCount = 0
		got := make([][]int, len(d.Queries))
		h.SetEfSearch(ef)
		for qi, q := range d.Queries {
			rs := h.Search(q, 10)
			ids := make([]int, len(rs))
			for i, r := range rs {
				ids[i] = r.ID
			}
			got[qi] = ids
		}
		if dataset.Recall(d.GroundTruth, got, 10) >= target {
			return float64(h.HopCount) / float64(len(d.Queries))
		}
	}
	return float64(h.HopCount) / float64(len(d.Queries))
}

// FormatFig11 renders the NDSearch comparison.
func FormatFig11(rows []Fig11Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 11: REIS speedup over NDSearch (paper: 1.7x avg, up to 2.6x)\n")
	fmt.Fprintf(&sb, "%-8s %-7s %9s\n", "dataset", "recall", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-7.2f %8.2fx\n", r.Dataset, r.Recall, r.SpeedupND)
	}
	return sb.String()
}
