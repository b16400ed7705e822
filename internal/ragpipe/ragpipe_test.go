package ragpipe

import (
	"math"
	"testing"
)

func TestFig2ShapeDatasetLoadingDominates(t *testing.T) {
	// Fig 2: at full wiki_en scale (41.5M entries, FP32 flat index)
	// dataset loading must account for ~84% of the pipeline.
	s := CPUPipeline(41_488_110, 1024, 1024, false, 1.0)
	f := s.Fractions()
	if f.DatasetLoad < 0.70 || f.DatasetLoad > 0.95 {
		t.Fatalf("wiki_en dataset-loading fraction = %.2f, paper reports 0.84", f.DatasetLoad)
	}
	t.Logf("wiki_en flat: load %.1f%% of %.1fs (paper: 84%% of 172.8s)", 100*f.DatasetLoad, s.Total())
}

func TestFig2SmallerDatasetSmallerFraction(t *testing.T) {
	// HotpotQA (5.3M) must show a smaller loading fraction (paper: 46%).
	hq := CPUPipeline(5_233_329, 1024, 1024, false, 0.3).Fractions()
	we := CPUPipeline(41_488_110, 1024, 1024, false, 1.0).Fractions()
	if hq.DatasetLoad >= we.DatasetLoad {
		t.Fatalf("HotpotQA load fraction %.2f >= wiki_en %.2f", hq.DatasetLoad, we.DatasetLoad)
	}
	if hq.DatasetLoad < 0.25 || hq.DatasetLoad > 0.70 {
		t.Fatalf("HotpotQA loading fraction = %.2f, paper reports 0.46", hq.DatasetLoad)
	}
}

func TestFig3BQReducesButKeepsBottleneck(t *testing.T) {
	// Fig 3: BQ cuts loading, but wiki_en remains loading-bound (67%).
	flat := CPUPipeline(41_488_110, 1024, 1024, false, 1.0)
	bq := CPUPipeline(41_488_110, 1024, 1024, true, 1.0)
	if bq.DatasetLoad >= flat.DatasetLoad {
		t.Fatal("BQ did not reduce loading")
	}
	f := bq.Fractions()
	if f.DatasetLoad < 0.5 {
		t.Fatalf("wiki_en BQ loading fraction = %.2f, paper reports 0.67", f.DatasetLoad)
	}
	t.Logf("wiki_en BQ: load %.1f%% of %.1fs (paper: 67.3%% of 61.69s)", 100*f.DatasetLoad, bq.Total())
}

func TestTable4REISEliminatesLoading(t *testing.T) {
	r := REISPipeline(0.004)
	if r.DatasetLoad != 0 {
		t.Fatal("REIS pipeline has a loading stage")
	}
	f := r.Fractions()
	// Table 4: generation becomes ~92% of the REIS pipeline.
	if f.Generation < 0.85 {
		t.Fatalf("generation fraction = %.2f, paper reports 0.92", f.Generation)
	}
	if math.Abs(r.Total()-18.97) > 1.5 {
		t.Fatalf("REIS end-to-end = %.2fs, paper reports 18.97s", r.Total())
	}
}

func TestTable4EndToEndSpeedups(t *testing.T) {
	// Paper: REIS reduces end-to-end latency 1.25x on HotpotQA and
	// 3.24x on NQ/wiki_en-class datasets versus CPU+BQ.
	reis := REISPipeline(0.01).Total()
	hotpot := CPUPipeline(5_233_329, 1024, 1024, true, 0.07).Total()
	wiki := CPUPipeline(41_488_110, 1024, 1024, true, 1.23).Total()
	sHot := hotpot / reis
	sWiki := wiki / reis
	if sHot < 1.05 || sHot > 2.0 {
		t.Fatalf("HotpotQA end-to-end speedup %.2f, paper 1.25", sHot)
	}
	if sWiki < 2.0 || sWiki > 5.0 {
		t.Fatalf("wiki-scale end-to-end speedup %.2f, paper 3.24", sWiki)
	}
	t.Logf("end-to-end speedups: HotpotQA %.2fx (paper 1.25x), wiki %.2fx (paper 3.24x)", sHot, sWiki)
}

func TestFractionsSumToOne(t *testing.T) {
	s := CPUPipeline(1_000_000, 1024, 1024, true, 0.5)
	f := s.Fractions()
	sum := f.EmbModelLoad + f.Encode + f.DatasetLoad + f.Search + f.GenModelLoad + f.Generation
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestFractionsZeroTotal(t *testing.T) {
	var s StageSeconds
	if s.Fractions() != (StageSeconds{}) {
		t.Fatal("zero total should give zero fractions")
	}
}
