// Package ragpipe models the end-to-end RAG pipeline of Figs 2-3 and
// Table 4: encoding-model loading, query encoding, dataset loading,
// search, generation-model loading, and generation.
//
// The model-related stage constants are taken from the paper's own
// measurements (all-roberta-large-v1 for encoding, Llama 3.2 1B for
// generation on an A100; Table 4 columns give the stage seconds), and
// the dataset-loading and search stages come from this repository's
// host and REIS models, so the pipeline recomposes rather than merely
// restates the paper's breakdown.
package ragpipe

import "reis/internal/host"

// StageSeconds is one pipeline breakdown (all values in seconds).
type StageSeconds struct {
	EmbModelLoad float64
	Encode       float64
	DatasetLoad  float64
	Search       float64
	GenModelLoad float64
	Generation   float64
}

// Model-stage constants reconstructed from Table 4 (seconds).
// E.g. CPU+BQ on HotpotQA: 23.79 s total with 2.61% embedding-model
// load = 0.62 s, 0.46% encode = 0.11 s, 3.32% generation-model load =
// 0.79 s, 73% generation = 17.37 s; the wiki_en/NQ column yields the
// same absolute values, confirming they are dataset-independent.
const (
	embModelLoadSeconds = 0.62
	encodeSeconds       = 0.11
	genModelLoadSeconds = 0.79
	generationSeconds   = 17.3
)

// Total sums the stages.
func (s StageSeconds) Total() float64 {
	return s.EmbModelLoad + s.Encode + s.DatasetLoad + s.Search + s.GenModelLoad + s.Generation
}

// Fractions returns each stage as a fraction of the total.
func (s StageSeconds) Fractions() StageSeconds {
	t := s.Total()
	if t == 0 {
		return StageSeconds{}
	}
	return StageSeconds{
		EmbModelLoad: s.EmbModelLoad / t,
		Encode:       s.Encode / t,
		DatasetLoad:  s.DatasetLoad / t,
		Search:       s.Search / t,
		GenModelLoad: s.GenModelLoad / t,
		Generation:   s.Generation / t,
	}
}

// CPUPipeline assembles the breakdown for a CPU-based pipeline over a
// dataset of n entries with the given embedding dimensionality and
// document chunk size. bq selects the Fig 3 (binary-quantized)
// variant; searchSeconds is the measured/modelled search stage.
func CPUPipeline(n, dim, docBytes int, bq bool, searchSeconds float64) StageSeconds {
	var bytes int64
	if bq {
		bytes = host.DatasetBytesBQ(n, dim, docBytes)
	} else {
		bytes = host.DatasetBytesF32(n, dim, docBytes)
	}
	return StageSeconds{
		EmbModelLoad: embModelLoadSeconds,
		Encode:       encodeSeconds,
		DatasetLoad:  host.LoadSeconds(bytes, bq),
		Search:       searchSeconds,
		GenModelLoad: genModelLoadSeconds,
		Generation:   generationSeconds,
	}
}

// REISPipeline assembles the breakdown when retrieval runs in storage:
// no dataset-loading stage; searchSeconds covers search and document
// retrieval (Table 4's "Search (and retrieval for REIS)").
func REISPipeline(searchSeconds float64) StageSeconds {
	return StageSeconds{
		EmbModelLoad: embModelLoadSeconds,
		Encode:       encodeSeconds,
		DatasetLoad:  0,
		Search:       searchSeconds,
		GenModelLoad: genModelLoadSeconds,
		Generation:   generationSeconds,
	}
}
