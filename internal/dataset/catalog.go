package dataset

import "fmt"

// Descriptor names one of the paper's evaluation datasets together
// with its full-scale properties and the scaled-down synthetic
// parameters used in this reproduction.
type Descriptor struct {
	// name as used in the paper's figures.
	name string
	// PaperEntries is the dataset size reported or implied by the
	// paper (documents/embeddings at full scale).
	PaperEntries int64
	// dim is the embedding dimensionality (Cohere embed v3 = 1024 for
	// the text datasets; SIFT = 128, DEEP = 96).
	dim int
	// DocBytes is the per-chunk document size modeled for the dataset
	// (text datasets only; SIFT/DEEP are pure ANNS benchmarks).
	DocBytes int
	// scaledEntries is the synthetic size generated at scale factor 1.
	scaledEntries int
	// clusters controls the topic structure of the generator at scale
	// factor 1 (Topics).
	clusters int
	// queries is the evaluation query count at scale factor 1.
	queries int
}

// Catalog lists the datasets used across the paper's experiments.
// Scaled sizes keep the relative ordering of the originals
// (NQ < HotpotQA < wiki_en < wiki_full) so crossover behaviour is
// preserved while staying tractable in CI.
var Catalog = map[string]Descriptor{
	"NQ":        {name: "NQ", PaperEntries: 2_681_468, dim: 1024, DocBytes: 1024, scaledEntries: 12_288, clusters: 96, queries: 64},
	"HotpotQA":  {name: "HotpotQA", PaperEntries: 5_233_329, dim: 1024, DocBytes: 1024, scaledEntries: 24_576, clusters: 128, queries: 64},
	"wiki_en":   {name: "wiki_en", PaperEntries: 41_488_110, dim: 1024, DocBytes: 1024, scaledEntries: 49_152, clusters: 192, queries: 64},
	"wiki_full": {name: "wiki_full", PaperEntries: 247_154_006, dim: 1024, DocBytes: 1024, scaledEntries: 98_304, clusters: 256, queries: 64},
	"SIFT":      {name: "SIFT", PaperEntries: 1_000_000_000, dim: 128, DocBytes: 0, scaledEntries: 65_536, clusters: 256, queries: 64},
	"DEEP":      {name: "DEEP", PaperEntries: 1_000_000_000, dim: 96, DocBytes: 0, scaledEntries: 65_536, clusters: 256, queries: 64},
}

// Topics is the generator's topic count at the given scale factor.
func (d Descriptor) Topics(scale int) int { return max(8, d.clusters/scale) }

// Load generates the named catalog dataset at the given scale factor.
// scale divides the entry and query counts (scale=1 is the full scaled
// reproduction size; larger values shrink further for unit tests).
// Load panics on an unknown name or non-positive scale.
func Load(name string, scale int) *Dataset {
	desc, ok := Catalog[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown dataset %q", name))
	}
	if scale <= 0 {
		panic(fmt.Sprintf("dataset: invalid scale %d", scale))
	}
	n := max(256, desc.scaledEntries/scale)
	queries := max(8, desc.queries/scale)
	docBytes := desc.DocBytes
	if docBytes == 0 {
		docBytes = 64 // SIFT/DEEP still need a payload for linkage tests
	}
	return Generate(Config{
		Name:     desc.name,
		N:        n,
		Dim:      desc.dim,
		Clusters: desc.Topics(scale),
		Queries:  queries,
		DocBytes: docBytes,
		// Harder queries than the unit-test default: real retrieval
		// queries sit between topics, so reaching high recall requires
		// probing several IVF cells — the regime the paper's recall
		// sweeps (0.90-0.98) operate in.
		QueryNoise: 0.5,
		Seed:       seedFor(desc.name),
	})
}

func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
