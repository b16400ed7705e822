package experiments

import (
	"fmt"
	"strings"

	"reis/internal/host"
	"reis/internal/ragpipe"
	"reis/internal/reis"
)

// RAGRow is one bar of Figs 2/3 or one column of Table 4: a full RAG
// pipeline breakdown.
type RAGRow struct {
	Dataset string               `gate:"id"`
	System  string               `gate:"id"` // "CPU flat", "CPU+BQ", "REIS-SSD1"
	Stages  ragpipe.StageSeconds `gate:"report"`
}

// ragBatch is the query count of one Fig 2/3 retrieval session
// (inferred from the paper's search-stage seconds).
const ragBatch = 64

// RunRAGBreakdown regenerates Figs 2 and 3 plus Table 4: pipeline
// breakdowns for the CPU flat-index system, the CPU+BQ system, and
// REIS, on HotpotQA and wiki_en (Fig 2/3) at full scale.
func RunRAGBreakdown(scale int) ([]RAGRow, error) {
	var rows []RAGRow
	for _, name := range []string{"HotpotQA", "wiki_en"} {
		w := loadWorkload(name, scale)
		n := int(w.paperN())
		dim := w.Data.Dim
		doc := w.Desc.DocBytes

		// Fig 2: flat FP32 index, exhaustive search over the session's
		// queryBatch queries.
		searchFlat := host.ScanSecondsF32(n, dim) * float64(ragBatch)
		rows = append(rows, RAGRow{name, "CPU flat",
			ragpipe.CPUPipeline(n, dim, doc, false, searchFlat)})

		// Fig 3: BQ index + rerank.
		searchBQ := host.ScanSecondsBQ(n, dim, 100) * float64(ragBatch)
		rows = append(rows, RAGRow{name, "CPU+BQ",
			ragpipe.CPUPipeline(n, dim, doc, true, searchBQ)})

		// Table 4: REIS (search + document retrieval in storage).
		for s, err := range setups(w, reis.AllOptions(), paperSSDs[:1], 1) {
			if err != nil {
				return nil, err
			}
			b, _, err := s.runIVFAt(10, 0.94)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RAGRow{name, "REIS-SSD1",
				ragpipe.REISPipeline(b.Total.Seconds() * float64(ragBatch))})
		}
	}
	return rows, nil
}

// FormatRAG renders the pipeline breakdowns as percentage bars.
func FormatRAG(rows []RAGRow) string {
	var sb strings.Builder
	sb.WriteString("Figs 2/3 + Table 4: RAG pipeline latency breakdown\n")
	fmt.Fprintf(&sb, "%-10s %-10s %8s | %6s %6s %6s %6s %6s %6s\n",
		"dataset", "system", "total(s)", "emb%", "enc%", "load%", "srch%", "genL%", "gen%")
	for _, r := range rows {
		f := r.Stages.Fractions()
		fmt.Fprintf(&sb, "%-10s %-10s %8.2f | %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			r.Dataset, r.System, r.Stages.Total(),
			100*f.EmbModelLoad, 100*f.Encode, 100*f.DatasetLoad,
			100*f.Search, 100*f.GenModelLoad, 100*f.Generation)
	}
	return sb.String()
}
