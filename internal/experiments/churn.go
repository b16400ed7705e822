package experiments

import (
	"fmt"
	"strings"

	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/ssd"
)

// The churn experiment measures what background garbage collection
// does to flash wear under a sustained append/delete/compact workload:
// each round tombstones a slice of the deployed base plus the whole
// previous append batch, compacts, and appends a new batch, so the
// embedding region's logical tail runs far past its planned capacity
// on recycled GC rows. The comparison axis is the placement policy for
// those recycled rows — least-worn-first (the default) against the
// PR-5-era first-fit allocator, which reuses the lowest freed row and
// concentrates erases on it.
//
// MaxBlockErase is the device-wide maximum per-block erase count after
// the run (the wear-leveling target); WriteAmp is the cumulative
// bytes-programmed-to-flash over payload-bytes ratio the engine
// reports in HostResponse.Wear.

// ChurnRow is one placement policy's wear outcome.
type ChurnRow struct {
	Dataset   string `gate:"id"`
	Placement string `gate:"id"` // "wear-leveled" or "first-fit"
	Rounds    int    `gate:"id"`
	Batch     int    `gate:"id"`
	// CompactedRows / BlockErases accumulate over every round's
	// compaction; MaxBlockErase is the device maximum after the run.
	// All four are event counts of a deterministic mutation history.
	CompactedRows float64 `gate:"exact"`
	BlockErases   float64 `gate:"exact"`
	MaxBlockErase float64 `gate:"exact"`
	// WriteAmp is cumulative flash bytes programmed / payload bytes.
	WriteAmp float64 `gate:"exact"`
}

const (
	churnRounds = 20
	churnBatch  = 63
	churnBase   = 900
)

// churnCfg is a coarse-geometry device (two pages per block, two
// planes) so the churn corpus spans many GC rows and every round's
// compaction relocates and erases.
func churnCfg() ssd.Config {
	cfg := ssd.SSD1()
	cfg.Geo.Channels = 1
	cfg.Geo.DiesPerChannel = 1
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 256
	cfg.Geo.PagesPerBlock = 2
	cfg.Geo.PageBytes = 2048
	cfg.Geo.OOBBytes = 189
	cfg.OverprovisionPct = 200
	return cfg
}

// RunChurn executes the churn workload once per placement policy on
// identical data and returns the wear rows (wear-leveled first).
func RunChurn() ([]ChurnRow, error) {
	data := dataset.Generate(dataset.Config{
		Name: "churn", N: churnBase + 300, Dim: 128, Clusters: 16,
		Queries: 1, DocBytes: 256, Seed: 0xBEEF,
	})
	run := func(placement string) (ChurnRow, error) {
		opts := reis.AllOptions()
		opts.FirstFitPlacement = placement == "first-fit"
		e, err := reis.New(churnCfg(), 0, opts)
		if err != nil {
			return ChurnRow{}, err
		}
		defer e.Close()
		if _, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
			ID: 1, Vectors: data.Vectors[:churnBase], Docs: data.Docs[:churnBase], DocSlotBytes: 256,
		}}); err != nil {
			return ChurnRow{}, err
		}
		row := ChurnRow{Dataset: data.Name, Placement: placement, Rounds: churnRounds, Batch: churnBatch}
		pool := data.Vectors[churnBase:]
		poolDocs := data.Docs[churnBase:]
		var prev []int
		at := 0
		var lastWear reis.WearStats
		for r := 0; r < churnRounds; r++ {
			del := make([]int, 0, 15+len(prev))
			for id := r * 30; id < r*30+15; id++ {
				del = append(del, id)
			}
			del = append(del, prev...)
			if _, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: 1, Del: &reis.DeleteConfig{IDs: del}}); err != nil {
				return ChurnRow{}, fmt.Errorf("round %d delete: %w", r, err)
			}
			resp, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: 1, Compact: &reis.CompactConfig{MinLiveRatio: 0.9}})
			if err != nil {
				return ChurnRow{}, fmt.Errorf("round %d compact: %w", r, err)
			}
			lastWear = *resp.Wear
			row.CompactedRows += float64(lastWear.CompactedRows)
			row.BlockErases += float64(lastWear.BlockErases)
			vecs := make([][]float32, churnBatch)
			docs := make([][]byte, churnBatch)
			for j := range vecs {
				vecs[j] = pool[(at+j)%len(pool)]
				docs[j] = poolDocs[(at+j)%len(poolDocs)]
			}
			at += churnBatch
			resp, err = e.Submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1, Append: &reis.AppendConfig{Vectors: vecs, Docs: docs}})
			if err != nil {
				return ChurnRow{}, fmt.Errorf("round %d append: %w", r, err)
			}
			prev = resp.AppendedIDs
		}
		row.MaxBlockErase = float64(e.SSD.Dev.MaxEraseCount())
		row.WriteAmp = lastWear.WriteAmp
		return row, nil
	}
	var rows []ChurnRow
	for _, placement := range []string{"wear-leveled", "first-fit"} {
		row, err := run(placement)
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", placement, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatChurn renders the wear comparison.
func FormatChurn(rows []ChurnRow) string {
	var sb strings.Builder
	sb.WriteString("GC wear under append/delete/compact churn (REIS-SSD1, coarse blocks)\n")
	fmt.Fprintf(&sb, "%-10s %-13s %7s %6s %10s %8s %10s %10s\n",
		"dataset", "placement", "rounds", "batch", "GC rows", "erases", "max erase", "write amp")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-13s %7d %6d %10.0f %8.0f %10.0f %9.2fx\n",
			r.Dataset, r.Placement, r.Rounds, r.Batch, r.CompactedRows, r.BlockErases, r.MaxBlockErase, r.WriteAmp)
	}
	return sb.String()
}
