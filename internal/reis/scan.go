package reis

import (
	"context"
	"fmt"
)

// executeScan serves one OpcodeScan command: a raw scatter scan of
// explicit slot ranges — the per-device half of a sharded search. It
// is one batchScan round, exactly as the local search backend runs it,
// but returns the surviving TTL entries per (query, segment) instead
// of folding them: accumulation, bounds and selection happen on the
// gather side, in the router's controller, over the merged streams of
// every shard — so it sees exactly what a single device's would.
func (e *Engine) executeScan(ctx context.Context, cmd *HostCommand) (HostResponse, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	db, err := e.db(cmd.DBID)
	if err != nil {
		return HostResponse{}, err
	}
	sc := cmd.Scan
	slots := db.regionSlots
	if sc.Coarse {
		slots = db.rec.Centroids.Pages() * db.embPerPage
	}
	for qi, q := range cmd.Queries {
		// K is not an operand of a scan (selection is the gather side's).
		if err := checkQueryAgainst(db.Dim, db.ID, q, 1); err != nil {
			return HostResponse{}, err
		}
		for si, r := range sc.Segs[qi] {
			// Out-of-region segments are rejected, not clamped: a
			// range the device cannot serve in full would otherwise
			// yield silently truncated results (validate() already
			// rejected negative starts).
			if r.Last >= r.First && r.Last >= slots {
				return HostResponse{}, fmt.Errorf("%w (query %d segment %d: [%d, %d] of %d slots)",
					ErrBadScanRange, qi, si, r.First, r.Last, slots)
			}
		}
	}
	packed := e.packBatch(db, cmd.Queries)
	if err := e.batchScan(ctx, db, packed, sc.Coarse, sc.Segs, sc.MinDists, sc.Bounds, cmd.Opt.MetaTag); err != nil {
		return HostResponse{}, err
	}
	out := &e.scr.out

	resp := HostResponse{
		Done:       true,
		Scan:       make([][]ScanSegResult, len(cmd.Queries)),
		QueryStats: make([]QueryStats, len(cmd.Queries)),
	}
	for qi := range cmd.Queries {
		segs := make([]ScanSegResult, len(sc.Segs[qi]))
		for si := range segs {
			seg := out.seg(qi, si)
			r := ScanSegResult{
				Waves: seg.waves, Pages: seg.pages,
				Scanned: seg.scanned, Survivors: seg.survivors, TTLBytes: seg.ttlBytes,
				PrunedPages: seg.prunedPages, AbortedWaves: seg.abortedWaves,
				PrunedSlots: seg.prunedSlots,
			}
			if seg.survivors > 0 {
				// The entries cross the completion boundary (and, in a
				// sharded deployment, goroutines), so they move out of
				// the worker arenas into response-owned memory here.
				r.Entries = e.appendMergeByPos(make([]TTLEntry, 0, seg.survivors), out.scans[seg.lo:seg.hi])
			}
			segs[si] = r
		}
		resp.Scan[qi] = segs
		resp.QueryStats[qi] = out.stats(qi, sc.Coarse)
		resp.Stats.Add(resp.QueryStats[qi])
	}
	return resp, nil
}

// checkQueryAgainst validates one query against a database's
// dimensionality — the controller's batch validation and the scan
// opcode's, so every host fails with identical sentinels.
func checkQueryAgainst(dim, dbID int, query []float32, k int) error {
	if len(query) != dim {
		return fmt.Errorf("%w (query dim %d, database %d dim %d)",
			ErrQueryDims, len(query), dbID, dim)
	}
	if k <= 0 {
		return fmt.Errorf("%w (K=%d)", ErrBadK, k)
	}
	return nil
}
