package reis

import (
	"context"
	"fmt"

	"reis/internal/ssd"
)

// This file implements the sharded topology: one database partitioned
// across N simulated SSD devices with scatter-gather search — the
// ShardedEngine facade of the host core (host.go), and the core's scan
// backend over several devices.
//
// Partitioning scheme. The host core plans the database layout exactly
// as a single device would (planLayout: same placement order, padding,
// page counts) and then stripes the planned pages round-robin across
// the shards: global page g lives on shard g mod N as local page
// g / N. Each shard is a full device built verbatim from the shared
// config, so with region striping (page i → plane i mod planes) the
// union of the shards' planes is plane-for-plane identical to ONE
// device with N times the channels: global plane j of that reference
// device is shard j mod N, local plane j / N. Every region (binary
// embeddings, centroids, INT8 copies, documents) is striped the same
// way, and OOB linkage keeps global ids. Scale-out is therefore real —
// N devices carry N times the planes and channels of one — while the
// equivalence target stays exact.
//
// Scatter-gather. A search fans out OpcodeScan commands through one
// queue pair per shard (the router's "driver" view of each device):
// per query, the global slot ranges are translated into each shard's
// local coordinates; each shard runs the ordinary batched scan
// pipeline over its pages and returns the surviving TTL entries per
// (query, segment). The router remaps local positions to global ones,
// k-way merges the per-shard streams in global position order
// (mergeEntryLists — the same merge the engine uses across planes),
// and runs the shared controller tail (runTail) over the merged
// stream, fetching INT8 and document pages from whichever shard owns
// them.
//
// Determinism. Because the merged entry stream is element-identical to
// what a single device's scan produces — same entries, same order,
// same distances — and the tail is the same code over the same page
// bytes, sharded results are bit-identical to a single-device engine
// over the same data, for any shard count and any geometry (the entry
// stream does not depend on plane counts). Stats are bit-identical to
// the N-times-channels reference device: per-entry and per-page counts
// sum across shards, and per-segment wave counts (parallel critical
// path) aggregate by maximum, which equals the reference value because
// per-plane page loads match plane for plane. See DESIGN.md, "Sharded
// topology".

// ShardedEngine is a host over N member devices with scatter-gather
// search: a facade over the same host core an Engine embeds (host.go),
// bound to N ≥ 1 devices instead of one. Submit, NewQueue (asynchronous
// queue pairs dispatch into the host), the Search family, Append /
// Delete / Compact, CalibrateNProbe, RunLoad, the journal pair, Ready
// and Close are the core's, promoted — the same methods Engine exposes,
// with results bit-identical to a single device over the same data. The
// methods declared here are the ones whose shape names the shards: the
// ShardedDatabase return type, and the per-shard stats operands of
// Latency / BatchLatency (timing.go).
type ShardedEngine struct {
	hostCore
}

// NewSharded builds a sharded engine of n member devices, each
// constructed verbatim from the shared configuration. The shard union
// is plane-for-plane identical to one device with n times the
// channels — the reference the determinism contract is pinned against
// (results are bit-identical to ANY single device over the same data;
// stats to that reference). capacityHint is the total data volume;
// each shard is sized for its 1/n share. One member is scanned in
// place, like an Engine's own device; several are scattered to, each
// through a queue pair of its own.
func NewSharded(cfg ssd.Config, n int, capacityHint int64, opts Options) (*ShardedEngine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reis: shard count %d must be positive", n)
	}
	hint := (capacityHint + int64(n) - 1) / int64(n)
	sh := &ShardedEngine{}
	sh.perShard = true
	for s := 0; s < n; s++ {
		e, err := New(cfg, hint, opts)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("reis: shard %d: %w", s, err)
		}
		sh.devs = append(sh.devs, e)
		if n == 1 {
			break
		}
		q, err := e.NewQueue(QueueConfig{})
		if err != nil {
			sh.Close()
			return nil, err
		}
		sh.qs = append(sh.qs, q)
	}
	sh.hostCore.init(sh.devs[0].SSD.Cfg, opts, sh.devs)
	return sh, nil
}

// Shards returns the number of member devices.
func (sh *ShardedEngine) Shards() int { return len(sh.devs) }

// Shard exposes member device s (for tests and tools).
func (sh *ShardedEngine) Shard(s int) *Engine { return sh.devs[s] }

// DB returns a deployed database by id.
func (sh *ShardedEngine) DB(id int) (*ShardedDatabase, error) { return sh.hostDB(id) }

// Deploy implements DB_Deploy across the shards (flat database).
func (sh *ShardedEngine) Deploy(cfg DeployConfig) (*ShardedDatabase, error) {
	return sh.deploy(cfg, false)
}

// IVFDeploy implements IVF_Deploy across the shards: the cluster-
// sorted placement and the R-IVF table are planned globally (the
// host keeps the table in its controller DRAM), then page-striped.
func (sh *ShardedEngine) IVFDeploy(cfg DeployConfig) (*ShardedDatabase, error) {
	return sh.deploy(cfg, true)
}

// shardBackend is the controller's scan backend over the member
// devices: a round is one OpcodeScan scatter, segments fold by
// remapping shard-local positions and merging the per-shard streams,
// and the tail fetches each page from the shard that owns it.
type shardBackend struct {
	c     *hostCore
	db    *ShardedDatabase
	resps []HostResponse // the last round's completions, by shard
}

func (b *shardBackend) scan(ctx context.Context, queries [][]float32, coarse bool, segs [][]SlotRange, lbs [][]int, bounds []int, metaTag *uint8, rows [][]QueryStats) error {
	resps, err := b.c.scatter(ctx, b.db, queries, coarse, segs, bounds, lbs, metaTag)
	if err != nil {
		return err
	}
	b.resps = resps
	if rows != nil {
		// A skipped shard's view of the round is all zero.
		for s := range resps {
			for qi, st := range resps[s].QueryStats {
				rows[s][qi].Add(st)
			}
		}
	}
	return nil
}

func (b *shardBackend) ibc(qi int) int { return gatherIBC(b.resps, qi) }

func (b *shardBackend) fold(qi, si int, coarse bool, st *QueryStats, dst []TTLEntry) []TTLEntry {
	gatherSegStats(b.resps, qi, si, coarse, st)
	return b.c.mergeSeg(dst, b.resps, qi, si, b.db.lay.embPerPage)
}

// scatter fans one scan phase out to the shards through their queue
// pairs and gathers the completions in shard order. segs are global
// per-query slot ranges; each shard receives its local translation
// with (query, segment) indices preserved. A shard whose translation
// is all empty sentinels (it owns no page of any requested range) is
// skipped entirely — its zero-valued response is what it would have
// reported — so idle shards pay no query encoding or queue round
// trip. All submitted commands are waited for even on error, so
// scatter never leaks queue slots.
//
// bounds/minDists carry the round's per-query thresholds (all zero
// unless pruning) and per-segment lower bounds (nil on flat and coarse
// rounds). Both are global values — bounds are query properties and a
// lower bound holds for the whole global segment — so every shard
// receives the same slices verbatim (localSegs preserves the (query, segment) shape) and
// the shards' abort decisions match the reference device's exactly.
func (c *hostCore) scatter(ctx context.Context, db *ShardedDatabase, queries [][]float32, coarse bool, segs [][]SlotRange, bounds []int, minDists [][]int, metaTag *uint8) ([]HostResponse, error) {
	n := len(c.devs)
	// The responses own the round's entries, so they are the command's
	// garbage, not pooled state.
	resps := make([]HostResponse, n)
	// ids[s] stays 0 — never a CommandID — for a shard not submitted to.
	c.scr.ids = growTo(c.scr.ids, n)
	ids := c.scr.ids
	clear(ids)
	var firstErr error
	for s, q := range c.qs {
		local := localSegs(segs, s, n, db.lay.embPerPage)
		if !hasWork(local) {
			continue
		}
		cmd := HostCommand{
			Opcode: OpcodeScan, DBID: db.ID, Queries: queries,
			Scan: &ScanConfig{Coarse: coarse, Segs: local, Bounds: bounds, MinDists: minDists},
			Opt:  SearchOptions{MetaTag: metaTag},
		}
		id, err := q.SubmitAsync(ctx, cmd)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		ids[s] = id
	}
	// Gather with a background context: a cancelled command context
	// aborts execution inside the shard (the command carries ctx), and
	// the completion must still be consumed to free the queue slot.
	for s, q := range c.qs {
		if ids[s] == 0 {
			continue
		}
		resp, err := q.Wait(context.Background(), ids[s])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		resps[s] = resp
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return resps, nil
}

// localSegs translates per-query global slot ranges into shard s's
// local coordinates, preserving the (query, segment) shape; segments
// with no owned page become the empty sentinel. The flat and coarse
// phases hand every query the same underlying segment slice, so a
// list identical to the previous query's reuses its translation (the
// result is read-only downstream).
func localSegs(segs [][]SlotRange, s, n, embPerPage int) [][]SlotRange {
	out := make([][]SlotRange, len(segs))
	var prev, prevOut []SlotRange
	for qi, list := range segs {
		if len(list) > 0 && len(prev) == len(list) && &prev[0] == &list[0] {
			out[qi] = prevOut
			continue
		}
		ls := make([]SlotRange, len(list))
		for si, r := range list {
			ls[si] = localRange(r, s, n, embPerPage)
		}
		out[qi] = ls
		prev, prevOut = list, ls
	}
	return out
}

// localRange clips one global slot range to the pages shard s owns
// (global pages ≡ s mod n) and rewrites it in local coordinates.
// Because ownership is per page, the owned part of a contiguous global
// range is a contiguous local range: partial-page slot bounds apply
// only when the shard owns the range's first or last global page.
func localRange(r SlotRange, s, n, embPerPage int) SlotRange {
	gp0, gp1 := r.First/embPerPage, r.Last/embPerPage
	g0 := gp0 + posMod(s-gp0, n) // first owned page >= gp0
	g1 := gp1 - posMod(gp1-s, n) // last owned page <= gp1
	if g0 > gp1 || g1 < gp0 {
		return SlotRange{First: 0, Last: -1}
	}
	first := (g0 / n) * embPerPage
	if g0 == gp0 {
		first += r.First % embPerPage
	}
	last := (g1/n)*embPerPage + embPerPage - 1
	if g1 == gp1 {
		last = (g1/n)*embPerPage + r.Last%embPerPage
	}
	return SlotRange{First: first, Last: last}
}

// ownedSlots is the number of local slots shard s addresses of a global
// region holding slots slots: the end of the region's local translation.
// On one device it is slots itself.
func ownedSlots(slots, s, n, embPerPage int) int {
	if slots == 0 {
		return 0
	}
	return localRange(SlotRange{First: 0, Last: slots - 1}, s, n, embPerPage).Last + 1
}

// hasWork reports whether any translated segment is non-empty.
func hasWork(segs [][]SlotRange) bool {
	for _, list := range segs {
		for _, r := range list {
			if r.Last >= r.First {
				return true
			}
		}
	}
	return false
}

func posMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// globalPos maps a shard-local slot position back to its single-device
// position: local page l of shard s is global page l*n + s.
func globalPos(pos, s, n, embPerPage int) int {
	return (pos/embPerPage*n+s)*embPerPage + pos%embPerPage
}

// mergeSeg remaps one (query, segment)'s shard-local entry positions
// to global ones (in place: the response slices are owned by the
// gather side) and k-way merges the per-shard streams in global
// position order, appending to dst.
func (c *hostCore) mergeSeg(dst []TTLEntry, resps []HostResponse, qi, si, embPerPage int) []TTLEntry {
	n := len(c.devs)
	lists := c.scr.lists[:0]
	for s := range resps {
		if resps[s].Scan == nil {
			continue // shard skipped: no work in this phase
		}
		es := resps[s].Scan[qi][si].Entries
		if len(es) == 0 {
			continue
		}
		for i := range es {
			es[i].Pos = globalPos(es[i].Pos, s, n, embPerPage)
		}
		lists = append(lists, es)
	}
	c.scr.lists = lists
	return mergeEntryLists(dst, lists)
}

// gatherSegStats folds one (query, segment)'s shard outcomes into st:
// count-type events sum across shards; the wave count — the parallel
// critical path of the segment — aggregates by maximum, which equals
// the single-device value because the shards' per-plane page loads are
// identical to the single device's, plane for plane.
func gatherSegStats(resps []HostResponse, qi, si int, coarse bool, st *QueryStats) {
	waves, pages, aborted := 0, 0, 0
	for s := range resps {
		if resps[s].Scan == nil {
			continue // shard skipped: no work in this phase
		}
		r := &resps[s].Scan[qi][si]
		if r.Waves > waves {
			waves = r.Waves
		}
		if r.AbortedWaves > aborted {
			aborted = r.AbortedWaves
		}
		pages += r.Pages
		st.EntriesScanned += r.Scanned
		st.Survivors += r.Survivors
		st.PrunedPages += r.PrunedPages
		st.PrunedSlots += r.PrunedSlots
		st.TTLBytes += r.TTLBytes
	}
	// Aborted waves aggregate like real waves: the segment's parallel
	// critical path, max across shards (= the reference device's value,
	// because the abort is decided from the same spans geometry).
	st.AbortedWaves += aborted
	if coarse {
		st.CoarseWaves += waves
		st.CoarsePages += pages
	} else {
		st.FineWaves += waves
		st.FinePages += pages
	}
}

// gatherIBC sums one query's broadcast counts across the shards (the
// shard planes partition the single device's planes, so the sum equals
// the single-device batch-path count).
func gatherIBC(resps []HostResponse, qi int) int {
	n := 0
	for s := range resps {
		if len(resps[s].QueryStats) == 0 {
			continue // shard skipped: no work in this phase
		}
		n += resps[s].QueryStats[qi].IBCBroadcasts
	}
	return n
}
