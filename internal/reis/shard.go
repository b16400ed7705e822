package reis

import (
	"fmt"

	"reis/internal/ssd"
)

// This file implements the sharded topology: one database partitioned
// across N simulated SSD devices — the ShardedEngine facade of the host
// core (host.go) and the page-striping arithmetic every device applies
// to the global ranges it is asked to scan.
//
// Partitioning scheme. The host core plans the database layout exactly
// as a single device would (planLayout: same page counts; the deploy's
// append places the corpus from the global state alone, with the same
// padding) and then stripes the pages round-robin across
// the shards: global page g lives on shard g mod N as local page
// g / N. Each shard is a device built verbatim from the shared
// config, so with region striping (page i → plane i mod planes) the
// union of the shards' planes is plane-for-plane identical to ONE
// device with N times the channels: global plane j of that reference
// device is shard j mod N, local plane j / N. Every region (binary
// embeddings, centroids, INT8 copies, documents) is striped the same
// way, and OOB linkage keeps global ids. Scale-out is therefore real —
// N devices carry N times the planes and channels of one — while the
// equivalence target stays exact.
//
// In-place scan. Every round hands each device the same global slot
// ranges; each scans the part it owns (localRange) on its own plane
// pool, and the host folds the devices' entries into the query's stream
// (controller.fold, batch.go) before its one tail runs over it.
//
// Determinism. The folded stream holds the same entries as a single
// device's scan — same positions, same distances, same links — in
// another order, and every consumer of the stream is order-free (the
// tail selects under the (Dist, DADR) total order). With the tail the
// same code over the same page bytes, sharded results are bit-identical
// to a single-device engine over the same data, for any shard count and
// any geometry (the entry set does not depend on plane counts). Stats
// are bit-identical to the N-times-channels reference device: per-entry
// and per-page counts sum across shards, and per-segment wave counts
// (parallel critical path) aggregate by maximum, which equals the
// reference value because per-plane page loads match plane for plane. See DESIGN.md, "Sharded
// topology".

// ShardedEngine is the host core an Engine embeds (host.go) bound to
// N ≥ 1 devices, each scanned in place. Submit, NewQueue, CalibrateNProbe,
// the journal pair, Ready and Close are the core's, promoted — the same
// methods Engine exposes, with results bit-identical to a single device
// over the same data. The methods declared here are the ones whose shape
// names the shards: Shards / Shard, and the per-shard stats operands of
// Latency / BatchLatency (timing.go).
type ShardedEngine struct {
	hostCore
}

// NewSharded builds a sharded engine over n devices, each constructed
// verbatim from the shared configuration. Their union is plane-for-plane
// identical to one device with n times the channels — the reference the
// determinism contract is pinned against (results are bit-identical to
// ANY single device over the same data; stats to that reference).
// capacityHint is the total data volume; each device is sized for its
// 1/n share.
func NewSharded(cfg ssd.Config, n int, capacityHint int64, opts Options) (*ShardedEngine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reis: shard count %d must be positive", n)
	}
	hint := (capacityHint + int64(n) - 1) / int64(n)
	devs := make([]*device, n)
	for s := range devs {
		var err error
		if devs[s], err = newDevice(cfg, hint, opts); err != nil {
			return nil, fmt.Errorf("reis: shard %d: %w", s, err)
		}
	}
	sh := &ShardedEngine{}
	sh.init(devs, true)
	return sh, nil
}

// Shards returns the number of devices.
func (sh *ShardedEngine) Shards() int { return len(sh.devs) }

// Shard returns a view of device s (for tests and tools): an Engine
// whose SSD and Opts are the device's and whose host half is closed
// from the start — it refuses every command with ErrQueueClosed, answers
// no DB and starts no goroutine. Closing it leaves the device open.
func (sh *ShardedEngine) Shard(s int) *Engine {
	return &Engine{device: sh.devs[s], hostCore: hostCore{closed: true, reg: queueRegistry{closed: true}}}
}

// localRange clips one global slot range to the pages shard s owns
// (global pages ≡ s mod n) and rewrites it in local coordinates — the
// identity on one device; a range with no owned page becomes the empty
// sentinel. Because ownership is per page, the owned part of a
// contiguous global range is a contiguous local range: partial-page slot
// bounds apply only when the shard owns the range's first or last global
// page.
func localRange(r slotRange, s, n, embPerPage int) slotRange {
	gp0, gp1 := r.First/embPerPage, r.Last/embPerPage
	g0 := gp0 + posMod(s-gp0, n) // first owned page >= gp0
	g1 := gp1 - posMod(gp1-s, n) // last owned page <= gp1
	if g0 > gp1 || g1 < gp0 {
		return slotRange{First: 0, Last: -1}
	}
	first := (g0 / n) * embPerPage
	if g0 == gp0 {
		first += r.First % embPerPage
	}
	last := (g1/n)*embPerPage + embPerPage - 1
	if g1 == gp1 {
		last = (g1/n)*embPerPage + r.Last%embPerPage
	}
	return slotRange{First: first, Last: last}
}

func posMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
