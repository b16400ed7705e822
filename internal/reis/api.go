package reis

import (
	"errors"
	"fmt"
	"math"

	"reis/internal/ann"
)

// The NVM command set reserves opcodes 80h-FFh for vendor-specific
// commands (Sec 4.4.1); REIS claims four of them for the Table 1 API.
// OpcodeAppend/OpcodeDelete/OpcodeCompact are the online-mutability
// extension (out-of-place appends, tombstone deletes, and the
// background garbage collector, which the queue scheduler interleaves
// with searches step by step — see mutate.go, queue.go and DESIGN.md).
const (
	OpcodeDBDeploy  uint8 = 0x80
	OpcodeIVFDeploy uint8 = 0x81
	OpcodeSearch    uint8 = 0x82
	OpcodeIVFSearch uint8 = 0x83
	OpcodeAppend    uint8 = 0x85
	OpcodeDelete    uint8 = 0x86
	OpcodeCompact   uint8 = 0x87
)

// Sentinel errors of the host interface. Submission paths wrap them
// with command detail; match with errors.Is.
var (
	// errUnknownOpcode: the command's opcode is not one of the Table 1
	// vendor opcodes.
	errUnknownOpcode = errors.New("reis: unknown vendor opcode")
	// errMissingPayload: a deploy command without its DeployConfig.
	errMissingPayload = errors.New("reis: deploy command without payload")
	// errNoQueries: a search command with an empty Q operand.
	errNoQueries = errors.New("reis: search command without queries")
	// errBadK: a search command whose K operand is non-positive or
	// above maxK.
	errBadK = errors.New("reis: K operand out of range")
	// errQueryDims: query, append or deploy vectors of inconsistent
	// dimensionality (within one command, or against the target
	// database), or deploy vectors of dimensionality 0.
	errQueryDims = errors.New("reis: query dimensionality mismatch")
	// ErrQueueFull: SubmitAsync admission control rejected the command
	// because the queue pair already holds Depth outstanding commands.
	ErrQueueFull = errors.New("reis: submission queue full")
	// ErrQueueClosed: the queue (or its engine) was closed; commands
	// still pending at close time complete with this error.
	ErrQueueClosed = errors.New("reis: queue closed")
	// errNotCalibrated: a TargetRecall operand could not be resolved
	// because the database has no CalibrateNProbe record covering it.
	errNotCalibrated = errors.New("reis: no nprobe calibration for target recall")
	// errNoItems: an OpcodeAppend/OpcodeDelete command with an empty
	// item list.
	errNoItems = errors.New("reis: mutation command without items")
	// errBadAssign: an append's or IVF deploy's cluster assignment is
	// missing, superfluous (flat database) or out of range.
	errBadAssign = errors.New("reis: append cluster assignment mismatch")
	// errUnknownID: a delete names an id that was never issued, is
	// already tombstoned, or repeats within the command. The whole
	// delete is rejected.
	errUnknownID = errors.New("reis: unknown or already-deleted id")
	// errBadThreshold: an OpcodeCompact live-ratio threshold outside
	// [0, 1].
	errBadThreshold = errors.New("reis: compact live-ratio threshold out of range")
)

// HostCommand is one vendor-specific NVMe command as the host driver
// would submit it. Exactly one payload field matching the opcode must
// be populated.
type HostCommand struct {
	Opcode uint8

	// Deploy carries DB_Deploy / IVF_Deploy parameters.
	Deploy *DeployConfig

	// Search parameters (Search / IVF_Search). Queries are processed
	// as one batch, matching the batched Q operand of Table 1.
	DBID    int
	Queries [][]float32
	K       int
	// TargetRecall is IVF_Search's accuracy operand R; the device
	// resolves it to a calibrated nprobe when Opt.NProbe is zero (see
	// resolveSearchOptions).
	TargetRecall float64
	Opt          SearchOptions

	// Append / Del / Compact carry the mutation payloads of the
	// matching opcodes (DBID addresses the database).
	Append  *AppendConfig
	Del     *DeleteConfig
	Compact *CompactConfig
}

// slotRange is one inclusive range of region slot positions. The empty
// sentinel (First 0, Last -1) is a range with no slot: what a global
// range translates to on a device that owns none of its pages.
type slotRange struct {
	First, Last int
}

// validate checks the host-side invariants of a command — opcode,
// payload presence and shape, K, and uniform query dimensionality —
// before it is admitted to a queue, so malformed commands fail at
// submission instead of deep inside the scan path.
func (cmd *HostCommand) validate() error {
	switch cmd.Opcode {
	case OpcodeDBDeploy, OpcodeIVFDeploy:
		if cmd.Deploy == nil {
			return fmt.Errorf("%w (opcode %#x)", errMissingPayload, cmd.Opcode)
		}
		return cmd.Deploy.validate(cmd.Opcode == OpcodeIVFDeploy)
	case OpcodeSearch, OpcodeIVFSearch:
		if len(cmd.Queries) == 0 {
			return errNoQueries
		}
		if err := checkK(cmd.K); err != nil {
			return err
		}
		return cmd.checkQueryDims()
	case OpcodeAppend:
		a := cmd.Append
		if a == nil {
			return fmt.Errorf("%w (opcode %#x)", errMissingPayload, cmd.Opcode)
		}
		if a.rec != nil {
			return nil
		}
		if len(a.Vectors) == 0 {
			return errNoItems
		}
		if len(a.Docs) != len(a.Vectors) {
			return fmt.Errorf("%w (append with %d docs for %d vectors)", errMissingPayload, len(a.Docs), len(a.Vectors))
		}
		if a.MetaTags != nil && len(a.MetaTags) != len(a.Vectors) {
			return fmt.Errorf("%w (append with %d meta tags for %d vectors)", errMissingPayload, len(a.MetaTags), len(a.Vectors))
		}
		dim := len(a.Vectors[0])
		for i, v := range a.Vectors {
			if len(v) != dim {
				return fmt.Errorf("%w (append vector 0 has dim %d, vector %d has dim %d)",
					errQueryDims, dim, i, len(v))
			}
		}
		return nil
	case OpcodeDelete:
		if cmd.Del == nil {
			return fmt.Errorf("%w (opcode %#x)", errMissingPayload, cmd.Opcode)
		}
		if len(cmd.Del.IDs) == 0 {
			return errNoItems
		}
		for _, id := range cmd.Del.IDs {
			if id < 0 {
				return fmt.Errorf("%w (%d)", errUnknownID, id)
			}
		}
		return nil
	case OpcodeCompact:
		if cmd.Compact == nil {
			return fmt.Errorf("%w (opcode %#x)", errMissingPayload, cmd.Opcode)
		}
		if r := cmd.Compact.MinLiveRatio; r < 0 || r > 1 {
			return fmt.Errorf("%w (%g)", errBadThreshold, r)
		}
		return nil
	default:
		return fmt.Errorf("%w %#x", errUnknownOpcode, cmd.Opcode)
	}
}

// validate checks the shape of a deploy payload at submission: one
// positive dimensionality for every vector (and, for IVF_Deploy, every
// centroid), a meta tag per vector when there are any, and every cluster
// assignment naming a centroid. The layout planner indexes by all of
// them on a queue's dispatcher, where a panic would take the process
// down. Sizes the planner refuses with an error of its own (an empty
// corpus, docs that do not fit their slots) are left to it.
func (cfg *DeployConfig) validate(ivf bool) error {
	n := len(cfg.Vectors)
	if n == 0 {
		return nil
	}
	dim := len(cfg.Vectors[0])
	if dim == 0 {
		return fmt.Errorf("%w (deploy vectors have dim 0)", errQueryDims)
	}
	for i, v := range cfg.Vectors {
		if len(v) != dim {
			return fmt.Errorf("%w (deploy vector 0 has dim %d, vector %d has dim %d)",
				errQueryDims, dim, i, len(v))
		}
	}
	if cfg.MetaTags != nil && len(cfg.MetaTags) != n {
		return fmt.Errorf("%w (deploy with %d meta tags for %d vectors)", errMissingPayload, len(cfg.MetaTags), n)
	}
	if !ivf {
		return nil
	}
	for c, v := range cfg.Centroids {
		if len(v) != dim {
			return fmt.Errorf("%w (centroid %d has dim %d, vectors %d)", errQueryDims, c, len(v), dim)
		}
	}
	if len(cfg.Assign) != n {
		return fmt.Errorf("%w (%d assignments for %d vectors)", errBadAssign, len(cfg.Assign), n)
	}
	for i, c := range cfg.Assign {
		if c < 0 || c >= len(cfg.Centroids) {
			return fmt.Errorf("%w (item %d assigned to cluster %d of %d)", errBadAssign, i, c, len(cfg.Centroids))
		}
	}
	return nil
}

// maxK bounds the K operand: more results per query than any device has
// slots, and small enough that the rerank pool K × ann.RerankFactor fits
// an int on every platform.
const maxK = math.MaxInt32 / ann.RerankFactor

// checkK validates a K operand: at submission (validate) for every
// command, and for CalibrateNProbe, which is not one.
func checkK(k int) error {
	if k <= 0 || k > maxK {
		return fmt.Errorf("%w (K=%d, want 1..%d)", errBadK, k, maxK)
	}
	return nil
}

// checkQueryDims verifies the batch's queries share one dimensionality.
func (cmd *HostCommand) checkQueryDims() error {
	dim := len(cmd.Queries[0])
	for i, q := range cmd.Queries {
		if len(q) != dim {
			return fmt.Errorf("%w (query 0 has dim %d, query %d has dim %d)",
				errQueryDims, dim, i, len(q))
		}
	}
	return nil
}

// isSearchOp reports whether the opcode is served by the search
// controller (as opposed to a deploy or a mutation).
func isSearchOp(op uint8) bool { return op == OpcodeSearch || op == OpcodeIVFSearch }

// isDeployOp reports whether the opcode carries a DeployConfig payload.
func isDeployOp(op uint8) bool { return op == OpcodeDBDeploy || op == OpcodeIVFDeploy }

// isMutationOp reports whether the opcode mutates a deployed database —
// the commands the journal records and the queue holds back behind an
// active background-GC flight on the same database.
func isMutationOp(op uint8) bool {
	return op == OpcodeAppend || op == OpcodeDelete || op == OpcodeCompact
}

// resolveSearchOptions folds a command's TargetRecall operand into the
// SearchOptions handed to the execution core — the single normalization
// point of every search. Precedence:
//
//  1. a non-zero Opt.NProbe is kept;
//  2. otherwise a positive TargetRecall (the accuracy operand R of
//     Table 1) is resolved against the database's recorded
//     CalibrateNProbe results — errNotCalibrated if none covers it;
//  3. otherwise the engine's nprobe=1 default applies.
//
// The result is the nprobe the search runs — clamped to [1, nlist] for
// an IVF search, 0 for a brute-force one, which probes nothing — so the
// result cache keys on what ran.
func resolveSearchOptions(db *rdbEntry, cmd *HostCommand) (SearchOptions, error) {
	opt := cmd.Opt
	if opt.NProbe == 0 && cmd.TargetRecall > 0 {
		np, ok := nprobeForRecall(db.calib, cmd.TargetRecall)
		if !ok {
			return opt, fmt.Errorf("%w (database %d, target %.3f)",
				errNotCalibrated, db.id, cmd.TargetRecall)
		}
		opt.NProbe = np
	}
	if cmd.Opcode == OpcodeIVFSearch {
		opt.NProbe = min(max(opt.NProbe, 1), db.lay.nlist())
	} else {
		opt.NProbe = 0
	}
	return opt, nil
}

// HostResponse is the completion the device returns.
//
// A search response's Results (documents included), QueryStats and
// PerShard are windows of output blocks that later commands may reuse
// once the response is released (Release). The contract: no read of them
// after Release; the members of a coalesced dispatch share one set of
// blocks, which is reused only when every member has been released; and
// not releasing is always safe — the blocks are then the caller's for
// good and are garbage-collected like any other value.
type HostResponse struct {
	// Results[i] are the retrieved documents for Queries[i].
	Results [][]DocResult
	// QueryStats[i] are the device events of Queries[i]; feed them to
	// Latency / BatchLatency for per-query and batch service costing.
	QueryStats []QueryStats
	// Stats aggregates the device events of the whole batch.
	Stats QueryStats
	// PerShard, set by sharded hosts only, is each member device's own
	// view of every query's scan-phase events (PerShard[s][i] is shard
	// s's share of query i). The aggregated QueryStats derive from
	// these plus the host's controller tail; feed both to
	// ShardedEngine.Latency / BatchLatency.
	PerShard [][]QueryStats

	// AppendedIDs are the entry ids an OpcodeAppend command assigned
	// (AppendedIDs[i] is Vectors[i]'s id); nil otherwise.
	AppendedIDs []int
	// Wear reports the flash cost of a mutation command (programs,
	// GC reads, block erases, wear skew); nil for non-mutation
	// commands.
	Wear *WearStats

	// out is the search dispatch's output record, nil when the dispatch
	// found none to reuse or the command is not a search.
	out *outRecord
}

// Release hands a search response's output blocks back for reuse by
// later commands, and clears Results, QueryStats and PerShard, which
// must not be read afterwards (nor any copy of their headers). The
// documents are not the blocks': each is a read-only view of flash,
// which a caller that copied a result's Doc slice may keep reading after
// Release, and nobody may write. The blocks are reused once every member
// of the response's coalesced dispatch has been released. Release is
// for the caller that has finished with a response; one that never calls
// it keeps its blocks, and a second call, or a call on a response that
// is not a search's, does nothing.
func (r *HostResponse) Release() {
	if r.Results == nil {
		return
	}
	rec := r.out
	r.Results, r.QueryStats, r.PerShard, r.out = nil, nil, nil, nil
	outPoolUsed.Store(true)
	if rec == nil {
		// The dispatch found no record: give the pool an empty one, which
		// the next dispatch that takes it fills and its responses recycle.
		outPool.Put(new(outRecord))
		return
	}
	if rec.refs.Add(-1) == 0 {
		outPool.Put(rec)
	}
}

// ShardStats extracts one query's per-shard stats column
// (PerShard[s][qi] for every shard s) — the shape
// ShardedEngine.Latency consumes. It returns nil for responses from a
// non-sharded host.
func (r *HostResponse) ShardStats(qi int) []QueryStats {
	if r.PerShard == nil {
		return nil
	}
	col := make([]QueryStats, len(r.PerShard))
	for s := range r.PerShard {
		col[s] = r.PerShard[s][qi]
	}
	return col
}
