package experiments

import (
	"fmt"
	"iter"
	"runtime"
	"time"

	"reis/internal/reis"
	"reis/internal/ssd"
)

// This file is the measuring rig every sweep and figure runner stands
// on. A measurement is three steps, each written once for a host over
// N ≥ 1 devices: deploy (NewSetup / deploy), serve a command under the
// host-clock bracket (serve / measure), and price what it returned on
// the model clock (price / priceBatch / tail). The determinism contract
// — one batched command returns, bit for bit, the per-query rows the
// same queries produce under any other admission (pinned by
// TestEquivalenceLattice in internal/reis) — is what lets
// a sweep serve its query set once and price every batch size, queue
// depth and arrival rate from those rows.

// reisHost is the part of a REIS host the rig drives; *reis.Engine and
// *reis.ShardedEngine both provide it.
type reisHost interface {
	Submit(reis.HostCommand) (reis.HostResponse, error)
	NewQueue(reis.QueueConfig) (*reis.Queue, error)
	CalibrateNProbe(dbID int, queries [][]float32, groundTruth [][]int, k int, target float64) (int, error)
	Close() error
}

// Setup is a REIS host over one or more devices with one database
// deployed as id 1. Close releases its background workers (plane
// pools, queue pairs); runners that build setups in a loop range over
// setups, which closes each before building the next.
type Setup struct {
	reisHost
	// Cfg and Devices are the host's device configuration (as asked for;
	// the deployed devices carry a smaller per-plane capacity) and count.
	Cfg     ssd.Config
	Devices int
	// W is the catalog workload behind the deployment; nil for the
	// sweeps that deploy a synthetic corpus (prune, skew).
	W *Workload

	// Engine and DB are the host and its database on one device, where
	// the single-device-only models (ASICLatency, EmbPerPage) live;
	// sharded is the host above one. Exactly one of the two is set.
	Engine  *reis.Engine
	DB      *reis.Database
	sharded *reis.ShardedEngine
}

// NewSetup deploys the workload on a fresh host of n devices of the
// given configuration and options.
func NewSetup(cfg ssd.Config, n int, w *Workload, opts reis.Options) (*Setup, error) {
	s, err := deploy(cfg, n, opts, reis.DeployConfig{
		ID: 1, Vectors: w.Data.Vectors, Docs: w.Data.Docs,
		DocSlotBytes: docSlot(w.Data), Centroids: w.Centroids, Assign: w.Assign,
	})
	if err != nil {
		return nil, err
	}
	s.W = w
	return s, nil
}

// paperSSDs are the two evaluated device configurations (Table 3).
var paperSSDs = []ssd.Config{ssd.SSD1(), ssd.SSD2()}

// setups deploys w on a fresh host of every given configuration and
// device count in turn and hands each to the loop body. A setup is
// closed when the body is done with it: before the next one is built,
// and when the body leaves the loop early.
func setups(w *Workload, opts reis.Options, cfgs []ssd.Config, counts ...int) iter.Seq2[*Setup, error] {
	return func(yield func(*Setup, error) bool) {
		for _, cfg := range cfgs {
			for _, n := range counts {
				s, err := NewSetup(cfg, n, w, opts)
				if err != nil {
					yield(nil, err)
					return
				}
				more := yield(s, nil)
				s.Close()
				if !more {
					return
				}
			}
		}
	}
}

// deploy builds a host of n devices and IVF-deploys dep on it through
// the host command interface.
func deploy(cfg ssd.Config, n int, opts reis.Options, dep reis.DeployConfig) (*Setup, error) {
	s := &Setup{Cfg: cfg, Devices: n}
	// Shrink per-plane capacity to what the corpus needs (keeps the
	// functional simulation light without touching parallelism). Eight
	// blocks per plane leave room for the four block-aligned regions
	// of a deployment; WithCapacityFor grows it if the data demands.
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	need := int64(len(dep.Vectors)) * int64(len(dep.Vectors[0])*3)
	capacity := need*4 + 64<<20
	var err error
	if n == 1 {
		s.Engine, err = reis.New(cfg, capacity, opts)
		s.reisHost = s.Engine
	} else {
		s.sharded, err = reis.NewSharded(cfg, n, capacity, opts)
		s.reisHost = s.sharded
	}
	if err != nil {
		return nil, err
	}
	if _, err := s.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &dep}); err != nil {
		s.Close()
		return nil, err
	}
	if n == 1 {
		if s.DB, err = s.Engine.DB(dep.ID); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// HostCost is the host-clock columns of a sweep row: what serving cost
// the simulator's own host per query served — how fast this
// reproduction executes, not a paper quantity. WallQPS is wall-clock
// throughput (on a single-CPU host it does not improve with device
// count: the simulation does the same total work); NsPerOp, AllocsPerOp
// and BytesPerOp are wall-clock nanoseconds, heap allocations and heap
// bytes, the quantities the BENCH_*.json trajectory tracks.
type HostCost struct {
	WallQPS     float64 `gate:"wall"`
	NsPerOp     float64 `gate:"report"`
	AllocsPerOp float64 `gate:"allocs"`
	BytesPerOp  float64 `gate:"report"`
}

// measure runs f, which serves n queries, under the host-clock bracket.
func measure(n int, f func() error) (HostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	q := float64(n)
	return HostCost{
		WallQPS:     q / wall.Seconds(),
		NsPerOp:     float64(wall.Nanoseconds()) / q,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / q,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / q,
	}, err
}

// serve executes one command under the host-clock bracket.
func (s *Setup) serve(cmd reis.HostCommand) (reis.HostResponse, HostCost, error) {
	var resp reis.HostResponse
	cost, err := measure(len(cmd.Queries), func() (err error) {
		resp, err = s.Submit(cmd)
		return err
	})
	return resp, cost, err
}

// pass is the model-clock input of a run of queries, one row per
// QueryStats slice a response carries, every row in query order: row 0
// is the queries' aggregated stats and, above one device, row 1+d is
// device d's scan share of each (HostResponse.PerShard).
type pass [][]reis.QueryStats

func passOf(resp reis.HostResponse) pass {
	return append(pass{resp.QueryStats}, resp.PerShard...)
}

// window is queries [lo, hi) of the pass.
func (p pass) window(lo, hi int) pass {
	w := make(pass, len(p))
	for r, row := range p {
		w[r] = row[lo:hi]
	}
	return w
}

// cycled is the pass repeated to n queries.
func (p pass) cycled(n int) pass {
	c := make(pass, len(p))
	for r, row := range p {
		c[r] = make([]reis.QueryStats, n)
		for i := range c[r] {
			c[r][i] = row[i%len(row)]
		}
	}
	return c
}

// price is the timing model's standalone latency of one query;
// perShard is its per-device column (HostResponse.ShardStats), nil on
// one device. price and priceBatch are the only callers of the hosts'
// timing models and the only place that knows their two shapes. The
// sharded shape can fail on a malformed operand; the operands are the
// host's own response for its own database, so here that is a bug in
// the rig.
func (s *Setup) price(st reis.QueryStats, perShard []reis.QueryStats, sc reis.Scale) reis.Breakdown {
	if s.sharded == nil {
		return s.Engine.Latency(s.DB, st, sc)
	}
	b, err := s.sharded.Latency(1, st, perShard, sc)
	if err != nil {
		panic(err)
	}
	return b
}

// priceBatch is the timing model's service estimate of the pass served
// as one coalesced batch.
func (s *Setup) priceBatch(p pass, sc reis.Scale) reis.BatchBreakdown {
	if s.sharded == nil {
		return s.Engine.BatchLatency(s.DB, p[0], sc)
	}
	bb, err := s.sharded.BatchLatency(1, p[0], p[1:], sc)
	if err != nil {
		panic(err)
	}
	return bb
}

// ModelShares says where a sweep row's model clock went — the columns
// that name the phase and the resource a model change moved. The phase
// shares split the summed standalone latency of the row's queries
// (they sum to 1); the busy shares are each contended resource's
// occupancy over the summed makespan of the row's batches, and
// Bottleneck names the largest. Report-only in benchdiff, which notes
// a busy share above 1.
type ModelShares struct {
	IBCShare    float64 `gate:"report"`
	CoarseShare float64 `gate:"report"`
	FineShare   float64 `gate:"report"`
	RerankShare float64 `gate:"report"`
	DocsShare   float64 `gate:"report"`

	PlaneBusyShare   float64 `gate:"busy"`
	ChannelBusyShare float64 `gate:"busy"`
	CoreBusyShare    float64 `gate:"busy"`
	Bottleneck       string  `gate:"report"` // "plane" | "channel" | "core"
}

// clockUse accumulates the priced batches behind a row's ModelShares.
type clockUse struct {
	phase reis.Breakdown
	busy  reis.BatchBreakdown
}

// use prices the pass as one coalesced batch, like priceBatch, and adds
// it and its queries' standalone breakdowns to u.
func (s *Setup) use(u *clockUse, p pass, sc reis.Scale) reis.BatchBreakdown {
	col := make([]reis.QueryStats, len(p)-1)
	for qi, st := range p[0] {
		for d := range col {
			col[d] = p[1+d][qi]
		}
		addBreakdown(&u.phase, s.price(st, col, sc))
	}
	bb := s.priceBatch(p, sc)
	u.busy.PlaneBusy += bb.PlaneBusy
	u.busy.ChannelBusy += bb.ChannelBusy
	u.busy.CoreBusy += bb.CoreBusy
	u.busy.Makespan += bb.Makespan
	return bb
}

// addBreakdown adds one query's phases, total and energy to sum.
func addBreakdown(sum *reis.Breakdown, b reis.Breakdown) {
	sum.IBC += b.IBC
	sum.Coarse += b.Coarse
	sum.Fine += b.Fine
	sum.Rerank += b.Rerank
	sum.Docs += b.Docs
	sum.Total += b.Total
	sum.EnergyJ += b.EnergyJ
}

func (u clockUse) shares() ModelShares {
	of := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	m := ModelShares{
		IBCShare:         of(u.phase.IBC, u.phase.Total),
		CoarseShare:      of(u.phase.Coarse, u.phase.Total),
		FineShare:        of(u.phase.Fine, u.phase.Total),
		RerankShare:      of(u.phase.Rerank, u.phase.Total),
		DocsShare:        of(u.phase.Docs, u.phase.Total),
		PlaneBusyShare:   of(u.busy.PlaneBusy, u.busy.Makespan),
		ChannelBusyShare: of(u.busy.ChannelBusy, u.busy.Makespan),
		CoreBusyShare:    of(u.busy.CoreBusy, u.busy.Makespan),
		Bottleneck:       "plane",
	}
	if u.busy.ChannelBusy > max(u.busy.PlaneBusy, u.busy.CoreBusy) {
		m.Bottleneck = "channel"
	} else if u.busy.CoreBusy > u.busy.PlaneBusy {
		m.Bottleneck = "core"
	}
	return m
}

// sharesAt is the ModelShares of the pass served in batches of batch
// queries — the admission a row's ModelQPS was priced at.
func (s *Setup) sharesAt(p pass, sc reis.Scale, batch int) ModelShares {
	var u clockUse
	for lo, n := 0, len(p[0]); lo < n; lo += batch {
		s.use(&u, p.window(lo, min(lo+batch, n)), sc)
	}
	return u.shares()
}

// tail models what one command experiences while the queue is loaded:
// loadCommands single-query commands — the pass's queries, cycled — are
// replayed through the virtual-time model of a depth-deep queue pair,
// first all at once (the saturation throughput at this depth), then
// under the seeded Poisson schedule at load times that rate. Every
// coalesced group is priced as a batch, so the result is a pure
// function of the pass: deterministic across runs, hosts and
// GOMAXPROCS.
func (s *Setup) tail(p pass, sc reis.Scale, depth int, load float64) reis.LoadResult {
	stream := p.cycled(loadCommands)
	cost := func(first, n int) time.Duration {
		return s.priceBatch(stream.window(first, first+n), sc).Makespan
	}
	sat := reis.SimulateLoad(make([]time.Duration, loadCommands), depth, cost, 0)
	rate := load * sat.ModelQPS
	res := reis.SimulateLoad(reis.PoissonArrivals(loadCommands, rate, loadSeed), depth, cost, 0)
	res.Rate = rate
	res.SaturationQPS = sat.ModelQPS
	return res
}

// sweepRecall is the Recall@10 operating point of the post-paper sweeps.
const sweepRecall = 0.94

// sweepIVF calibrates nprobe for sweepRecall and returns the IVF_Search
// command that serves the workload's whole query set there, with the
// Mode label of the rows it produces.
func (s *Setup) sweepIVF() (cmd reis.HostCommand, mode string, err error) {
	nprobe, err := s.NProbeFor(sweepRecall)
	cmd = reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: s.W.Data.Queries, K: 10,
		Opt: reis.SearchOptions{NProbe: nprobe},
	}
	return cmd, fmt.Sprintf("IVF@np%d", nprobe), err
}

// ms converts a modeled duration to milliseconds for row reporting.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// RunBF executes every workload query as an in-storage brute-force
// search, admitted as one batched Search host command, and returns the
// mean per-query latency breakdown at paper scale plus the mean stats.
func (s *Setup) RunBF(k int) (reis.Breakdown, reis.QueryStats, error) {
	return s.run(k, s.W.BF, reis.OpcodeSearch, reis.SearchOptions{})
}

// RunIVF executes every query at the given nprobe, batched.
func (s *Setup) RunIVF(k, nprobe int) (reis.Breakdown, reis.QueryStats, error) {
	return s.run(k, s.W.IVF, reis.OpcodeIVFSearch, reis.SearchOptions{NProbe: nprobe})
}

// RunIVFAt executes every query at the nprobe calibrated for the
// Recall@10 target.
func (s *Setup) RunIVFAt(k int, target float64) (reis.Breakdown, reis.QueryStats, error) {
	nprobe, err := s.NProbeFor(target)
	if err != nil {
		return reis.Breakdown{}, reis.QueryStats{}, err
	}
	return s.RunIVF(k, nprobe)
}

// run serves the workload's query set as one host command and returns
// the per-field mean of the queries' standalone breakdowns (AvgWatts is
// mean energy over mean time) and of their stats.
func (s *Setup) run(k int, sc reis.Scale, op uint8, opt reis.SearchOptions) (reis.Breakdown, reis.QueryStats, error) {
	resp, err := s.Submit(reis.HostCommand{
		Opcode: op, DBID: 1, Queries: s.W.Data.Queries, K: k, Opt: opt,
	})
	if err != nil {
		return reis.Breakdown{}, reis.QueryStats{}, err
	}
	var b reis.Breakdown
	for qi, st := range resp.QueryStats {
		addBreakdown(&b, s.price(st, resp.ShardStats(qi), sc))
	}
	n := len(resp.QueryStats)
	d := time.Duration(n)
	b.IBC, b.Coarse, b.Fine, b.Rerank, b.Docs = b.IBC/d, b.Coarse/d, b.Fine/d, b.Rerank/d, b.Docs/d
	b.Total = b.IBC + b.Coarse + b.Fine + b.Rerank + b.Docs
	b.EnergyJ /= float64(n)
	b.AvgWatts = b.EnergyJ / b.Total.Seconds()
	// resp.Stats is the per-query stats, summed.
	return b, meanStats(resp.Stats, n), nil
}

func meanStats(agg reis.QueryStats, n int) reis.QueryStats {
	if n <= 1 {
		return agg
	}
	agg.CoarseWaves /= n
	agg.FineWaves /= n
	agg.CoarsePages /= n
	agg.FinePages /= n
	agg.EntriesScanned /= n
	agg.Survivors /= n
	agg.TTLBytes /= int64(n)
	agg.RerankCount /= n
	agg.RerankPages /= n
	agg.RerankWaves /= n
	agg.DocPages /= n
	agg.DocBytes /= int64(n)
	agg.IBCBroadcasts /= n
	agg.IBCLoads /= n
	agg.IBCTotalLoads /= n
	agg.SelectInput /= n
	agg.SortedEntries /= n
	agg.CoarseEntries /= n
	agg.CoarseSurvivors /= n
	agg.PrunedPages /= n
	agg.AbortedWaves /= n
	agg.PrunedSlots /= n
	agg.CachedPages /= n
	agg.CachedSlots /= n
	agg.ResultCacheHits /= n
	return agg
}

// NProbeFor calibrates nprobe for a Recall@10 target on this setup.
func (s *Setup) NProbeFor(target float64) (int, error) {
	return s.CalibrateNProbe(1, s.W.Data.Queries, s.W.Data.GroundTruth, 10, target)
}
