package main

// The model pass and everything that touches the model clock. This is
// the only file that calls the hosts' timing models (Latency /
// BatchLatency and their sharded variants).

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/vecmath"
)

// Scale rules of experiments.LoadWorkload, at the paper's NQ size: the
// functional run is magnified to NQ's entry count and the paper's
// nlist = 16384 when costed.
const (
	paperNList   = 16384
	survivorRate = 0.01 // full-scale distance-filter pass rate (Sec 4.3.3)
)

func modelScales(n, nlist int) (ivf, bf reis.Scale) {
	paperN := float64(dataset.Catalog["NQ"].PaperEntries)
	scaleFine := paperN / float64(n)
	scaleCoarse := float64(paperNList) / float64(nlist)
	clusterRatio := (paperN / paperNList) / (float64(n) / float64(nlist))
	ivf = reis.Scale{Fine: clusterRatio * math.Sqrt(math.Max(1, scaleCoarse)), Coarse: scaleCoarse, SurvivorRate: survivorRate}
	bf = reis.Scale{Fine: scaleFine, Coarse: scaleCoarse, SurvivorRate: survivorRate}
	return ivf, bf
}

// replayArrivals is the length of each paced virtual-time run: the
// priced command stream is cycled under one long arrival schedule, which
// puts about 1300 samples beyond p99 where a single pass over the stream
// would put 20.
const replayArrivals = 1 << 17

// sketchAccuracy is the relative error of the modelled quantiles; finer
// than the package default so a 1% regression bound is not inside the
// sketch's own bucket width.
const sketchAccuracy = 0.001

// pricer prices responses with the timing model of the host that served
// them.
type pricer struct {
	eng     *reis.Engine
	db      *reis.Database
	sh      *reis.ShardedEngine
	ivf, bf reis.Scale
}

func newPricer(s *stack, c *corpus) (*pricer, error) {
	p := &pricer{}
	p.ivf, p.bf = modelScales(c.sz.N, len(c.cents))
	if sh := s.sharded(0); sh != nil {
		p.sh = sh
		return p, nil
	}
	p.eng = s.engine(0)
	db, err := p.eng.DB(dbID)
	if err != nil {
		return nil, err
	}
	p.db = db
	return p, nil
}

func (p *pricer) scale(flat bool) reis.Scale {
	if flat {
		return p.bf
	}
	return p.ivf
}

// query prices one query standalone.
func (p *pricer) query(st reis.QueryStats, perShard []reis.QueryStats, flat bool) (reis.Breakdown, error) {
	if p.sh != nil {
		return p.sh.Latency(dbID, st, perShard, p.scale(flat))
	}
	return p.eng.Latency(p.db, st, p.scale(flat)), nil
}

// batch prices one coalesced dispatch.
func (p *pricer) batch(sts []reis.QueryStats, perShard [][]reis.QueryStats, flat bool) (reis.BatchBreakdown, error) {
	if p.sh != nil {
		return p.sh.BatchLatency(dbID, sts, perShard, p.scale(flat))
	}
	return p.eng.BatchLatency(p.db, sts, p.scale(flat)), nil
}

// digest is the part of a query's result the checks compare: ids,
// distances and a hash of the document bytes.
type digest struct {
	ids     []int
	dists   []float32
	docHash uint64
}

func digestOf(res []reis.DocResult) digest {
	d := digest{ids: make([]int, len(res)), dists: make([]float32, len(res))}
	h := fnv.New64a()
	for i, r := range res {
		d.ids[i], d.dists[i] = r.ID, r.Dist
		h.Write(r.Doc)
	}
	d.docHash = h.Sum64()
	return d
}

func (d digest) equal(o digest) bool {
	return d.docHash == o.docHash && slices.Equal(d.ids, o.ids) && slices.Equal(d.dists, o.dists)
}

// pricedCmd is one search command of the model pass with what the
// pricer needs.
type pricedCmd struct {
	flat bool
	// key groups commands the live dispatcher could coalesce (opcode and
	// resolved options); the replay prices a dispatch run by run.
	key      string
	sts      []reis.QueryStats
	perShard [][]reis.QueryStats
}

// modelOutcome is everything the model pass yields.
type modelOutcome struct {
	commands, queries int
	attempted, failed int
	// expect[i] are the reference digests of schedule op i's queries
	// (nil for churn rounds).
	expect [][]digest

	modelQPS, p50Ms, p99Ms, sloQPS, mjPerQuery, recall float64

	// Attribution.
	stats       reis.QueryStats // summed over every query
	phase       reis.Breakdown  // summed per-query breakdowns
	busy        reis.BatchBreakdown
	meanBatch   float64
	maxBacklog  int
	imbalance   float64 // mean over queries of max/mean per-shard fine pages
	rounds      []roundResult
	journalB    int
	payloadB    int
	replayMs    float64
	probesEqual bool
}

// liveSet mirrors the database contents under churn so recall keeps an
// exact ground truth: id -> vector for every live entry.
type liveSet struct {
	vecs  [][]float32 // indexed by id; nil when dead or never issued
	dirty bool        // a mutation has been applied
}

func newLiveSet(c *corpus) *liveSet {
	return &liveSet{vecs: slices.Clone(c.data.Vectors)}
}

func (l *liveSet) apply(r roundResult) {
	l.dirty = true
	for i, id := range r.appended {
		for id >= len(l.vecs) {
			l.vecs = append(l.vecs, nil)
		}
		l.vecs[id] = r.burst.vectors[i]
	}
	for _, id := range r.deleted {
		l.vecs[id] = nil
	}
}

// topK is the exact top-k of q over the live entries, ties to the lower
// id (dataset.ExactTopK's order).
func (l *liveSet) topK(q []float32, k int) []int {
	type cand struct {
		id   int
		dist float32
	}
	cands := make([]cand, 0, len(l.vecs))
	for id, v := range l.vecs {
		if v != nil {
			cands = append(cands, cand{id, vecmath.L2Squared(q, v)})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	out := make([]int, min(k, len(cands)))
	for i := range out {
		out[i] = cands[i].id
	}
	return out
}

// unpruned is the reference's version of a search: same command, Prune
// off.
func unpruned(cmd reis.HostCommand) reis.HostCommand {
	cmd.Opt.Prune = false
	return cmd
}

// runModelPass issues the first n schedule ops in order through
// Group.Do from one submitter, checks every search against a lone
// uncached, unpruned, unsharded reference engine running the same
// script, measures recall against exact ground truth, and prices the
// kept responses on the model clock.
func runModelPass(w *workload, c *corpus, seed uint64, ops []op, check bool, st *setupTimes, wd *watchdog) (*modelOutcome, error) {
	s, err := deployStack(w, c, seed, stackOptions{}, wd)
	if err != nil {
		return nil, err
	}
	defer s.close()
	st.deploy = append(st.deploy, s.deployS)
	pr, err := newPricer(s, c)
	if err != nil {
		return nil, err
	}

	var ref *reis.Engine
	var refChurn churnState
	if check {
		refW := *w
		refW.Shards, refW.PinShare = 1, 0
		h, err := newHost(&refW, c, deviceConfig(&refW, c))
		if err != nil {
			return nil, err
		}
		ref = h.(*reis.Engine)
		defer ref.Close()
		if _, err := ref.Submit(deployCmd(c)); err != nil {
			return nil, fmt.Errorf("reference deploy: %w", err)
		}
		wd.tick()
	}

	out := &modelOutcome{expect: make([][]digest, len(ops)), probesEqual: true}
	live := newLiveSet(c)
	var cmds []pricedCmd
	var recallSum float64
	var recallN, dirtySeq int
	var imbalanceSum float64
	var imbalanceN int
	ctx := context.Background()
	for i := range ops {
		o := &ops[i]
		out.attempted++
		if o.mutate {
			rr, err := s.groupRound(ctx, c)
			if err != nil {
				return nil, err
			}
			if check {
				refRR, err := refChurn.churnRound(c, ref.Submit)
				if err != nil {
					return nil, fmt.Errorf("reference: %w", err)
				}
				wd.tick()
				if !slices.Equal(rr.appended, refRR.appended) {
					out.failed++
				}
			}
			live.apply(rr)
			out.rounds = append(out.rounds, rr)
			for _, v := range rr.burst.vectors {
				out.payloadB += 4 * len(v)
			}
			for _, d := range rr.burst.docs {
				out.payloadB += len(d)
			}
			continue
		}
		resp, err := s.group.Do(ctx, o.cmd)
		wd.tick()
		if err != nil {
			if errors.Is(err, reis.ErrQueueFull) {
				out.failed++
				continue
			}
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		flat := o.cmd.Opcode == reis.OpcodeSearch
		out.expect[i] = make([]digest, len(resp.Results))
		for qi, res := range resp.Results {
			out.expect[i][qi] = digestOf(res)
		}
		if check {
			want, err := ref.Submit(unpruned(o.cmd))
			wd.tick()
			if err != nil {
				return nil, fmt.Errorf("reference op %d: %w", i, err)
			}
			for qi := range resp.Results {
				if !out.expect[i][qi].equal(digestOf(want.Results[qi])) {
					out.failed++
					break
				}
			}
		}
		for qi, qidx := range o.queries {
			gt := c.data.GroundTruth[qidx]
			if live.dirty {
				// Exact ground truth over the mutated corpus costs a full
				// scan; every fourth query is enough for a mean.
				if dirtySeq++; dirtySeq%4 != 0 {
					continue
				}
				gt = live.topK(c.data.Queries[qidx], topK)
			}
			recallSum += dataset.Recall([][]int{gt}, [][]int{out.expect[i][qi].ids}, topK)
			recallN++
		}
		for qi, st := range resp.QueryStats {
			out.stats.Add(st)
			bd, err := pr.query(st, resp.ShardStats(qi), flat)
			if err != nil {
				return nil, err
			}
			out.phase.IBC += bd.IBC
			out.phase.Coarse += bd.Coarse
			out.phase.Fine += bd.Fine
			out.phase.Rerank += bd.Rerank
			out.phase.Docs += bd.Docs
			out.phase.Total += bd.Total
			out.phase.EnergyJ += bd.EnergyJ
			if resp.PerShard != nil {
				maxP, sumP := 0, 0
				for _, shardSts := range resp.PerShard {
					p := shardSts[qi].FinePages
					sumP += p
					maxP = max(maxP, p)
				}
				if sumP > 0 {
					imbalanceSum += float64(maxP) * float64(len(resp.PerShard)) / float64(sumP)
					imbalanceN++
				}
			}
		}
		out.queries += len(resp.QueryStats)
		cmds = append(cmds, pricedCmd{
			flat: flat, key: fmt.Sprintf("%d/%d/%v", o.cmd.Opcode, o.cmd.Opt.NProbe, o.cmd.Opt.Prune),
			sts: resp.QueryStats, perShard: resp.PerShard,
		})
	}
	out.commands = len(cmds)
	if out.commands == 0 {
		return nil, errors.New("model pass priced no command")
	}
	out.recall = ratio(recallSum, float64(recallN))
	out.imbalance = ratio(imbalanceSum, float64(imbalanceN))
	out.mjPerQuery = out.phase.EnergyJ / float64(out.queries) * 1e3

	if err := out.replay(w, pr, cmds, seed, wd); err != nil {
		return nil, err
	}
	if len(out.rounds) > 0 {
		if err := out.checkDurability(w, c, s); err != nil {
			return nil, err
		}
		if !out.probesEqual {
			out.failed++
		}
	}
	return out, nil
}

// replay runs the priced stream through the virtual-time dispatcher:
// saturation for model_qps, the frozen arrival rate for p50/p99, and the
// frozen rate ladder for model_slo_qps.
func (out *modelOutcome) replay(w *workload, pr *pricer, cmds []pricedCmd, seed uint64, wd *watchdog) error {
	var costErr error
	var record *reis.BatchBreakdown
	// A dispatch's price depends only on where in the (cycled) stream it
	// starts and how many commands it takes, so each (start, size) pair is
	// priced once; that is what makes the long replays below affordable.
	memo := make(map[[2]int]time.Duration)
	cost := func(first, n int) time.Duration {
		at := [2]int{first % len(cmds), n}
		if d, ok := memo[at]; ok && record == nil {
			return d
		}
		var total time.Duration
		for i := 0; i < n; {
			head := &cmds[(first+i)%len(cmds)]
			sts := slices.Clone(head.sts)
			perShard := cloneShards(head.perShard)
			j := i + 1
			for ; j < n; j++ {
				next := &cmds[(first+j)%len(cmds)]
				if next.key != head.key {
					break
				}
				sts = append(sts, next.sts...)
				for s := range perShard {
					perShard[s] = append(perShard[s], next.perShard[s]...)
				}
			}
			bb, err := pr.batch(sts, perShard, head.flat)
			if err != nil && costErr == nil {
				costErr = err
			}
			if record != nil {
				record.PlaneBusy += bb.PlaneBusy
				record.ChannelBusy += bb.ChannelBusy
				record.CoreBusy += bb.CoreBusy
				record.Makespan += bb.Makespan
				record.EnergyJ += bb.EnergyJ
			}
			total += bb.Makespan
			i = j
		}
		memo[at] = total
		return total
	}
	perCmd := float64(out.queries) / float64(out.commands)
	// A replay is pure computation, but a long one: each counts as an op
	// for the watchdog.
	simulate := func(arrivals []time.Duration) reis.LoadResult {
		res := reis.SimulateLoad(arrivals, w.Depth, cost, sketchAccuracy)
		wd.tick()
		return res
	}

	record = &out.busy
	sat := simulate(make([]time.Duration, len(cmds)))
	record = nil
	out.modelQPS = sat.ModelQPS * perCmd

	n := replayArrivals
	arrSeed := subSeed(seed, seedArrivals)
	rate := w.RateQPS
	if rate <= 0 {
		// Uncalibrated (a new workload, or the smoke corpus): pace at 70%
		// of this run's own saturation point.
		rate = 0.7 * sat.ModelQPS
	}
	fixed := simulate(reis.PoissonArrivals(n, rate, arrSeed))
	out.p50Ms = float64(fixed.P50) / float64(time.Millisecond)
	out.p99Ms = float64(fixed.P99) / float64(time.Millisecond)
	out.meanBatch, out.maxBacklog = fixed.MeanBatch, fixed.MaxBacklog

	// The unloaded median (1% of saturation) is what the SLO limit was
	// calibrated from; it is logged so a recalibration can read it off.
	unloaded := simulate(reis.PoissonArrivals(len(cmds), sat.ModelQPS/100, arrSeed))
	rates := w.sloRates()
	limit := time.Duration(w.SLOLimitMs * float64(time.Millisecond))
	if w.LadderBaseQPS <= 0 || limit <= 0 {
		// Uncalibrated: ladder centred on 70% of saturation, limit at 3x
		// the unloaded median.
		base := 0.7 * sat.ModelQPS / math.Pow(sloStepRatio, sloSteps/2)
		for i := range rates {
			rates[i] = base * math.Pow(sloStepRatio, float64(i))
		}
		limit = 3 * unloaded.P50
	}
	logf("%s model: saturation %.1f cmd/s at depth %d, unloaded p50 %.3f ms; paced at %.1f cmd/s, ladder from %.1f cmd/s, p99 limit %.3f ms",
		w.Name, sat.ModelQPS, w.Depth, float64(unloaded.P50)/float64(time.Millisecond), rate, rates[0], float64(limit)/float64(time.Millisecond))
	out.sloQPS = sloRate(rates, limit, 4*w.Depth, func(r float64) (time.Duration, int) {
		res := simulate(reis.PoissonArrivals(n, r, arrSeed))
		return res.P99, res.MaxBacklog
	}) * perCmd
	return costErr
}

// sloRate walks the ascending rate ladder and returns the highest rate
// that meets the SLO — modelled p99 within limit and backlog within
// maxBacklog. Between the last rate that meets the limit and the first
// that misses it on p99, the crossing is placed by linear interpolation
// of p99, so the metric moves with p99 instead of jumping a whole 10%
// step when a run lands near a step boundary. When not even the lowest
// rate meets the limit the answer is one step below the ladder, which
// keeps the metric non-zero and still ordered.
func sloRate(rates []float64, limit time.Duration, maxBacklog int, at func(rate float64) (p99 time.Duration, backlog int)) float64 {
	var prevP99 time.Duration
	for i, r := range rates {
		p99, backlog := at(r)
		if p99 <= limit && backlog <= maxBacklog {
			prevP99 = p99
			continue
		}
		if i == 0 {
			return r / sloStepRatio
		}
		if p99 > limit && p99 > prevP99 {
			return rates[i-1] + (r-rates[i-1])*float64(limit-prevP99)/float64(p99-prevP99)
		}
		return rates[i-1]
	}
	return rates[len(rates)-1]
}

func cloneShards(ps [][]reis.QueryStats) [][]reis.QueryStats {
	if ps == nil {
		return nil
	}
	out := make([][]reis.QueryStats, len(ps))
	for s := range ps {
		out[s] = slices.Clone(ps[s])
	}
	return out
}

// journaled is the crash-recovery surface of a host.
type journaled interface {
	JournalBytes() []byte
	ReplayJournal([]byte) error
	Submit(reis.HostCommand) (reis.HostResponse, error)
}

// checkDurability replays replica 0's journal into a freshly deployed
// host and requires it to answer a probe set exactly as the journaling
// replica does.
func (out *modelOutcome) checkDurability(w *workload, c *corpus, s *stack) error {
	src, ok := s.hosts[0].(journaled)
	if !ok {
		return errors.New("host has no journal")
	}
	journal := src.JournalBytes()
	out.journalB = len(journal)
	h, err := newHost(w, c, s.cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	fresh := h.(journaled)
	if _, err := fresh.Submit(deployCmd(c)); err != nil {
		return fmt.Errorf("recovery deploy: %w", err)
	}
	s.wd.tick()
	t0 := time.Now()
	if err := fresh.ReplayJournal(journal); err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	out.replayMs = float64(time.Since(t0)) / float64(time.Millisecond)
	s.wd.tick()
	for q := 0; q < min(32, c.sz.Queries); q++ {
		cmd := ivfCmd(c, []int{q}, w.NProbe, false)
		a, err := src.Submit(cmd)
		if err != nil {
			return err
		}
		b, err := fresh.Submit(cmd)
		if err != nil {
			return err
		}
		if !digestOf(a.Results[0]).equal(digestOf(b.Results[0])) {
			out.probesEqual = false
		}
		s.wd.tick()
	}
	return nil
}
