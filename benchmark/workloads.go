package main

import (
	"math"
	"sort"

	"reis/internal/reis"
	"reis/internal/xrand"
)

// dbID is the database every workload deploys and addresses.
const dbID = 1

// topK is the k of every search; recall is Recall@10.
const topK = 10

// sloSteps is the length of each workload's fixed arrival-rate ladder;
// consecutive rates are sloStepRatio apart.
const (
	sloSteps     = 12
	sloStepRatio = 1.1
)

// workload is one traffic mix and the stack it runs on. The calibration
// fields (RateQPS, LadderBaseQPS, SLOLimitMs) are absolute numbers taken
// once on the commit that defined the benchmark and frozen here, so a
// later change is measured against fixed rates and a fixed limit rather
// than against its own saturation point.
type workload struct {
	Name string

	// Stack.
	Replicas, Shards int
	// Depth is the routed queue depth and the coalescing bound of the
	// virtual-time replay.
	Depth int
	// HTTP: searches enter through GET /search with one keep-alive
	// client per CPU; otherwise InFlight goroutines call Group.Do.
	HTTP     bool
	InFlight int
	// NProbe is the gateway's nprobe (HTTP workloads).
	NProbe int
	// PinShare sizes CacheDRAMBytes so hot-cluster pins can hold this
	// share of the corpus' cluster pages (0: caching tier off).
	PinShare float64
	// OverprovisionPct and SmallBlocks configure the device for online
	// mutation (churn_mixed only; see README.md for why the geometry
	// differs there).
	OverprovisionPct int
	SmallBlocks      bool

	// Calibration, in commands per second of modelled time.
	RateQPS       float64
	LadderBaseQPS float64
	SLOLimitMs    float64

	// schedule returns the first n ops of the workload's seeded op
	// sequence.
	schedule func(c *corpus, seed uint64, n int) []op
}

// op is one entry of a workload's schedule.
type op struct {
	// cmd is the search as Group.Do takes it. HTTP ops carry it too: it
	// is the command the gateway builds for the request, which lets the
	// reference engine and the lower ladder rungs run the same op.
	cmd reis.HostCommand
	// query is the held-out query index of a single-query search (the
	// ?q= operand, and the ground-truth row); -1 for multi-query ops.
	query int
	// queries are the held-out query indexes of every query in cmd.
	queries []int
	// http marks a search issued as GET /search.
	http bool
	// mutate marks a churn round (append, delete, sometimes compact);
	// the runner builds its commands from the round number.
	mutate bool
}

// churnEvery is the schedule position period of churn rounds, and
// churnCompactEvery the round period of compactions.
const (
	churnEvery        = 64
	churnCompactEvery = 8
)

// hotSet is the size of the Zipf-ranked hot query set.
const hotSet = 256

func ivfCmd(c *corpus, qs []int, nprobe int, prune bool) reis.HostCommand {
	return reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: dbID, K: topK,
		Queries: queryVectors(c, qs),
		Opt:     reis.SearchOptions{NProbe: min(nprobe, c.sz.Clusters), Prune: prune},
	}
}

func flatCmd(c *corpus, qs []int, prune bool) reis.HostCommand {
	return reis.HostCommand{
		Opcode: reis.OpcodeSearch, DBID: dbID, K: topK,
		Queries: queryVectors(c, qs),
		Opt:     reis.SearchOptions{Prune: prune},
	}
}

func queryVectors(c *corpus, qs []int) [][]float32 {
	out := make([][]float32, len(qs))
	for i, q := range qs {
		out[i] = c.data.Queries[q]
	}
	return out
}

// zipfQueries returns count hot-set queries whose frequencies follow a
// Zipf s=1.1 law over the corpus' hot set exactly (rank r appears
// count*p(r) times, largest remainders rounding up), in an order drawn
// from rng. Fixing the frequencies and seeding only the order is plain
// variance reduction: with independent draws the number of repeats of
// the few hottest queries — and with it every cache hit rate — moves by
// several percent from seed to seed, which would force every bound that
// wide.
func zipfQueries(c *corpus, rng *xrand.RNG, count int) []int {
	perm := xrand.New(subSeed(corpusSeed, seedHotSet)).Perm(c.sz.Queries)
	hot := perm[:min(hotSet, len(perm))]
	weights := make([]float64, len(hot))
	sum := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -1.1)
		sum += weights[r]
	}
	type share struct {
		rank int
		frac float64
	}
	out := make([]int, 0, count)
	rest := make([]share, len(hot))
	for r, w := range weights {
		exact := float64(count) * w / sum
		whole := int(exact)
		for i := 0; i < whole; i++ {
			out = append(out, hot[r])
		}
		rest[r] = share{r, exact - float64(whole)}
	}
	sort.Slice(rest, func(a, b int) bool {
		if rest[a].frac != rest[b].frac {
			return rest[a].frac > rest[b].frac
		}
		return rest[a].rank < rest[b].rank
	})
	for i := 0; len(out) < count; i++ {
		out = append(out, hot[rest[i%len(rest)].rank])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func scheduleRAGUniform(w *workload) func(*corpus, uint64, int) []op {
	return func(c *corpus, seed uint64, n int) []op {
		rng := xrand.New(subSeed(seed, seedSchedule))
		ops := make([]op, n)
		for i := range ops {
			q := rng.Intn(c.sz.Queries)
			ops[i] = op{cmd: ivfCmd(c, []int{q}, w.NProbe, false), query: q, queries: []int{q}, http: true}
		}
		return ops
	}
}

func scheduleShardedDeep(c *corpus, seed uint64, n int) []op {
	rng := xrand.New(subSeed(seed, seedSchedule))
	ops := make([]op, n)
	for i := range ops {
		qs := make([]int, 8)
		for j := range qs {
			qs[j] = rng.Intn(c.sz.Queries)
		}
		o := op{query: -1, queries: qs}
		switch i % 4 {
		case 0, 1:
			o.cmd = ivfCmd(c, qs, 32, false)
		case 2:
			o.cmd = ivfCmd(c, qs, 32, true)
		default:
			o.cmd = flatCmd(c, qs, false)
		}
		ops[i] = o
	}
	return ops
}

func scheduleSkewPrunedCached(c *corpus, seed uint64, n int) []op {
	qs := zipfQueries(c, xrand.New(subSeed(seed, seedSchedule)), n)
	ops := make([]op, n)
	for i, q := range qs {
		o := op{query: q, queries: []int{q}}
		if i%8 == 7 {
			o.cmd = flatCmd(c, o.queries, true)
		} else {
			o.cmd = ivfCmd(c, o.queries, 16, true)
		}
		ops[i] = o
	}
	return ops
}

func scheduleChurnMixed(w *workload) func(*corpus, uint64, int) []op {
	return func(c *corpus, seed uint64, n int) []op {
		qs := zipfQueries(c, xrand.New(subSeed(seed, seedSchedule)), n)
		ops := make([]op, n)
		for i, q := range qs {
			if i%churnEvery == churnEvery-1 {
				ops[i] = op{query: -1, mutate: true}
				continue
			}
			ops[i] = op{cmd: ivfCmd(c, []int{q}, w.NProbe, false), query: q, queries: []int{q}, http: true}
		}
		return ops
	}
}

// workloads returns the four workloads in BENCHMARK.json order; why
// each exists is recorded there and in README.md.
func workloads() []*workload {
	rag := &workload{
		Name:     "rag_uniform",
		Replicas: 2, Shards: 1, Depth: 32, HTTP: true, NProbe: 8,
		RateQPS: 2150, LadderBaseQPS: 1200, SLOLimitMs: 7,
	}
	rag.schedule = scheduleRAGUniform(rag)
	deep := &workload{
		Name:     "sharded_deep",
		Replicas: 1, Shards: 4, Depth: 8, InFlight: 8,
		RateQPS: 200, LadderBaseQPS: 110, SLOLimitMs: 30,
		schedule: scheduleShardedDeep,
	}
	skew := &workload{
		Name:     "skew_pruned_cached",
		Replicas: 1, Shards: 1, Depth: 8, InFlight: 8, PinShare: 1.0 / 3,
		RateQPS: 1330, LadderBaseQPS: 800, SLOLimitMs: 9,
		schedule: scheduleSkewPrunedCached,
	}
	churn := &workload{
		Name:     "churn_mixed",
		Replicas: 2, Shards: 1, Depth: 32, HTTP: true, NProbe: 16, PinShare: 1.0 / 3,
		OverprovisionPct: 200, SmallBlocks: true,
		RateQPS: 480, LadderBaseQPS: 270, SLOLimitMs: 20,
	}
	churn.schedule = scheduleChurnMixed(churn)
	return []*workload{rag, deep, skew, churn}
}

// workloadByName finds a workload; nil when the name is unknown.
func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// sloRates is the workload's fixed ladder of arrival rates.
func (w *workload) sloRates() []float64 {
	rates := make([]float64, sloSteps)
	r := w.LadderBaseQPS
	for i := range rates {
		rates[i] = r
		r *= sloStepRatio
	}
	return rates
}
