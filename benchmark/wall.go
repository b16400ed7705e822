package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reis/internal/reis"
	"reis/internal/serve"
)

// The timed window's completions, in completion order, are cut into
// equal-count blocks of about blockSpan each, and wall.qps and wall.p50_ms
// are read off the run's fastest block, not off the whole window. The
// bench host is a few cores of a shared machine: a neighbour slows this
// process by 1.3-1.5x for anything from half a second to minutes at a
// time, and never speeds it up, so the noise is one-sided and the block
// the neighbours left alone is the one that measures the program. Over
// ten runs with two of them in a noisy phase the fastest block repeated
// within 2-4 % (interquartile) where the median block moved 10-12 %.
// blockMultiple keeps every block a whole number of the schedules' op
// cycles (sharded_deep cycles four command kinds, skew_pruned_cached
// eight), so blocks differ by the host's speed and not by their op mix.
const (
	blockSpan     = 500 * time.Millisecond
	blockMultiple = 8
)

// verifyEvery is how often an HTTP response body is decoded and checked
// (ten hits; on a static corpus, the reference's ids and distances); the
// others are checked for status and drained, which keeps the client's
// own JSON work off the measured path.
const verifyEvery = 8

// churnRounds is how many churn rounds the writer spreads evenly over a
// loaded pass. It is a fixed count, not a share of the ops: the INT8 and
// document regions are append-only (GC never reclaims them), so a
// deployment accepts only as many append commands as its INT8 headroom
// has pages — 256 on the full corpus at OverprovisionPct 200 — and a
// reader-paced writer would exhaust that on a fast enough host and start
// failing. The writer takes five eighths of the headroom: 160 rounds.
func churnRounds(w *workload, c *corpus, pageBytes int) int {
	int8PerPage := pageBytes / c.sz.Dim
	headroom := (c.sz.N + int8PerPage - 1) / int8PerPage * w.OverprovisionPct / 100
	return headroom * 5 / 8
}

// sample is one completed search of the timed window.
type sample struct {
	done time.Duration // completion time since the window opened
	lat  time.Duration
}

// wallOutcome is what one loaded closed-loop pass measured.
type wallOutcome struct {
	clients           int
	attempted, failed int
	rejected          int // 503 / ErrQueueFull among the failed
	searches          int // searches completed inside the timed window
	window            time.Duration

	qps         float64 // queries per second of the fastest block (see fastestBlock)
	p50Ms       float64 // median search latency of the block with the lowest one
	lat         timing  // over the whole window
	allocsPerOp float64
	kbPerOp     float64
	liveHeapMB  float64

	group         serve.GroupStats
	queue         reis.QueueStats // summed over the routed queues
	occupancyMean float64         // sampled Outstanding/Depth (traced passes only)
	rounds        []roundResult
	stallP99Ms    float64
}

// interval is a mutation's wall-clock extent, for the barrier-stall
// attribution.
type interval struct{ start, end time.Time }

// loadGen drives one stack with the workload's closed loop.
type loadGen struct {
	w      *workload
	c      *corpus
	s      *stack
	ops    []op // searches only; churn rounds are the writer's
	expect [][]digest
	tr     *tracer

	errMu sync.Mutex
	errs  []string // the first few failures, for the log

	next     atomic.Int64
	failed   atomic.Int64
	rejected atomic.Int64
	done     atomic.Int64
}

// runWallPass runs warm + dur of closed-loop load on a freshly deployed
// stack and returns the timed window's numbers. ops is the shared seeded
// schedule (cycled), expect its reference digests (nil entries are not
// compared). tr non-nil turns the tracing hooks on.
func runWallPass(w *workload, c *corpus, seed uint64, ops []op, expect [][]digest, warm, dur time.Duration, tr *tracer, st *setupTimes, wd *watchdog) (*wallOutcome, error) {
	s, err := deployStack(w, c, seed, tr.stackOptions(), wd)
	if err != nil {
		return nil, err
	}
	defer s.close()
	st.deploy = append(st.deploy, s.deployS)

	g := &loadGen{w: w, c: c, s: s, tr: tr}
	churn := slices.ContainsFunc(ops, func(o op) bool { return o.mutate })
	for i := range ops {
		if ops[i].mutate {
			continue
		}
		g.ops = append(g.ops, ops[i])
		var e []digest
		if !churn && expect != nil {
			// Under churn a search's answer depends on which rounds have
			// landed; the model pass checks those against the reference.
			e = expect[i]
		}
		g.expect = append(g.expect, e)
	}
	clients := w.InFlight
	if w.HTTP {
		clients = runtime.NumCPU()
	}
	out := &wallOutcome{clients: clients}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	open := start.Add(warm)
	deadline := open.Add(dur)
	samples := make([][]sample, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			samples[ci] = g.client(ctx, ci, open, deadline)
		}(ci)
	}
	var muts []interval
	var writerErr error
	if churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.rounds, muts, writerErr = g.writer(ctx, start, deadline)
		}()
	}
	var occ occupancy
	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			occ = sampleOccupancy(s.group, open, deadline)
		}()
	}

	// Memory is read at the window's edges, with the op count alongside.
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(open))
	runtime.ReadMemStats(&m0)
	done0 := g.done.Load()
	time.Sleep(time.Until(deadline))
	runtime.ReadMemStats(&m1)
	done1 := g.done.Load()
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}

	var all []sample
	for _, cs := range samples {
		all = append(all, cs...)
	}
	for _, e := range g.errs {
		logf("%s wall pass: failed %s", w.Name, e)
	}
	out.attempted = int(g.next.Load()) + len(out.rounds)
	out.failed = int(g.failed.Load())
	out.rejected = int(g.rejected.Load())
	out.searches = len(all)
	out.window = dur
	if len(all) == 0 {
		return nil, errors.New("wall pass completed no search in its timed window")
	}
	out.qps, out.p50Ms = fastestBlock(all, dur, float64(len(g.ops[0].cmd.Queries)))
	lats := make([]time.Duration, len(all))
	for i, sm := range all {
		lats[i] = sm.lat
	}
	out.lat = summarize(lats)
	if n := float64(done1 - done0); n > 0 {
		out.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / n
		out.kbPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	}
	out.stallP99Ms = stallP99(all, muts, open)
	out.occupancyMean = occ.mean()
	out.group = s.group.Stats()
	for i := 0; i < s.group.Replicas(); i++ {
		qs := s.group.Queue(i).Stats()
		out.queue.Submitted += qs.Submitted
		out.queue.Completed += qs.Completed
		out.queue.Rejected += qs.Rejected
		out.queue.Dispatches += qs.Dispatches
		out.queue.Coalesced += qs.Coalesced
	}
	// Live heap with the stack still deployed: what serving this corpus
	// keeps resident.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	out.liveHeapMB = float64(m2.HeapAlloc) / (1 << 20)
	return out, nil
}

// fastestBlock cuts the window's completions into blocks (see blockSpan)
// and returns the highest block rate in queries per second — a block's
// query count over the time from the previous block's last completion to
// its own — and the lowest block median latency in milliseconds. The two
// need not come from the same block.
func fastestBlock(all []sample, window time.Duration, queriesPerOp float64) (qps, p50Ms float64) {
	sorted := slices.Clone(all)
	slices.SortFunc(sorted, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	blocks := max(int(window/blockSpan), 1)
	size := max(len(sorted)/blocks/blockMultiple*blockMultiple, min(blockMultiple, len(sorted)))
	prev := time.Duration(0)
	lats := make([]time.Duration, size)
	for end := size; end <= len(sorted); end += size {
		last := sorted[end-1].done
		if span := last - prev; span > 0 {
			qps = max(qps, float64(size)*queriesPerOp/span.Seconds())
		}
		prev = last
		for i, sm := range sorted[end-size : end] {
			lats[i] = sm.lat
		}
		if ms := medianUs(lats) / 1e3; p50Ms == 0 || ms < p50Ms {
			p50Ms = ms
		}
	}
	return qps, p50Ms
}

// stallP99 is the p99 latency of searches whose interval overlaps a
// mutation's — the searches the broadcast barrier can have held.
func stallP99(all []sample, muts []interval, open time.Time) float64 {
	if len(muts) == 0 {
		return 0
	}
	var ms []float64
	for _, sm := range all {
		end := open.Add(sm.done)
		begin := end.Add(-sm.lat)
		i := sort.Search(len(muts), func(i int) bool { return !muts[i].end.Before(begin) })
		if i < len(muts) && !muts[i].start.After(end) {
			ms = append(ms, float64(sm.lat)/float64(time.Millisecond))
		}
	}
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	return quantile(ms, 0.99)
}

// client is one closed-loop client: draw the next op of the shared
// schedule, issue it, wait for the reply, repeat until the deadline.
func (g *loadGen) client(ctx context.Context, ci int, open, deadline time.Time) []sample {
	var hc *http.Client
	if g.w.HTTP {
		hc = keepAliveClient()
		defer hc.CloseIdleConnections()
	}
	out := make([]sample, 0, 1<<16)
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return out
		}
		n := g.next.Add(1) - 1
		i := int(n % int64(len(g.ops)))
		o := &g.ops[i]
		var err error
		if g.w.HTTP {
			err = g.httpSearch(ctx, hc, n, o, g.expect[i])
		} else {
			err = g.doSearch(ctx, n, o, g.expect[i])
		}
		t1 := time.Now()
		g.s.wd.tick()
		if err != nil {
			g.fail(n, err)
			continue
		}
		g.done.Add(1)
		if !t1.Before(open) && t1.Before(deadline) {
			out = append(out, sample{done: t1.Sub(open), lat: t1.Sub(t0)})
		}
	}
}

// fail counts one failed op and keeps the first few reasons.
func (g *loadGen) fail(n int64, err error) {
	g.failed.Add(1)
	if errors.Is(err, reis.ErrQueueFull) || errors.Is(err, errRejected) {
		g.rejected.Add(1)
	}
	g.errMu.Lock()
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf("op %d: %v", n, err))
	}
	g.errMu.Unlock()
}

var (
	errRejected = errors.New("gateway answered 503")
	errWrong    = errors.New("result differs from the reference")
)

// gatewayReply is the /search response body.
type gatewayReply struct {
	Hits []struct {
		ID   int     `json:"id"`
		Dist float32 `json:"dist"`
	} `json:"hits"`
}

// keepAliveClient is one benchmark client: a single keep-alive
// connection.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// getSearch issues GET /search for one held-out query under a request
// id. A non-200 answer is drained and returned as an error.
func getSearch(ctx context.Context, hc *http.Client, baseURL string, query int, id string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/search?q="+strconv.Itoa(query)+"&k="+strconv.Itoa(topK), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil, errRejected
		}
		return nil, fmt.Errorf("GET /search: status %d", resp.StatusCode)
	}
	return resp, nil
}

func (g *loadGen) httpSearch(ctx context.Context, hc *http.Client, n int64, o *op, want []digest) error {
	id := "bench-" + strconv.FormatInt(n, 10)
	start := time.Now()
	resp, err := getSearch(ctx, hc, g.s.baseURL, o.query, id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if n%verifyEvery != 0 {
		nb, err := io.Copy(io.Discard, resp.Body)
		g.tr.record(spanClient, id, "", start, time.Now())
		if err == nil && nb == 0 {
			err = errWrong
		}
		return err
	}
	var reply gatewayReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return err
	}
	g.tr.record(spanClient, id, "", start, time.Now())
	if len(reply.Hits) != topK {
		return errWrong
	}
	if want == nil {
		return nil
	}
	for i, h := range reply.Hits {
		if h.ID != want[0].ids[i] || h.Dist != want[0].dists[i] {
			return errWrong
		}
	}
	return nil
}

func (g *loadGen) doSearch(ctx context.Context, n int64, o *op, want []digest) error {
	start := time.Now()
	resp, err := g.s.group.Do(ctx, o.cmd)
	if g.tr != nil {
		g.tr.record(spanGroup, "bench-"+strconv.FormatInt(n, 10), "", start, time.Now())
	}
	if err != nil {
		return err
	}
	if len(resp.Results) != len(o.cmd.Queries) {
		return errWrong
	}
	for _, res := range resp.Results {
		if len(res) != topK {
			return errWrong
		}
	}
	for qi := range want {
		if !want[qi].equal(digestOf(resp.Results[qi])) {
			return errWrong
		}
	}
	return nil
}

// writer applies churnRounds rounds through Group.Do, round r no earlier
// than r/churnRounds of the way from start to deadline.
func (g *loadGen) writer(ctx context.Context, start, deadline time.Time) ([]roundResult, []interval, error) {
	var rounds []roundResult
	var muts []interval
	n := churnRounds(g.w, g.c, g.s.cfg.Geo.PageBytes)
	gap := deadline.Sub(start) / time.Duration(n)
	for r := 0; r < n; r++ {
		due := start.Add(time.Duration(r) * gap)
		if !due.Before(deadline) {
			break
		}
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			return rounds, muts, nil
		}
		req := "round-" + strconv.Itoa(r)
		g.tr.setBroadcast(req)
		t0 := time.Now()
		rr, err := g.s.groupRound(ctx, g.c)
		t1 := time.Now()
		g.tr.record(spanGroup, req, "", t0, t1)
		if err != nil {
			return rounds, muts, err
		}
		rounds = append(rounds, rr)
		muts = append(muts, interval{t0, t1})
	}
	return rounds, muts, nil
}

// occupancy accumulates sampled queue occupancy.
type occupancy struct {
	sum float64
	n   int
}

func (o occupancy) mean() float64 { return ratio(o.sum, float64(o.n)) }

// sampleOccupancy polls every routed queue's Outstanding/Depth through
// the timed window.
func sampleOccupancy(g *serve.Group, open, deadline time.Time) occupancy {
	var o occupancy
	time.Sleep(time.Until(open))
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		if !now.Before(deadline) {
			return o
		}
		for i := 0; i < g.Replicas(); i++ {
			o.sum += g.Queue(i).Occupancy()
			o.n++
		}
	}
	return o
}
