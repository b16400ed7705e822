package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"reis/internal/reis"
	"reis/internal/serve"
	"reis/internal/vecmath"
)

// The layer ladder. The search path below Group.Do cannot be wrapped
// from outside, so a layer's self time is taken by differencing: the
// same op entered one layer lower each time.
//
//	GET /search       - Group.Do        = gateway (incl. the HTTP round trip)
//	Group.Do          - host.Submit     = group   (routing, barrier, counters)
//	host.Submit(no-op)                  = queue   (submit -> dispatch -> wake)
//	host.Submit       - queue           = engine  (scan + controller tail)
//	4-shard Submit    - 1-device Submit = shard overhead
//
// Every rung is its own freshly deployed stack from the same seed, and
// one client walks the rungs block by block: ops [32k, 32k+32) run on
// each rung in turn before the next block runs on any. The differences
// are therefore paired — same ops, same cache and mutation state, the
// same few hundred milliseconds of host noise — and a layer's figure is
// the median over blocks of the difference of the two rungs' block
// medians, which resolves tens of microseconds where two separately
// timed passes differ by more than that from run-to-run noise alone.
// (Alternating op by op would pair tighter still, but every rung would
// then run cold — an idle keep-alive connection, evicted CPU caches —
// and read a third slower than it does under load.) Ladder stacks have
// one replica: a second replica would split the stream and leave each
// rung's caching tier in a different state from the lone host's below.

// ladderOps is how many schedule ops the ladder walks, ladderBlock how
// many a rung runs before the next rung takes its turn.
const (
	ladderOps   = 512
	ladderBlock = 32
)

// lane is one rung: an entry point into a deployed stack.
type lane struct {
	search func(i int, o *op) error
	round  func() (roundResult, error)
	close  func()

	lat      []time.Duration // per search op
	blockMed []float64       // median latency of each block's searches, us
	mallocs  uint64
}

// timed runs one search on the lane and records its latency.
func (l *lane) timed(i int, o *op) error {
	t0 := time.Now()
	err := l.search(i, o)
	l.lat = append(l.lat, time.Since(t0))
	return err
}

func (l *lane) mallocsPerOp() float64 { return ratio(float64(l.mallocs), float64(len(l.lat))) }

// pairedUs is the median over blocks of upper's block median minus
// lower's, in microseconds.
func pairedUs(upper, lower *lane) float64 {
	diff := make([]float64, len(upper.blockMed))
	for k := range diff {
		diff[k] = upper.blockMed[k] - lower.blockMed[k]
	}
	return median(diff)
}

// ladder is what the walk measured.
type ladder struct {
	gatewayUs, gatewayAllocs float64 // 0 for in-process workloads
	groupUs                  float64
	hostUs                   float64 // host.Submit on the workload's device (sharded or not)
	singleUs                 float64 // host.Submit on one device
	shardOverheadUs          float64 // 0 for unsharded workloads
	topUs                    float64 // the topmost rung's median: one client's request
	noopUs                   float64
	pageReads, kbOut         float64 // per search op, workload's device
	kernels                  kernelTimes
}

// kernelTimes are the per-page costs of the two flash commands a scan
// issues and of the popcount kernel inside GEN_DIST_PAGE.
type kernelTimes struct {
	genDistNs, readPageNs, xorPopNs float64
}

// runLadder deploys the rungs, walks ops across them and times the
// no-op round trip and the flash kernels.
func runLadder(w *workload, c *corpus, seed uint64, ops []op, tr *tracer, wd *watchdog) (*ladder, error) {
	lw := *w
	lw.Replicas = 1
	tr.setBroadcast("deploy")
	var lanes []*lane
	defer func() {
		for _, l := range lanes {
			l.close()
		}
	}()
	add := func(l *lane, err error) (*lane, error) {
		if err == nil {
			lanes = append(lanes, l)
		}
		return l, err
	}

	var gw *lane
	var err error
	if w.HTTP {
		if gw, err = add(httpLane(&lw, c, seed, tr, wd)); err != nil {
			return nil, fmt.Errorf("gateway rung: %w", err)
		}
	}
	// The tracer's hooks ride on the topmost rung only.
	groupTr := tr
	if w.HTTP {
		groupTr = nil
	}
	grp, err := add(groupLane(&lw, c, seed, groupTr, wd))
	if err != nil {
		return nil, fmt.Errorf("group rung: %w", err)
	}
	host, hostDevs, err := hostLane(&lw, c, lw.Shards)
	if err != nil {
		return nil, fmt.Errorf("host rung: %w", err)
	}
	lanes = append(lanes, host)
	wd.tick()
	single, singleDevs := host, hostDevs
	if lw.Shards > 1 {
		if single, singleDevs, err = hostLane(&lw, c, 1); err != nil {
			return nil, fmt.Errorf("single-device rung: %w", err)
		}
		lanes = append(lanes, single)
		wd.tick()
	}

	reads0, out0 := deviceTotals(hostDevs)
	for first := 0; first < len(ops); first += ladderBlock {
		for _, l := range lanes {
			// Mallocs are read once per block: ReadMemStats stops the
			// world, and an op that follows it pays to wake every parked
			// worker again.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			from := len(l.lat)
			for i := first; i < min(first+ladderBlock, len(ops)); i++ {
				if ops[i].mutate {
					if _, err := l.round(); err != nil {
						return nil, err
					}
					wd.tick()
					continue
				}
				if err := l.timed(i, &ops[i]); err != nil {
					return nil, fmt.Errorf("op %d: %w", i, err)
				}
				wd.tick()
			}
			runtime.ReadMemStats(&m1)
			l.mallocs += m1.Mallocs - m0.Mallocs
			l.blockMed = append(l.blockMed, medianUs(l.lat[from:]))
		}
	}
	reads1, out1 := deviceTotals(hostDevs)

	noop, err := noopRoundTrip(wd)
	if err != nil {
		return nil, fmt.Errorf("no-op round trip: %w", err)
	}
	kernels, err := timeKernels(singleDevs[0], c)
	if err != nil {
		return nil, fmt.Errorf("flash kernels: %w", err)
	}
	wd.tick()
	n := float64(len(host.lat))
	ld := &ladder{
		groupUs:   pairedUs(grp, host),
		hostUs:    medianUs(host.lat),
		singleUs:  medianUs(single.lat),
		topUs:     medianUs(lanes[0].lat),
		noopUs:    float64(noop) / float64(time.Microsecond),
		pageReads: ratio(float64(reads1-reads0), n),
		kbOut:     ratio(float64(out1-out0)/1024, n),
		kernels:   kernels,
	}
	if gw != nil {
		ld.gatewayUs = pairedUs(gw, grp)
		ld.gatewayAllocs = gw.mallocsPerOp() - grp.mallocsPerOp()
	}
	if single != host {
		ld.shardOverheadUs = pairedUs(host, single)
	}
	return ld, nil
}

// httpLane enters through GET /search, with the tracer's hooks
// installed.
func httpLane(w *workload, c *corpus, seed uint64, tr *tracer, wd *watchdog) (*lane, error) {
	s, err := deployStack(w, c, seed, tr.stackOptions(), wd)
	if err != nil {
		return nil, err
	}
	hc := keepAliveClient()
	return &lane{
		search: func(i int, o *op) error {
			id := "ladder-" + strconv.Itoa(i)
			t0 := time.Now()
			resp, err := getSearch(context.Background(), hc, s.baseURL, o.query, id)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			tr.record(spanClient, id, "", t0, time.Now())
			return nil
		},
		round: tracedRound(s, c, tr),
		close: func() {
			hc.CloseIdleConnections()
			s.close()
		},
	}, nil
}

// groupLane enters through Group.Do.
func groupLane(w *workload, c *corpus, seed uint64, tr *tracer, wd *watchdog) (*lane, error) {
	s, err := deployStack(w, c, seed, tr.stackOptions(), wd)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	return &lane{
		search: func(i int, o *op) error {
			t0 := time.Now()
			_, err := s.group.Do(ctx, o.cmd)
			tr.record(spanGroup, "ladder-"+strconv.Itoa(i), "", t0, time.Now())
			return err
		},
		round: tracedRound(s, c, tr),
		close: s.close,
	}, nil
}

// tracedRound applies the stack's next churn round under a group.do
// span.
func tracedRound(s *stack, c *corpus, tr *tracer) func() (roundResult, error) {
	return func() (roundResult, error) {
		req := "ladder-round-" + strconv.Itoa(s.churn.round)
		tr.setBroadcast(req)
		t0 := time.Now()
		rr, err := s.groupRound(context.Background(), c)
		tr.record(spanGroup, req, "", t0, time.Now())
		return rr, err
	}
}

// hostLane enters through host.Submit on one lone host of the
// workload's device with the given shard count.
func hostLane(w *workload, c *corpus, shards int) (*lane, []*reis.Engine, error) {
	hw := *w
	hw.Shards = shards
	h, err := newHost(&hw, c, deviceConfig(&hw, c))
	if err != nil {
		return nil, nil, err
	}
	if _, err := h.Submit(deployCmd(c)); err != nil {
		h.Close()
		return nil, nil, err
	}
	var churn churnState
	return &lane{
		search: func(_ int, o *op) error {
			_, err := h.Submit(o.cmd)
			return err
		},
		round: func() (roundResult, error) { return churn.churnRound(c, h.Submit) },
		close: func() { h.Close() },
	}, devicesOf(h), nil
}

// devicesOf lists the member engines of a host.
func devicesOf(h serve.Host) []*reis.Engine {
	switch h := h.(type) {
	case *reis.Engine:
		return []*reis.Engine{h}
	case *reis.ShardedEngine:
		out := make([]*reis.Engine, h.Shards())
		for s := range out {
			out[s] = h.Shard(s)
		}
		return out
	}
	return nil
}

// deviceTotals sums page reads and bytes out over the devices' flash
// counters.
func deviceTotals(devs []*reis.Engine) (reads, bytesOut int64) {
	for _, e := range devs {
		st := &e.SSD.Dev.Stats
		for m := range st.PageReadsByMode {
			reads += st.PageReadsByMode[m].Load()
		}
		bytesOut += st.TotalBytesOut()
	}
	return reads, bytesOut
}

// noopRoundTrip measures a queue round trip with nothing to execute: a
// Compact that finds no victim row on a small scratch database, through
// the same blocking Submit path the host rung uses.
func noopRoundTrip(wd *watchdog) (time.Duration, error) {
	w := &workload{Shards: 1, OverprovisionPct: 100}
	scratch := &corpus{sz: sizes{N: 64, Dim: 64, DocBytes: 64}}
	e, err := reis.New(deviceConfig(w, scratch), 0, reis.AllOptions())
	if err != nil {
		return 0, err
	}
	defer e.Close()
	vecs := make([][]float32, scratch.sz.N)
	docs := make([][]byte, scratch.sz.N)
	for i := range vecs {
		vecs[i] = make([]float32, scratch.sz.Dim)
		vecs[i][i%scratch.sz.Dim] = 1
		docs[i] = []byte("scratch")
	}
	if _, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: dbID, Vectors: vecs, Docs: docs, DocSlotBytes: scratch.sz.DocBytes,
	}}); err != nil {
		return 0, err
	}
	noop := reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: dbID, Compact: &reis.CompactConfig{MinLiveRatio: 0.5}}
	const warm, timed = 64, 2048 // the first calls wake the dispatcher goroutine
	lat := make([]time.Duration, 0, timed)
	for i := 0; i < warm+timed; i++ {
		t0 := time.Now()
		resp, err := e.Submit(noop)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if resp.Wear != nil && resp.Wear.CompactedRows != 0 {
			return 0, fmt.Errorf("no-op compact collected %d rows", resp.Wear.CompactedRows)
		}
		wd.tick()
		if i >= warm {
			lat = append(lat, d)
		}
	}
	return time.Duration(medianUs(lat) * float64(time.Microsecond)), nil
}

// timeKernels times GEN_DIST_PAGE, a conventional page read and the
// XOR+popcount kernel on one binary-region page of the deployed corpus.
// Each figure is the median of kernelBatches batch means.
func timeKernels(e *reis.Engine, c *corpus) (kernelTimes, error) {
	const kernelBatches, perBatch = 9, 256
	db, err := e.DB(dbID)
	if err != nil {
		return kernelTimes{}, err
	}
	dev, geo := e.SSD.Dev, e.SSD.Cfg.Geo
	addr, err := db.Record().Embeddings.AddressOf(geo, 0)
	if err != nil {
		return kernelTimes{}, err
	}
	plane := addr.PlaneIndex(geo)
	slotBytes := c.sz.Dim / 8
	slots := db.EmbPerPage()
	if err := dev.ReadPage(addr); err != nil {
		return kernelTimes{}, err
	}
	if err := dev.LoadCache(plane, make([]byte, slotBytes), slotBytes); err != nil {
		return kernelTimes{}, err
	}
	dists := make([]int, slots)
	data, oob := make([]byte, geo.PageBytes), make([]byte, geo.OOBBytes)
	a, b, dst := make([]byte, geo.PageBytes), make([]byte, geo.PageBytes), make([]byte, geo.PageBytes)

	batch := func(f func() error) (float64, error) {
		means := make([]float64, kernelBatches)
		for i := range means {
			t0 := time.Now()
			for j := 0; j < perBatch; j++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			means[i] = float64(time.Since(t0).Nanoseconds()) / perBatch
		}
		return median(means), nil
	}
	var k kernelTimes
	if k.genDistNs, err = batch(func() error { return dev.GenDistPage(plane, slotBytes, 0, slots, dists, 0) }); err != nil {
		return k, err
	}
	if k.readPageNs, err = batch(func() error { _, _, err := dev.ReadPageInto(addr, data, oob); return err }); err != nil {
		return k, err
	}
	k.xorPopNs, _ = batch(func() error {
		vecmath.XorPopCountSlots(dst, a, b, slotBytes, 0, slots, dists)
		return nil
	})
	return k, nil
}
