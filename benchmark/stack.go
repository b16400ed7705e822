package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"reis/internal/reis"
	"reis/internal/serve"
	"reis/internal/ssd"
)

// deviceConfig is the SSD every host of the workload is built from:
// REIS-SSD1 with per-plane capacity shrunk to what the corpus needs, as
// experiments.NewSetup does (parallelism untouched). churn_mixed instead
// runs on a small-block device (8 planes, 2 pages per block): a GC row
// is planes x PagesPerBlock pages, which on the full SSD1 plane count is
// 4096 pages — 64 times this corpus' whole embedding region — so no row
// would ever fall below the compaction threshold and the collector would
// have nothing to do.
func deviceConfig(w *workload, c *corpus) ssd.Config {
	cfg := ssd.SSD1()
	cfg.Geo.BlocksPerPlane = 8
	cfg.Geo.PagesPerBlock = 16
	if w.SmallBlocks {
		cfg.Geo.Channels, cfg.Geo.DiesPerChannel, cfg.Geo.PlanesPerDie = 2, 2, 2
		cfg.Geo.PagesPerBlock = 2
	}
	cfg.OverprovisionPct = w.OverprovisionPct
	cfg.CacheDRAMBytes = cacheBytes(w, c, cfg)
	return cfg
}

// cacheBytes sizes the caching tier from the corpus: the pin budget is
// 7/8 of CacheDRAMBytes (the result cache takes the rest) and must hold
// PinShare of the cluster pages.
func cacheBytes(w *workload, c *corpus, cfg ssd.Config) int64 {
	if w.PinShare <= 0 {
		return 0
	}
	pages := 0
	for _, p := range c.clusterPages(cfg.Geo.PageBytes) {
		pages += p
	}
	pin := int64(float64(pages)*w.PinShare+0.5) * int64(cfg.Geo.PageBytes+cfg.Geo.OOBBytes)
	return pin * 8 / 7
}

// newHost builds one undeployed replica host.
func newHost(w *workload, c *corpus, cfg ssd.Config) (serve.Host, error) {
	hint := int64(c.sz.N)*int64(c.sz.Dim*3)*4 + 64<<20
	if w.Shards > 1 {
		return reis.NewSharded(cfg, w.Shards, hint, reis.AllOptions())
	}
	return reis.New(cfg, hint, reis.AllOptions())
}

// deployCmd is the IVF_Deploy command of the corpus.
func deployCmd(c *corpus) reis.HostCommand {
	return reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
		ID: dbID, Vectors: c.data.Vectors, Docs: c.data.Docs, DocSlotBytes: c.sz.DocBytes,
		Centroids: c.cents, Assign: c.assign,
	}}
}

// stack is one deployed serving stack: hosts, replica group and, for
// HTTP workloads, the gateway behind a loopback listener.
type stack struct {
	w     *workload
	cfg   ssd.Config
	hosts []serve.Host // as built, before any tracing decorator
	group *serve.Group
	gw    *serve.Gateway

	srv     *http.Server
	srvDone chan struct{}
	baseURL string
	deployS float64
	churnMu sync.Mutex
	churn   churnState
	// wd is the run's watchdog; whoever drives the stack ticks it after
	// each completed op.
	wd *watchdog
}

// stackOptions are the hooks the traced pass installs.
type stackOptions struct {
	// wrapHost decorates replica i's host before the group takes it.
	wrapHost func(i int, h serve.Host) serve.Host
	// middleware wraps gw.Handler().
	middleware func(http.Handler) http.Handler
}

// deployStack builds the workload's hosts, groups them, deploys the
// corpus through the group (a deploy broadcasts to every replica) and,
// for HTTP workloads, starts the gateway on a loopback port.
func deployStack(w *workload, c *corpus, seed uint64, opt stackOptions, wd *watchdog) (*stack, error) {
	t0 := time.Now()
	s := &stack{w: w, cfg: deviceConfig(w, c), wd: wd}
	grouped := make([]serve.Host, w.Replicas)
	for i := range grouped {
		h, err := newHost(w, c, s.cfg)
		if err != nil {
			s.closeHosts()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		s.hosts = append(s.hosts, h)
		grouped[i] = h
		if opt.wrapHost != nil {
			grouped[i] = opt.wrapHost(i, h)
		}
	}
	g, err := serve.NewGroup(grouped, serve.Config{QueueDepth: w.Depth, Seed: subSeed(seed, seedRouting)})
	if err != nil {
		s.closeHosts()
		return nil, err
	}
	s.group = g
	if _, err := g.Do(context.Background(), deployCmd(c)); err != nil {
		s.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if w.HTTP {
		s.gw = serve.NewGateway(g, serve.GatewayConfig{
			DBID: dbID, DefaultK: topK, NProbe: min(w.NProbe, c.sz.Clusters), Queries: c.data.Queries,
		})
		h := s.gw.Handler()
		if opt.middleware != nil {
			h = opt.middleware(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.srv = &http.Server{Handler: h}
		s.srvDone = make(chan struct{})
		s.baseURL = "http://" + ln.Addr().String()
		go func() {
			defer close(s.srvDone)
			s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
	}
	s.deployS = time.Since(t0).Seconds()
	wd.tick()
	return s, nil
}

func (s *stack) closeHosts() {
	for _, h := range s.hosts {
		h.Close()
	}
}

// close stops the listener and waits for its goroutine, then closes the
// group (which closes the routed queues and the hosts).
func (s *stack) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
		}
		cancel()
		<-s.srvDone
	}
	if s.group != nil {
		s.group.Close()
		return
	}
	s.closeHosts()
}

// engine returns replica i's single-device engine, nil for a sharded
// replica.
func (s *stack) engine(i int) *reis.Engine {
	e, _ := s.hosts[i].(*reis.Engine)
	return e
}

// sharded returns replica i's router, nil for a single-device replica.
func (s *stack) sharded(i int) *reis.ShardedEngine {
	sh, _ := s.hosts[i].(*reis.ShardedEngine)
	return sh
}

// submitter is what a churn round needs from the layer it enters
// through: the group, a lone host, or the reference engine.
type submitter func(reis.HostCommand) (reis.HostResponse, error)

// churnState is the mutation history a churn round depends on: the
// round number and the ids each earlier burst was assigned.
type churnState struct {
	round int
	ids   map[int][]int
}

// roundResult is what one churn round did, for checking and for the
// mutate.* metrics.
type roundResult struct {
	round                   int
	appended, deleted       []int
	burst                   burst
	appendD, deleteD, compD time.Duration
	compacted               bool
	// wear is the round's last WearStats (its cumulative fields —
	// WriteAmp, MaxBlockErase — are current as of the round's end); the
	// counters below sum the per-command fields over the round.
	wear                                  reis.WearStats
	blockErases, gcPagesRead, compactRows int
}

func (r *roundResult) absorb(resp reis.HostResponse) {
	if resp.Wear == nil {
		return
	}
	r.wear = *resp.Wear
	r.blockErases += resp.Wear.BlockErases
	r.gcPagesRead += resp.Wear.PagesRead
	r.compactRows += resp.Wear.CompactedRows
}

// churnRound applies the next round through submit: append a burst,
// delete the burst of two rounds back, and every churnCompactEvery-th
// round compact at live ratio 0.5. Live size is steady from round 2 on.
func (st *churnState) churnRound(c *corpus, submit submitter) (roundResult, error) {
	if st.ids == nil {
		st.ids = make(map[int][]int)
	}
	r := st.round
	st.round++
	res := roundResult{round: r, burst: c.churnBurst(r)}
	t0 := time.Now()
	resp, err := submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: dbID, Append: &reis.AppendConfig{
		Vectors: res.burst.vectors, Docs: res.burst.docs, Assign: res.burst.assign,
	}})
	res.appendD = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("round %d append: %w", r, err)
	}
	res.appended = resp.AppendedIDs
	st.ids[r] = resp.AppendedIDs
	res.absorb(resp)
	if old, ok := st.ids[r-2]; ok {
		t0 = time.Now()
		resp, err = submit(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: dbID, Del: &reis.DeleteConfig{IDs: old}})
		res.deleteD = time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("round %d delete: %w", r, err)
		}
		res.deleted = old
		delete(st.ids, r-2)
		res.absorb(resp)
	}
	if r%churnCompactEvery == churnCompactEvery-1 {
		t0 = time.Now()
		resp, err = submit(reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: dbID, Compact: &reis.CompactConfig{MinLiveRatio: 0.5}})
		res.compD = time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("round %d compact: %w", r, err)
		}
		res.compacted = true
		res.absorb(resp)
	}
	return res, nil
}

// groupRound runs the stack's next churn round through Group.Do. Rounds
// from concurrent clients apply one at a time, in round order.
func (s *stack) groupRound(ctx context.Context, c *corpus) (roundResult, error) {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	return s.churn.churnRound(c, func(cmd reis.HostCommand) (reis.HostResponse, error) {
		resp, err := s.group.Do(ctx, cmd)
		s.wd.tick()
		return resp, err
	})
}
