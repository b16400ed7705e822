package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/reis"
	"reis/internal/ssd"
)

// svData is the shared serving-tier corpus: a base deploy plus an
// append batch, with queries held out.
var svData = dataset.Generate(dataset.Config{
	Name: "serve-test", N: 660, Dim: 96, Clusters: 12, Queries: 12, K: 10,
	DocBytes: 128, Seed: 7,
})

const svBase = 600 // corpus entries deployed up front; the rest append

// TestConfigSurface pins the settable fields of a group's and a
// gateway's configuration against literal lists: the retirement and
// roll-forward thresholds and the Retry-After hint are constants, so a
// re-added knob fails here instead of passing review.
func TestConfigSurface(t *testing.T) {
	exported := func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				out = append(out, f.Name)
			}
		}
		return out
	}
	for _, tc := range []struct {
		what string
		typ  reflect.Type
		want []string
	}{
		{"Config fields", reflect.TypeOf(Config{}), []string{"QueueDepth", "Seed"}},
		{"GatewayConfig fields", reflect.TypeOf(GatewayConfig{}), []string{
			"DBID", "DefaultK", "NProbe", "Queries", "AuthToken", "RateLimit", "RateBurst"}},
	} {
		if got := exported(tc.typ); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.what, got, tc.want)
		}
	}
}

// svCfg shrinks SSD1 the way the reis shard tests do, with append/GC
// headroom for the mutation script. cacheBytes > 0 opts into the DRAM
// caching tier — on one two-plane die: the tier pins clusters only when
// a probe (here 4 clusters of a page each) outgrows the planes, and on
// the 8-plane device it would pin nothing and the script would scan no
// pinned page.
func svCfg(cacheBytes int64) ssd.Config {
	cfg := ssd.SSD1()
	cfg.Geo.Channels = 2
	cfg.Geo.DiesPerChannel = 2
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 32
	cfg.Geo.PagesPerBlock = 16
	cfg.Geo.PageBytes = 4096
	cfg.Geo.OOBBytes = 1024
	cfg.OverprovisionPct = 200
	cfg.CacheDRAMBytes = cacheBytes
	if cacheBytes > 0 {
		cfg.Geo.Channels, cfg.Geo.DiesPerChannel = 1, 1
		cfg.Geo.BlocksPerPlane = 128
	}
	return cfg
}

// newHost builds one replica host: a single-device engine, or a
// sharded router of `shards` devices.
func newHost(t *testing.T, cacheBytes int64, shards int) Host {
	t.Helper()
	if shards > 1 {
		sh, err := reis.NewSharded(svCfg(cacheBytes), shards, 64<<20, reis.AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	e, err := reis.New(svCfg(cacheBytes), 64<<20, reis.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// svCents/svAssign are the IVF layout over the base corpus.
var svCents, svAssign = ann.KMeans(svData.Vectors[:svBase], ann.KMeansConfig{K: 12, Seed: 5})

// runScript drives the serving-tier state-equivalence script through
// any submit surface: deploy flat (db 1) and IVF (db 2), then
// searches — plain, pruned, repeated (the result-cache path) —
// interleaved with appends, deletes and a compaction. Every response
// is returned in order. This extends the reis mutation oracle
// (TestEquivalenceLattice pins a mutated host against a fresh deploy;
// here the whole scripted history is pinned across replicas).
func runScript(t *testing.T, submit func(reis.HostCommand) (reis.HostResponse, error)) []reis.HostResponse {
	t.Helper()
	var resps []reis.HostResponse
	run := func(cmd reis.HostCommand) reis.HostResponse {
		t.Helper()
		resp, err := submit(cmd)
		if err != nil {
			t.Fatalf("opcode %#x: %v", cmd.Opcode, err)
		}
		resps = append(resps, resp)
		return resp
	}
	flatSearch := func() reis.HostCommand {
		return reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries, K: 10}
	}
	ivfSearch := func(prune bool) reis.HostCommand {
		return reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 2, Queries: svData.Queries, K: 10,
			Opt: reis.SearchOptions{NProbe: 4, Prune: prune},
		}
	}
	searches := func() {
		run(flatSearch())
		run(ivfSearch(false))
		run(ivfSearch(true))
		run(ivfSearch(false)) // repeat: exercises the result cache when enabled
	}

	base, baseDocs := svData.Vectors[:svBase], svData.Docs[:svBase]
	batch, batchDocs := svData.Vectors[svBase:], svData.Docs[svBase:]
	run(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: base, Docs: baseDocs, DocSlotBytes: 256,
	}})
	run(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
		ID: 2, Vectors: base, Docs: baseDocs, DocSlotBytes: 256,
		Centroids: svCents, Assign: svAssign,
	}})
	searches()

	assign := make([]int, len(batch))
	for i, v := range batch {
		assign[i] = ann.NearestCentroid(svCents, v)
	}
	a1 := run(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: batch, Docs: batchDocs}}).AppendedIDs
	a2 := run(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 2,
		Append: &reis.AppendConfig{Vectors: batch, Docs: batchDocs, Assign: assign}}).AppendedIDs
	searches()

	var del []int
	for id := 4; id < svBase; id += 7 {
		del = append(del, id)
	}
	run(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: 1,
		Del: &reis.DeleteConfig{IDs: append(append([]int{}, del...), a1[1], a1[10])}})
	run(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: 2,
		Del: &reis.DeleteConfig{IDs: append(append([]int{}, del...), a2[1], a2[10])}})
	searches()

	run(reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: 1, Compact: &reis.CompactConfig{MinLiveRatio: 0.9}})
	run(reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: 2, Compact: &reis.CompactConfig{MinLiveRatio: 0.9}})
	searches()
	return resps
}

// respsEqual compares a scripted response trace against the
// reference's. resultsOnly drops QueryStats/Stats from the comparison:
// with the result cache enabled, WHICH replica saw an earlier
// identical command determines hit counters, so stats legitimately
// differ between a group and a lone reference while results stay
// bit-identical (the cache-invisibility contract).
func respsEqual(t *testing.T, got, want []reis.HostResponse, resultsOnly bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("response count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if resultsOnly {
			g.QueryStats, w.QueryStats = nil, nil
			g.Stats, w.Stats = reis.QueryStats{}, reis.QueryStats{}
			g.PerShard, w.PerShard = nil, nil
		}
		// Field by field: a search response also points to its dispatch's
		// output record, which is no part of the answer.
		if !reflect.DeepEqual(g.Results, w.Results) || !reflect.DeepEqual(g.QueryStats, w.QueryStats) ||
			g.Stats != w.Stats || !reflect.DeepEqual(g.PerShard, w.PerShard) ||
			!reflect.DeepEqual(g.AppendedIDs, w.AppendedIDs) || !reflect.DeepEqual(g.Wear, w.Wear) {
			t.Fatalf("response %d differs from single-replica reference\ngot:  %+v\nwant: %+v", i, g, w)
		}
	}
}

// TestReplicaGroupMatchesSingleReplica pins the serving tier's
// determinism contract: the scripted history of deploys, searches
// (flat, IVF, pruned, repeated/cached) and mutations answered through
// a replica group of 1/2/3 members — single-device, cached, and
// sharded replicas — is bit-identical to a lone reference host running
// the same script, and after the script every replica's directly
// queried state is identical too.
func TestReplicaGroupMatchesSingleReplica(t *testing.T) {
	cases := []struct {
		name   string
		cache  int64
		shards int
	}{
		{"engine", 0, 1},
		{"cached", 512 << 10, 1},
		{"sharded", 0, 2},
	}
	for _, tc := range cases {
		ref := newHost(t, tc.cache, tc.shards)
		want := runScript(t, ref.Submit)
		ref.Close()
		if tc.cache > 0 {
			pinned := 0
			for _, resp := range want {
				pinned += resp.Stats.CachedPages
			}
			if pinned == 0 {
				t.Errorf("%s: the script served no pinned-cluster page", tc.name)
			}
		}
		for _, n := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/replicas=%d", tc.name, n), func(t *testing.T) {
				hosts := make([]Host, n)
				for i := range hosts {
					hosts[i] = newHost(t, tc.cache, tc.shards)
				}
				g, err := NewGroup(hosts, Config{Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				got := runScript(t, g.Submit)
				respsEqual(t, got, want, tc.cache > 0)

				// Cross-replica state equivalence: after the scripted
				// history, every replica answers a direct (group-
				// bypassing) search identically.
				probe := reis.HostCommand{
					Opcode: reis.OpcodeIVFSearch, DBID: 2,
					Queries: svData.Queries, K: 10, Opt: reis.SearchOptions{NProbe: 4},
				}
				first, err := g.reps[0].host.Submit(probe)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < n; i++ {
					resp, err := g.reps[i].host.Submit(probe)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(resp.Results, first.Results) {
						t.Fatalf("replica %d state diverged from replica 0", i)
					}
				}
			})
		}
	}
}

// TestReplicaGroupConcurrentFailover hammers a 3-replica group from
// concurrent submitters while one replica is failed mid-flight
// (retired, then readmitted): every response must stay bit-identical
// to the single-host reference for its query.
func TestReplicaGroupConcurrentFailover(t *testing.T) {
	ref := newHost(t, 0, 1)
	defer ref.Close()
	deployBoth := func(submit func(reis.HostCommand) (reis.HostResponse, error)) {
		for _, cmd := range []reis.HostCommand{
			{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
				ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
			}},
			{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
				ID: 2, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
				Centroids: svCents, Assign: svAssign,
			}},
		} {
			if _, err := submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	deployBoth(ref.Submit)
	nq := len(svData.Queries)
	cmdFor := func(qi int) reis.HostCommand {
		return reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 2,
			Queries: [][]float32{svData.Queries[qi]}, K: 5, Opt: reis.SearchOptions{NProbe: 4},
		}
	}
	want := make([]reis.HostResponse, nq)
	for qi := range want {
		resp, err := ref.Submit(cmdFor(qi))
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = resp
	}

	hosts := make([]Host, 3)
	for i := range hosts {
		hosts[i] = newHost(t, 0, 1)
	}
	g, err := NewGroup(hosts, Config{QueueDepth: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deployBoth(g.Submit)

	const workers, iters = 4, 30
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if w == 0 && it == 10 {
					g.mu.Lock()
					g.retire(1) // fail one replica mid-flight
					g.mu.Unlock()
				}
				if w == 0 && it == 20 {
					g.mu.Lock()
					g.readmit(1)
					g.mu.Unlock()
				}
				qi := (w*31 + it*7) % nq
				var resp reis.HostResponse
				for {
					var err error
					resp, err = g.Do(context.Background(), cmdFor(qi))
					if err == nil {
						break
					}
					if !errors.Is(err, reis.ErrQueueFull) {
						errc <- err
						return
					}
					runtime.Gosched() // saturated: retry like a client would
				}
				if !reflect.DeepEqual(resp.Results, want[qi].Results) ||
					!reflect.DeepEqual(resp.QueryStats, want[qi].QueryStats) {
					errc <- fmt.Errorf("worker %d iter %d: response differs from reference", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Routed != workers*iters {
		t.Fatalf("routed %d commands, want %d", st.Routed, workers*iters)
	}
}

// TestGroupFailoverAndRetirement drives the health machinery
// deterministically with uneven queue depths: the power-of-two-choices
// winner rejects (full depth-1 queue), the command fails over to the
// next-least-loaded replica, a rejection streak retires the replica,
// and draining its queue readmits it. With every queue full the group
// refuses with an error chain matching both errAllSaturated and
// reis.ErrQueueFull.
func TestGroupFailoverAndRetirement(t *testing.T) {
	hosts := []Host{newHost(t, 0, 1), newHost(t, 0, 1)}
	g, err := newGroup(hosts, Config{Seed: 1}, func(i int) int { return []int{1, 4}[i] })
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deploy := reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
	}}
	if _, err := g.Submit(deploy); err != nil {
		t.Fatal(err)
	}
	search := reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries[:1], K: 3}

	// Park completions to pin occupancy: replica 0 full at 1/1,
	// replica 1 at 2/4 — so replica 0 is the less-loaded p2c winner
	// but rejects every submission.
	park0, err := g.Queue(0).SubmitAsync(context.Background(), search)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.Queue(1).SubmitAsync(context.Background(), search); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := g.Do(context.Background(), search); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Failovers != 1 || st.Rejected != 1 || st.Replicas[0].Rejected != 1 {
		t.Fatalf("after first failover: %+v", st)
	}
	for i := 1; i < failStreak; i++ {
		if st = g.Stats(); st.Retirements != 0 || st.Replicas[0].Retired {
			t.Fatalf("streak of %d retired replica 0: %+v", i, st)
		}
		if _, err := g.Do(context.Background(), search); err != nil {
			t.Fatal(err)
		}
	}
	st = g.Stats()
	if st.Retirements != 1 || !st.Replicas[0].Retired || st.Failovers != failStreak {
		t.Fatalf("streak of %d did not retire replica 0: %+v", failStreak, st)
	}

	// Retired replicas are skipped outright: no new rejections.
	if _, err := g.Do(context.Background(), search); err != nil {
		t.Fatal(err)
	}
	if st = g.Stats(); st.Replicas[0].Rejected != failStreak {
		t.Fatalf("retired replica still probed: %+v", st)
	}

	// Draining replica 0's queue readmits it on the next route.
	if _, err := g.Queue(0).Wait(context.Background(), park0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Do(context.Background(), search); err != nil {
		t.Fatal(err)
	}
	st = g.Stats()
	if st.Readmissions != 1 || st.Replicas[0].Retired {
		t.Fatalf("drained replica not readmitted: %+v", st)
	}

	// Saturate every queue: the group refuses with the full chain.
	if _, err := g.Queue(0).SubmitAsync(context.Background(), search); err != nil {
		t.Fatal(err)
	}
	for g.Queue(1).Outstanding() < 4 {
		if _, err := g.Queue(1).SubmitAsync(context.Background(), search); err != nil {
			t.Fatal(err)
		}
	}
	_, err = g.Do(context.Background(), search)
	if !errors.Is(err, errAllSaturated) || !errors.Is(err, reis.ErrQueueFull) {
		t.Fatalf("saturated group returned %v, want errAllSaturated wrapping ErrQueueFull", err)
	}
}

// TestGroupBroadcastReachesRetired pins that retirement is a load
// signal only: a retired replica still applies every mutation, so its
// state never diverges and readmission needs no catch-up.
func TestGroupBroadcastReachesRetired(t *testing.T) {
	hosts := []Host{newHost(t, 0, 1), newHost(t, 0, 1)}
	g, err := NewGroup(hosts, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
	}}); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.retire(1)
	g.mu.Unlock()
	if _, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: svData.Vectors[svBase:], Docs: svData.Docs[svBase:]}}); err != nil {
		t.Fatal(err)
	}
	probe := reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries, K: 10}
	r0, err := g.reps[0].host.Submit(probe)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := g.reps[1].host.Submit(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatal("retired replica missed a broadcast mutation")
	}
}

// TestGroupBroadcastDivergence: a mutation that succeeds on one
// replica and fails on another (here: the database exists on only one
// host) must surface errDiverged, not silently return one side's
// answer.
func TestGroupBroadcastDivergence(t *testing.T) {
	e0, e1 := newHost(t, 0, 1), newHost(t, 0, 1)
	// Deploy db 1 on host 0 only, bypassing the group.
	if _, err := e0.Submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
	}}); err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup([]Host{e0, e1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, err = g.Submit(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: 1,
		Del: &reis.DeleteConfig{IDs: []int{0}}})
	if !errors.Is(err, errDiverged) {
		t.Fatalf("mixed broadcast outcome returned %v, want errDiverged", err)
	}
}

// flakyHost wraps a replica host, failing Submit with an injected
// error for selected opcodes a configured number of times (counted per
// opcode); every other command passes through.
type flakyHost struct {
	Host
	mu    sync.Mutex
	fails map[uint8]int
}

var errInjected = errors.New("injected replica fault")

func (f *flakyHost) Submit(cmd reis.HostCommand) (reis.HostResponse, error) {
	f.mu.Lock()
	if n := f.fails[cmd.Opcode]; n > 0 {
		f.fails[cmd.Opcode] = n - 1
		f.mu.Unlock()
		return reis.HostResponse{}, errInjected
	}
	f.mu.Unlock()
	return f.Host.Submit(cmd)
}

// deployFlatGroup deploys the flat base corpus (db 1) through the
// given submit surface.
func deployFlatGroup(t *testing.T, submit func(reis.HostCommand) (reis.HostResponse, error)) {
	t.Helper()
	if _, err := submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastRollsForwardReplicaFailure: a mutation broadcast that
// fails on ONE replica (transiently) is no longer all-or-nothing — the
// group rolls the failed member forward by retrying it, the command
// succeeds, and every replica converges to the same state.
func TestBroadcastRollsForwardReplicaFailure(t *testing.T) {
	flaky := &flakyHost{Host: newHost(t, 0, 1), fails: map[uint8]int{
		reis.OpcodeAppend:  1,
		reis.OpcodeDelete:  1,
		reis.OpcodeCompact: 1,
	}}
	hosts := []Host{newHost(t, 0, 1), flaky, newHost(t, 0, 1)}
	g, err := NewGroup(hosts, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deployFlatGroup(t, g.Submit)

	batch, batchDocs := svData.Vectors[svBase:], svData.Docs[svBase:]
	resp, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: batch, Docs: batchDocs}})
	if err != nil {
		t.Fatalf("append with one transiently failing replica: %v", err)
	}
	if len(resp.AppendedIDs) != len(batch) {
		t.Fatalf("append assigned %d ids, want %d", len(resp.AppendedIDs), len(batch))
	}
	if _, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeDelete, DBID: 1,
		Del: &reis.DeleteConfig{IDs: []int{3, resp.AppendedIDs[0]}}}); err != nil {
		t.Fatalf("delete with one transiently failing replica: %v", err)
	}
	if _, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeCompact, DBID: 1,
		Compact: &reis.CompactConfig{MinLiveRatio: 0.9}}); err != nil {
		t.Fatalf("compact with one transiently failing replica: %v", err)
	}

	// Convergence: every replica answers a direct probe identically.
	probe := reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries, K: 10}
	first, err := g.reps[0].host.Submit(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(hosts); i++ {
		got, err := g.reps[i].host.Submit(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, first.Results) {
			t.Fatalf("replica %d diverged after roll-forward", i)
		}
	}
}

// TestBroadcastDivergedAfterRetriesExhausted: a replica that keeps
// failing a mutation after every roll-forward retry leaves the group
// divergent, and the group says so with errDiverged instead of
// pretending the mutation half-applied cleanly.
func TestBroadcastDivergedAfterRetriesExhausted(t *testing.T) {
	flaky := &flakyHost{Host: newHost(t, 0, 1), fails: map[uint8]int{
		reis.OpcodeAppend: 1 << 20, // permanent
	}}
	hosts := []Host{newHost(t, 0, 1), flaky}
	g, err := NewGroup(hosts, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deployFlatGroup(t, g.Submit)

	_, err = g.Submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: svData.Vectors[svBase:], Docs: svData.Docs[svBase:]}})
	if !errors.Is(err, errDiverged) {
		t.Fatalf("permanently failing replica: error %v, want errDiverged", err)
	}
	// The first round plus broadcastRetries roll-forward attempts.
	if tries := 1<<20 - flaky.fails[reis.OpcodeAppend]; tries != 1+broadcastRetries {
		t.Fatalf("failing replica tried %d times, want %d", tries, 1+broadcastRetries)
	}
}

// TestBroadcastUnanimousFailureIsPlainError: when EVERY replica
// rejects a mutation identically, no state changed anywhere — that is
// not divergence, and the underlying error surfaces unwrapped.
func TestBroadcastUnanimousFailureIsPlainError(t *testing.T) {
	mk := func() Host {
		return &flakyHost{Host: newHost(t, 0, 1), fails: map[uint8]int{reis.OpcodeAppend: 1 << 20}}
	}
	hosts := []Host{mk(), mk(), mk()}
	g, err := NewGroup(hosts, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	deployFlatGroup(t, g.Submit)

	before, err := g.Do(context.Background(), reis.HostCommand{
		Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Submit(reis.HostCommand{Opcode: reis.OpcodeAppend, DBID: 1,
		Append: &reis.AppendConfig{Vectors: svData.Vectors[svBase:], Docs: svData.Docs[svBase:]}})
	if err == nil {
		t.Fatal("unanimous failure reported success")
	}
	if errors.Is(err, errDiverged) {
		t.Fatalf("unanimous failure misreported as divergence: %v", err)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("unanimous failure hid the replica error: %v", err)
	}
	after, err := g.Do(context.Background(), reis.HostCommand{
		Opcode: reis.OpcodeSearch, DBID: 1, Queries: svData.Queries, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatal("unanimous broadcast failure changed replica state")
	}
}
