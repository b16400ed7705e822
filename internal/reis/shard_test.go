package reis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"reis/internal/ann"
	"reis/internal/ssd"
)

// shardTestCfg shrinks SSD1 while keeping multiple channels, dies and
// planes per die. Each shard is one such device; the equivalence
// reference for n shards is the same config with n times the channels.
func shardTestCfg() ssd.Config {
	cfg := ssd.SSD1()
	cfg.Geo.Channels = 2
	cfg.Geo.DiesPerChannel = 2
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 32
	cfg.Geo.PagesPerBlock = 16
	cfg.Geo.PageBytes = 4096
	cfg.Geo.OOBBytes = 1024
	return cfg
}

// refCfg is the single-device equivalent of n shards: n times the
// channels of the shared config.
func refCfg(n int) ssd.Config {
	cfg := shardTestCfg()
	cfg.Geo.Channels *= n
	return cfg
}

// shardCounts is the sweep the equivalence tests pin.
var shardCounts = []int{1, 2, 4}

func newSharded(t *testing.T, n int) *ShardedEngine {
	t.Helper()
	sh, err := NewSharded(shardTestCfg(), n, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// deployBoth deploys the shared test dataset flat (id 1) and IVF
// (id 2) through any host's deploy commands.
func deployBoth(t *testing.T, submit func(HostCommand) (HostResponse, error)) {
	t.Helper()
	if _, err := submit(HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
	}}); err != nil {
		t.Fatal(err)
	}
	cents, assign := ann.KMeans(testData.Vectors, ann.KMeansConfig{K: 16, Seed: 9})
	if _, err := submit(HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{
		ID: 2, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
		Centroids: cents, Assign: assign,
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSingleDevice pins the determinism contract of the
// sharded topology: for shards in {1, 2, 4}, every search entry point
// returns results AND aggregated device stats bit-identical to the
// single-device reference (one device with n times the channels — the
// same aggregate hardware) over the same data. Results are also
// identical ACROSS shard counts, since the merged entry stream does
// not depend on geometry at all.
func TestShardedMatchesSingleDevice(t *testing.T) {
	queries := testData.Queries
	tag := testData.ClusterOf[testData.GroundTruth[0][0]] % 4
	metaTag := uint8(tag)
	cases := []struct {
		name string
		cmd  HostCommand
	}{
		{"flat", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10}},
		{"flat-skipdocs", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10, Opt: SearchOptions{SkipDocs: true}}},
		{"flat-metatag", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries[:6], K: 10, Opt: SearchOptions{MetaTag: &metaTag}}},
		{"ivf-np1", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 1}}},
		{"ivf-np3", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 3}}},
		{"ivf-full", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 16}}},
	}

	var firstResults [][][]DocResult // [case][query] results of the first shard count
	for _, n := range shardCounts {
		single, err := New(refCfg(n), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { single.Close() })
		deployBoth(t, single.Submit)
		sh := newSharded(t, n)
		deployBoth(t, sh.Submit)

		for i, tc := range cases {
			want, err := single.Submit(tc.cmd)
			if err != nil {
				t.Fatalf("reference n=%d %s: %v", n, tc.name, err)
			}
			got, err := sh.Submit(tc.cmd)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", n, tc.name, err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("shards=%d %s: results differ from single device", n, tc.name)
			}
			if !reflect.DeepEqual(got.QueryStats, want.QueryStats) {
				t.Fatalf("shards=%d %s: per-query stats differ: %s",
					n, tc.name, firstDiffStat(got.QueryStats, want.QueryStats))
			}
			if got.Stats != want.Stats {
				t.Fatalf("shards=%d %s: aggregated stats differ:\n got %+v\nwant %+v",
					n, tc.name, got.Stats, want.Stats)
			}
			if firstResults == nil {
				firstResults = make([][][]DocResult, len(cases))
			}
			if firstResults[i] == nil {
				firstResults[i] = got.Results
			} else if !reflect.DeepEqual(got.Results, firstResults[i]) {
				t.Fatalf("shards=%d %s: results differ across shard counts", n, tc.name)
			}
			// The per-shard views must re-aggregate to the reported
			// stats: count-type events sum across shards.
			if len(got.PerShard) != n {
				t.Fatalf("shards=%d %s: PerShard has %d entries", n, tc.name, len(got.PerShard))
			}
			for qi := range got.QueryStats {
				scanned, survivors, pages, ibc, loads, total := 0, 0, 0, 0, 0, 0
				for s := range got.PerShard {
					ps := got.PerShard[s][qi]
					scanned += ps.EntriesScanned
					survivors += ps.Survivors
					pages += ps.CoarsePages + ps.FinePages
					ibc += ps.IBCBroadcasts
					loads = max(loads, ps.IBCLoads)
					total += ps.IBCTotalLoads
				}
				st := got.QueryStats[qi]
				if scanned != st.EntriesScanned || survivors != st.Survivors ||
					pages != st.CoarsePages+st.FinePages || ibc != st.IBCBroadcasts || total != st.IBCTotalLoads {
					t.Fatalf("shards=%d %s: per-shard stats do not sum to query %d's aggregate", n, tc.name, qi)
				}
				// The busiest channel of the reference is the busiest
				// channel of the busiest shard.
				if loads != st.IBCLoads || loads == 0 {
					t.Fatalf("shards=%d %s: query %d: largest per-shard IBCLoads %d, aggregate %d",
						n, tc.name, qi, loads, st.IBCLoads)
				}
				// One member: its row is the query's whole scan phase,
				// wave counts included — the N=1 identity the timing
				// model prices by.
				if scan := (QueryStats{
					CoarseWaves: st.CoarseWaves, FineWaves: st.FineWaves,
					CoarsePages: st.CoarsePages, FinePages: st.FinePages,
					EntriesScanned: st.EntriesScanned, Survivors: st.Survivors, TTLBytes: st.TTLBytes,
					IBCBroadcasts: st.IBCBroadcasts, IBCLoads: st.IBCLoads, IBCTotalLoads: st.IBCTotalLoads,
					CoarseEntries: st.CoarseEntries, CoarseSurvivors: st.CoarseSurvivors,
				}); n == 1 && got.PerShard[0][qi] != scan {
					t.Fatalf("shards=1 %s: query %d's lone per-shard row %+v is not its scan phase %+v",
						tc.name, qi, got.PerShard[0][qi], scan)
				}
			}
		}

		// A one-query command agrees with the batched one on results.
		res, _ := searchOne(t, sh, OpcodeIVFSearch, 2, queries[0], 10, SearchOptions{NProbe: 3})
		if !reflect.DeepEqual(res, firstResults[4][0]) {
			t.Fatalf("shards=%d: one-query IVF_Search differs from the batched command", n)
		}
	}
}

// firstDiffStat pinpoints the first differing per-query stats record
// for the failure message.
func firstDiffStat(got, want []QueryStats) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("query %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return "equal"
}

// TestShardedCalibrationMatchesSingleDevice: the calibrated nprobe and
// the TargetRecall-addressed search are identical across topologies.
func TestShardedCalibrationMatchesSingleDevice(t *testing.T) {
	single, err := New(shardTestCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	deployBoth(t, single.Submit)
	// A ground truth shorter than the query set is the caller's error,
	// not an index panic.
	short := testData.GroundTruth[:len(testData.Queries)-1]
	if _, err := single.CalibrateNProbe(2, testData.Queries, short, 10, 0.9); err == nil {
		t.Error("single device calibrated against a ground truth shorter than the query set")
	}
	npSingle, err := single.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, TargetRecall: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardCounts[1:] {
		sh := newSharded(t, n)
		deployBoth(t, sh.Submit)
		if _, err := sh.CalibrateNProbe(2, testData.Queries, short, 10, 0.9); err == nil {
			t.Errorf("shards=%d: calibrated against a ground truth shorter than the query set", n)
		}
		np, err := sh.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if np != npSingle {
			t.Fatalf("shards=%d: calibrated nprobe %d, single device %d", n, np, npSingle)
		}
		got, err := sh.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, TargetRecall: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("shards=%d: TargetRecall search differs from single device", n)
		}
	}
}

// TestShardedDeterministicAcrossRuns: identical commands produce
// identical completions run to run on the sharded topology.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	sh := newSharded(t, 2)
	deployBoth(t, sh.Submit)
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}}
	first, err := sh.Submit(cmd)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		again, err := sh.Submit(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Results, first.Results) || !reflect.DeepEqual(again.QueryStats, first.QueryStats) {
			t.Fatalf("run %d: sharded results not deterministic", run)
		}
	}
}

// TestShardedQueueStress hammers one router queue pair from concurrent
// submitters (run under -race in CI): every command completes, and
// every completion is bit-identical to the synchronous single-device
// answer regardless of coalescing or scheduling.
func TestShardedQueueStress(t *testing.T) {
	single, err := New(refCfg(4), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	deployBoth(t, single.Submit)
	sh := newSharded(t, 4)
	deployBoth(t, sh.Submit)

	queries := testData.Queries
	want := make([]HostResponse, len(queries))
	for i, q := range queries {
		resp, err := single.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: [][]float32{q}, K: 5, Opt: SearchOptions{NProbe: 2}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp
	}

	q, err := sh.NewQueue(QueueConfig{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const submitters = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += submitters {
				cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: [][]float32{queries[i]}, K: 5, Opt: SearchOptions{NProbe: 2}}
				var resp HostResponse
				for {
					id, err := q.SubmitAsync(context.Background(), cmd)
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						errs <- err
						return
					}
					resp, err = q.Wait(context.Background(), id)
					if err != nil {
						errs <- err
						return
					}
					break
				}
				if !reflect.DeepEqual(resp.Results, want[i].Results) {
					errs <- fmt.Errorf("query %d: sharded async results differ from single device", i)
					return
				}
				if !reflect.DeepEqual(resp.QueryStats, want[i].QueryStats) {
					errs <- fmt.Errorf("query %d: sharded async stats differ from single device", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNewShardedValidation: shard counts must be positive; any
// positive count is a valid topology (each shard is a full device).
func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(shardTestCfg(), 0, 0, AllOptions()); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := NewSharded(shardTestCfg(), -1, 0, AllOptions()); err == nil {
		t.Fatal("negative shard count accepted")
	}
	sh, err := NewSharded(shardTestCfg(), 3, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", sh.Shards())
	}
}

// TestShardView: Shard(s) is device s's SSD behind a host half that is
// closed from the start — every host call fails with ErrQueueClosed,
// no database answers, nothing starts, and closing the view leaves the
// device serving its router.
func TestShardView(t *testing.T) {
	sh := newSharded(t, 2)
	deployBoth(t, sh.Submit)
	search := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:2], K: 10, Opt: SearchOptions{NProbe: 4}}
	before := runtime.NumGoroutine()
	for s := range sh.Shards() {
		v := sh.Shard(s)
		if v.SSD != sh.devs[s].SSD {
			t.Fatalf("Shard(%d).SSD is not device %d's", s, s)
		}
		if _, err := v.Submit(search); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("Shard(%d).Submit error = %v, want ErrQueueClosed", s, err)
		}
		if _, err := v.NewQueue(QueueConfig{}); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("Shard(%d).NewQueue error = %v, want ErrQueueClosed", s, err)
		}
		if _, err := v.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("Shard(%d).CalibrateNProbe error = %v, want ErrQueueClosed", s, err)
		}
		if _, err := v.DB(2); err == nil {
			t.Errorf("Shard(%d).DB(2) answered", s)
		}
		if v.Ready() {
			t.Errorf("Shard(%d) is Ready", s)
		}
		v.Close()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the views' calls, %d before", after, before)
	}
	if !sh.Ready() {
		t.Fatal("closing a view closed its device")
	}
	mustSubmit(t, sh, search)
}

// TestShardsCalibrateAcrossCommit: a mutation that commits after a step
// of a CalibrateNProbe sweep leaves no calibration behind — the sweep
// measured a corpus that no longer exists — so a TargetRecall search
// still fails with ErrNotCalibrated; an undisturbed sweep records its
// point.
func TestShardsCalibrateAcrossCommit(t *testing.T) {
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:2], K: 10, TargetRecall: 0.9}
	add := HostCommand{Opcode: OpcodeAppend, DBID: 2, Append: &AppendConfig{
		Vectors: testData.Vectors[:1], Docs: testData.Docs[:1], Assign: []int{0},
	}}
	for _, n := range []int{1, 2} {
		sh, err := NewSharded(gcTestCfg(), n, 64<<20, AllOptions()) // room to append
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		deployBoth(t, sh.Submit)
		steps := 0
		sh.testCalibStepHook = func() {
			if steps++; steps == 1 {
				mustSubmit(t, sh, add)
			}
		}
		if _, err := sh.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
			t.Fatal(err)
		}
		if steps == 0 {
			t.Fatalf("%d shard(s): the sweep ran no step", n)
		}
		if _, err := sh.Submit(cmd); !errors.Is(err, ErrNotCalibrated) {
			t.Fatalf("%d shard(s): TargetRecall after a mid-sweep commit: error = %v, want ErrNotCalibrated", n, err)
		}
		sh.testCalibStepHook = nil
		if _, err := sh.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, sh, cmd)
	}
}
