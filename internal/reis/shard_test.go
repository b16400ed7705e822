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
)

// shardCounts is the device counts the cross-topology tests sweep.
var shardCounts = []int{1, 2, 4}

func newSharded(t *testing.T, n int) *ShardedEngine {
	t.Helper()
	sh, err := NewSharded(testCfg(), n, 64<<20, AllOptions())
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
	single, err := New(refOf(testCfg(), 4), 64<<20, AllOptions())
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
	if _, err := NewSharded(testCfg(), 0, 0, AllOptions()); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := NewSharded(testCfg(), -1, 0, AllOptions()); err == nil {
		t.Fatal("negative shard count accepted")
	}
	sh, err := NewSharded(testCfg(), 3, 0, AllOptions())
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
// still fails with errNotCalibrated; an undisturbed sweep records its
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
		if _, err := sh.Submit(cmd); !errors.Is(err, errNotCalibrated) {
			t.Fatalf("%d shard(s): TargetRecall after a mid-sweep commit: error = %v, want errNotCalibrated", n, err)
		}
		sh.testCalibStepHook = nil
		if _, err := sh.CalibrateNProbe(2, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, sh, cmd)
	}
}
