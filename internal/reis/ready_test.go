package reis

import (
	"context"
	"errors"
	"testing"
)

// TestQueueDepthOccupancy pins the queue-pair load accessors replica
// routers read: Depth is the configured admission bound (defaulted
// when zero), Occupancy tracks Outstanding/Depth as slots are taken
// and released.
func TestQueueDepthOccupancy(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)

	q, err := e.NewQueue(QueueConfig{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.Depth(); got != 4 {
		t.Fatalf("Depth() = %d, want 4", got)
	}
	if got := q.Occupancy(); got != 0 {
		t.Fatalf("idle Occupancy() = %v, want 0", got)
	}

	// Occupy two slots: completions are not consumed, so the commands
	// hold their slots even after execution finishes.
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3}
	ids := make([]CommandID, 2)
	for i := range ids {
		if ids[i], err = q.SubmitAsync(context.Background(), cmd); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Outstanding(); got != 2 {
		t.Fatalf("Outstanding() = %d, want 2", got)
	}
	if got := q.Occupancy(); got != 0.5 {
		t.Fatalf("Occupancy() = %v, want 0.5", got)
	}
	for _, id := range ids {
		if _, err := q.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Occupancy(); got != 0 {
		t.Fatalf("drained Occupancy() = %v, want 0", got)
	}

	// A zero Depth defaults like SubmitAsync admission does.
	qd, err := e.NewQueue(QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer qd.Close()
	if got := qd.Depth(); got != DefaultQueueDepth {
		t.Fatalf("default Depth() = %d, want %d", got, DefaultQueueDepth)
	}
}

// TestEngineReady pins the health probe: a live engine is Ready, a
// closed one is not, and the sharded router mirrors the same contract
// (including when a member device is closed underneath it).
func TestEngineReady(t *testing.T) {
	e, err := New(testCfg(), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Fatal("new engine not Ready")
	}
	e.Close()
	if e.Ready() {
		t.Fatal("closed engine still Ready")
	}

	sh, err := NewSharded(shardTestCfg(), 2, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Ready() {
		t.Fatal("new sharded router not Ready")
	}
	deployBoth(t, sh.Submit)
	// A closed member refuses every scan round, so the router must report
	// it — and a search through the router fails like one on a closed host.
	sh.Shard(1).Close()
	if sh.Ready() {
		t.Fatal("router with a closed member still Ready")
	}
	if _, err := sh.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 10}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("search over a closed member error = %v, want ErrQueueClosed", err)
	}
	sh.Close()
	if sh.Ready() {
		t.Fatal("closed router still Ready")
	}
}
