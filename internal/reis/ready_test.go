package reis

import (
	"context"
	"errors"
	"testing"
	"time"
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
// (including when one of its devices is closed underneath it).
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

	sh, err := NewSharded(testCfg(), 2, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Ready() {
		t.Fatal("new sharded router not Ready")
	}
	deployBoth(t, sh.Submit)
	// A closed device refuses every scan round, so the router must report
	// it — and a search through the router fails like one on a closed host.
	sh.devs[1].close()
	if sh.Ready() {
		t.Fatal("router with a closed device still Ready")
	}
	if _, err := sh.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 10}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("search over a closed device error = %v, want ErrQueueClosed", err)
	}
	sh.Close()
	if sh.Ready() {
		t.Fatal("closed router still Ready")
	}
}

// TestReadyWhileSearchHoldsDevices: the health probe answers while a
// command runs — it takes neither the execution lock nor a device lock,
// which a search holds for its whole duration — on one device and two.
func TestReadyWhileSearchHoldsDevices(t *testing.T) {
	e := newEngine(t, AllOptions())
	sh := newSharded(t, 2)
	for _, h := range []*hostCore{&e.hostCore, &sh.hostCore} {
		h.execMu.Lock()
		for _, d := range h.devs {
			d.mu.Lock()
		}
		ready := make(chan bool, 1)
		go func() { ready <- h.Ready() }()
		select {
		case ok := <-ready:
			if !ok {
				t.Errorf("%d device(s): not Ready during a search", len(h.devs))
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%d device(s): Ready waited behind a running search", len(h.devs))
		}
		h.unlockDevs()
		h.execMu.Unlock()
	}
}
