package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"reis/internal/reis"
)

// stubWriter is a reusable http.ResponseWriter that keeps nothing: what
// the handler allocates under it is the handler's own.
type stubWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *stubWriter) Header() http.Header         { return w.hdr }
func (w *stubWriter) WriteHeader(code int)        { w.status = code }
func (w *stubWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestGroupDoAllocs is the allocation budget of the read path below the
// gateway, beside reis.TestOneDeviceCommandAllocs: a one-query IVF k=10
// command through Group.Do on one replica — routing, the queue round
// trip, the scan rounds and the controller tail — allocates what a caller
// that keeps the response keeps (its results header, stats and results
// block: 3; the documents are views of flash), not a structure per layer
// (24 before the route, waiter, dispatch-group, scan-round and document
// pools). The budget leaves room for the race detector, under which
// sync.Pool drops a quarter of what it is handed.
func TestGroupDoAllocs(t *testing.T) {
	_, g := newTestGateway(t, GatewayConfig{}, Config{})
	cmd := reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1, K: 10,
		Queries: svData.Queries[:1], Opt: reis.SearchOptions{NProbe: 4},
	}
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		resp, err := g.Do(ctx, cmd)
		if err != nil || len(resp.Results[0]) != 10 {
			t.Fatalf("Do: %d results, err %v", len(resp.Results), err)
		}
	})
	t.Logf("Group.Do: %.1f allocs per 1-query IVF command", got)
	if got > 5 {
		t.Errorf("Group.Do: %.1f allocs per 1-query IVF command, budget 5", got)
	}
}

// TestGatewaySearchAllocs is the allocation budget of a whole GET /search
// under the handler — the mux, the middleware chain (the route's latency
// sketch included), parsing, Group.Do and the body — on a writer that
// allocates nothing itself: none, since the handler releases the response
// once the body holds what it needs and the next request's command fills
// the same blocks.
func TestGatewaySearchAllocs(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	r := httptest.NewRequest(http.MethodGet, "/search?q=3&k=10", nil)
	r.Header.Set("X-Request-ID", "alloc-1")
	w := &stubWriter{hdr: make(http.Header)}
	h := gw.Handler()
	serve := func() {
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
		if w.status != 0 && w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("GET /search: status %d, %d body bytes", w.status, w.n)
		}
	}
	for range 50 {
		serve() // fills the pools and the route's latency buckets
	}
	got := testing.AllocsPerRun(200, serve)
	t.Logf("GET /search: %.1f allocs per request", got)
	// The request's own pools (status writer, body buffer) thin under the
	// race detector too: 4-5 measured there.
	budget := 0.0
	if raceEnabled {
		budget = 8
	}
	if got > budget {
		t.Errorf("GET /search: %.1f allocs per request, budget %.0f", got, budget)
	}
}

// TestReleasedResponseAllocs: a search command whose response is released
// allocates nothing in the steady state — through Group.Do, the queue
// round trip, the scan rounds and the tail — because the next command
// fills the output blocks the released one handed back. Covered on one
// device and on sharded hosts of 2 and 4, for flat and IVF commands, and
// on a cached host for result-cache hits and for misses, whose inserts
// recycle the records the full LRU evicts.
func TestReleasedResponseAllocs(t *testing.T) {
	// Nothing, except under the race detector, where sync.Pool drops a
	// quarter of what it is handed: a dropped output record costs the next
	// command its fresh blocks (3 to 5) and the Release after it an empty
	// record, a dropped waiter channel one. 2-4 are measured there.
	budget := 0.0
	if raceEnabled {
		budget = 6
	}
	// Queries no command has seen: each one misses.
	fresh := make([][]float32, 256)
	for i := range fresh {
		fresh[i] = slices.Clone(svData.Queries[i%len(svData.Queries)])
		fresh[i][0] += float32(i+1) * 1e-3
	}
	for _, host := range []struct {
		name   string
		cache  int64
		shards int
	}{{"1 device", 0, 1}, {"2 shards", 0, 2}, {"4 shards", 0, 4}, {"cached", 64 << 10, 1}} {
		g, err := NewGroup([]Host{newHost(t, host.cache, host.shards)}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		base, docs := svData.Vectors[:svBase], svData.Docs[:svBase]
		for _, cmd := range []reis.HostCommand{
			{Opcode: reis.OpcodeDBDeploy, Deploy: &reis.DeployConfig{ID: 1, Vectors: base, Docs: docs, DocSlotBytes: 256}},
			{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{ID: 2, Vectors: base, Docs: docs, DocSlotBytes: 256, Centroids: svCents, Assign: svAssign}},
		} {
			if _, err := g.Submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range []struct {
			name string
			cmd  reis.HostCommand
		}{
			{"flat", reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: 1, K: 10}},
			{"ivf", reis.HostCommand{Opcode: reis.OpcodeIVFSearch, DBID: 2, K: 10, Opt: reis.SearchOptions{NProbe: 4}}},
		} {
			for _, miss := range []bool{false, true} {
				if miss && host.cache == 0 {
					continue // an uncached host has no hits to tell apart
				}
				what := fmt.Sprintf("%s, %s", host.name, kind.name)
				if host.cache > 0 {
					what += map[bool]string{false: ", hits", true: ", misses"}[miss]
				}
				next, cmd := 0, kind.cmd
				ctx := context.Background()
				var failed error
				do := func() {
					cmd.Queries = svData.Queries[:1]
					if miss {
						next++
						cmd.Queries = fresh[next%len(fresh) : next%len(fresh)+1]
					}
					resp, err := g.Do(ctx, cmd)
					if err != nil || len(resp.Results[0]) != 10 || len(resp.Results[0][0].Doc) == 0 {
						failed = fmt.Errorf("%s: %d results, err %v", what, len(resp.Results), err)
						return
					}
					if hit := resp.QueryStats[0].ResultCacheHits == 1; host.cache > 0 && hit == miss {
						failed = fmt.Errorf("%s: a query's cache outcome is not the one set up", what)
					}
					resp.Release()
				}
				for range 2 * len(fresh) {
					do() // fills the pool, the LRU and every pooled scratch
				}
				failed = nil // the hit command's first run missed
				got := testing.AllocsPerRun(200, do)
				if failed != nil {
					t.Fatal(failed)
				}
				t.Logf("%s: %.1f allocs per released command", what, got)
				if got > budget {
					t.Errorf("%s: %.1f allocs per released command, budget %.0f", what, got, budget)
				}
			}
		}
	}
}
