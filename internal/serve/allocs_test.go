package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
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
// trip, the scan rounds and the controller tail — allocates what the
// caller keeps (the response's results, stats, and one block of document
// bytes: 4), not a structure per layer (24 before the route, waiter,
// dispatch-group, scan-round and document pools). The budget leaves room
// for the race detector, under which sync.Pool drops a quarter of what it
// is handed.
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
	if got > 6 {
		t.Errorf("Group.Do: %.1f allocs per 1-query IVF command, budget 6", got)
	}
}

// TestGatewaySearchAllocs is the allocation budget of a whole GET /search
// under the handler — the mux, the middleware chain, parsing, Group.Do
// and the body — on a writer that allocates nothing itself: Group.Do's 4
// and none of the gateway's own (52 before; 6–7 under the race detector,
// see TestGroupDoAllocs).
func TestGatewaySearchAllocs(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	r := httptest.NewRequest(http.MethodGet, "/search?q=3&k=10", nil)
	r.Header.Set("X-Request-ID", "alloc-1")
	w := &stubWriter{hdr: make(http.Header)}
	h := gw.Handler()
	got := testing.AllocsPerRun(200, func() {
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
		if w.status != 0 && w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("GET /search: status %d, %d body bytes", w.status, w.n)
		}
	})
	t.Logf("GET /search: %.1f allocs per request", got)
	if got > 10 {
		t.Errorf("GET /search: %.1f allocs per request, budget 10", got)
	}
}
