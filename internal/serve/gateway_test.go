package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reis/internal/reis"
)

// newTestGateway builds a gateway over a fresh single-replica group
// with the IVF test corpus deployed. Callers that don't Drain get the
// group closed at cleanup.
func newTestGateway(t *testing.T, cfg GatewayConfig, groupCfg Config) (*Gateway, *Group) {
	t.Helper()
	g, err := NewGroup([]Host{newHost(t, 0, 1)}, groupCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if _, err := g.Submit(reis.HostCommand{Opcode: reis.OpcodeIVFDeploy, Deploy: &reis.DeployConfig{
		ID: 1, Vectors: svData.Vectors[:svBase], Docs: svData.Docs[:svBase], DocSlotBytes: 256,
		Centroids: svCents, Assign: svAssign,
	}}); err != nil {
		t.Fatal(err)
	}
	cfg.Queries = svData.Queries
	cfg.NProbe = 4
	return NewGateway(g, cfg), g
}

func get(gw *Gateway, target string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	gw.Handler().ServeHTTP(w, r)
	return w
}

// TestGatewaySearch covers the happy path: JSON hits, a generated
// request id echoed on the response, and client-supplied ids
// propagated.
func TestGatewaySearch(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	w := get(gw, "/search?q=0&k=3", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if id := w.Header().Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID on response")
	}
	var out struct {
		Hits []struct {
			ID   int     `json:"id"`
			Dist float32 `json:"dist"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(out.Hits))
	}
	w = get(gw, "/search?q=1", map[string]string{"X-Request-ID": "client-7"})
	if got := w.Header().Get("X-Request-ID"); got != "client-7" {
		t.Fatalf("request id %q not propagated", got)
	}
	// A bad q is answered with what is wrong with it; only a q naming
	// several queries gets the hint about batches.
	for q, want := range map[string]string{
		"":           "q is required (sample-query index)",
		"notanumber": "q must be sample-query indexes in [0, ",
		"99999":      "q must be sample-query indexes in [0, ",
		"1,2":        "q must be a single sample-query index (use /search/stream for batches)",
	} {
		w = get(gw, "/search?q="+q, nil)
		if w.Code != http.StatusBadRequest || !strings.HasPrefix(w.Body.String(), want) {
			t.Fatalf("q=%q: status %d body %q, want 400 %q", q, w.Code, w.Body.String(), want)
		}
	}
}

// TestGatewayAuth: with a token configured, search routes require the
// bearer header while the health probe stays open.
func TestGatewayAuth(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{AuthToken: "s3cret"}, Config{})
	if w := get(gw, "/search?q=0", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", w.Code)
	}
	if w := get(gw, "/search?q=0", map[string]string{"Authorization": "Bearer wrong"}); w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", w.Code)
	}
	// The comparison is constant-time over the whole token: a proper
	// prefix, an extension and the empty token are all refused.
	for _, tok := range []string{"s3cre", "s3cret1", ""} {
		if w := get(gw, "/search?q=0", map[string]string{"Authorization": "Bearer " + tok}); w.Code != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401", tok, w.Code)
		}
	}
	if w := get(gw, "/search?q=0", map[string]string{"Authorization": "Bearer s3cret"}); w.Code != http.StatusOK {
		t.Fatalf("right token: status %d, want 200", w.Code)
	}
	if w := get(gw, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d, want 200", w.Code)
	}
}

// TestGatewayRateLimit: per-tenant token buckets refill at the
// configured rate (driven by an injected clock) and 429 with a
// Retry-After hint when empty; tenants are isolated.
func TestGatewayRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	gw, _ := newTestGateway(t, GatewayConfig{
		RateLimit: 1, RateBurst: 2,
		now: func() time.Time { return now },
	}, Config{})
	tenantA := map[string]string{"X-Tenant": "a"}
	for i := 0; i < 2; i++ {
		if w := get(gw, "/search?q=0", tenantA); w.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, w.Code)
		}
	}
	w := get(gw, "/search?q=0", tenantA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over burst: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant has its own bucket.
	if w := get(gw, "/search?q=0", map[string]string{"X-Tenant": "b"}); w.Code != http.StatusOK {
		t.Fatalf("tenant b throttled by tenant a: status %d", w.Code)
	}
	// One second refills one token.
	now = now.Add(time.Second)
	if w := get(gw, "/search?q=0", tenantA); w.Code != http.StatusOK {
		t.Fatalf("after refill: status %d", w.Code)
	}
}

// TestGatewayRateLimitBucketsBounded: the tenant name is the caller's
// choice, so the bucket map must not keep one entry per name ever seen.
// A bucket back at RateBurst is dropped; one still short of it — a
// throttled tenant — survives every sweep.
func TestGatewayRateLimitBucketsBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	gw, _ := newTestGateway(t, GatewayConfig{
		RateLimit: 1, RateBurst: 2,
		now: func() time.Time { return now },
	}, Config{})
	buckets := func() int {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		return len(gw.buckets)
	}
	hog := map[string]string{"X-Tenant": "hog"}
	for i := 0; i < 2; i++ {
		get(gw, "/search?q=0", hog)
	}
	// A crowd inside the hog's refill window: every name is live, the map
	// may hold them all, and no sweep may forgive the hog.
	for i := 0; i < 4*minBucketSweep; i++ {
		get(gw, "/search?q=0", map[string]string{"X-Tenant": fmt.Sprintf("crowd-%d", i)})
	}
	if w := get(gw, "/search?q=0", hog); w.Code != http.StatusTooManyRequests {
		t.Fatalf("throttled tenant after %d other tenants: status %d, want 429", 4*minBucketSweep, w.Code)
	}
	// One-off names, each a full refill window after the last: all but the
	// newest are back at RateBurst. The map never exceeds twice the crowd
	// that was live at once, and ends small however many names were seen.
	peak := 2*(4*minBucketSweep+1) + minBucketSweep
	for i := 0; i < 2000; i++ {
		now = now.Add(2 * time.Second)
		get(gw, "/search?q=0", map[string]string{"X-Tenant": fmt.Sprintf("once-%d", i)})
		if n := buckets(); n > peak {
			t.Fatalf("%d buckets after %d one-off tenants, bound %d", n, i+1, peak)
		}
	}
	if n := buckets(); n > 2*minBucketSweep {
		t.Fatalf("%d buckets left after 2000 one-off tenants", n)
	}
}

// TestGatewayQueueFullRetryAfter pins the backpressure satellite: a
// saturated replica group surfaces as 503 with a Retry-After hint and
// the rejection is counted in the route metrics (the old ragserver
// returned a bare 503 with neither).
func TestGatewayQueueFullRetryAfter(t *testing.T) {
	gw, g := newTestGateway(t, GatewayConfig{}, Config{QueueDepth: 1})
	// Park a command on the only replica's depth-1 queue: its
	// completion is never consumed, so the slot stays occupied and
	// every routed submission deterministically rejects.
	if _, err := g.Queue(0).SubmitAsync(context.Background(), reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: svData.Queries[:1], K: 3, Opt: reis.SearchOptions{NProbe: 4},
	}); err != nil {
		t.Fatal(err)
	}
	w := get(gw, "/search?q=0", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	sw := get(gw, "/stats", nil)
	var stats struct {
		Routes map[string]routeMetrics `json:"routes"`
		Group  GroupStats              `json:"group"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if m := stats.Routes["/search"]; m.Rejected != 1 || m.Status5xx != 1 {
		t.Fatalf("rejection not counted: %+v", m)
	}
	if stats.Group.Rejected == 0 {
		t.Fatalf("group rejection counter empty: %+v", stats.Group)
	}
}

// TestGatewayStream: a batch request streams NDJSON, one line per
// query as it completes, each carrying its query index.
func TestGatewayStream(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	w := get(gw, "/search/stream?q=0,1,2&k=4", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if !w.Flushed {
		t.Fatal("stream never flushed")
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		var line struct {
			Q     int    `json:"q"`
			Hits  []any  `json:"hits"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("query %d failed: %s", line.Q, line.Error)
		}
		if len(line.Hits) != 4 {
			t.Fatalf("query %d: %d hits, want 4", line.Q, len(line.Hits))
		}
		seen[line.Q] = true
	}
	if len(seen) != 3 || !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("streamed queries %v, want {0,1,2}", seen)
	}
}

// TestGatewayStreamLinesUnchanged: each streamed line is the bytes the
// NDJSON encoder gives a query's hits as an unreleased response carries
// them, although every line's response is released as soon as its hits
// are copied out. The stream names each sample query four times, and
// released GET /search requests of another k run beside it, so released
// blocks are refilled by other dispatches while lines are still being
// built.
func TestGatewayStreamLinesUnchanged(t *testing.T) {
	// Deep enough that no line of the stream is refused for a full queue.
	gw, g := newTestGateway(t, GatewayConfig{}, Config{QueueDepth: 64})
	want := map[string]int{}
	var idxs []string
	for range 4 {
		for qi := range svData.Queries {
			idxs = append(idxs, fmt.Sprint(qi))
			resp, err := g.Submit(gw.searchCmd(qi, 6))
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(streamLine{Q: qi, Hits: hits(resp.Results[0])})
			if err != nil {
				t.Fatal(err)
			}
			want[string(line)]++
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				get(gw, fmt.Sprintf("/search?q=%d&k=10", i%len(svData.Queries)), nil)
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for range 5 {
		w := get(gw, "/search/stream?k=6&q="+strings.Join(idxs, ","), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		got := map[string]int{}
		sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
		for sc.Scan() {
			got[sc.Text()]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed lines differ from the unreleased responses' encoding:\ngot  %v\nwant %v", got, want)
		}
	}
}

// TestGatewayLatencyQuantiles: /stats reports each route's handler-time
// quantiles beside its total and maximum, and they move as requests are
// served: absent before any request, every quantile the one sample's
// bucket after the first, and p999 the largest sample's bucket (within
// the sketch's 1 % error) after more.
func TestGatewayLatencyQuantiles(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	route := func() routeMetrics {
		var stats struct {
			Routes map[string]routeMetrics `json:"routes"`
		}
		if err := json.Unmarshal(get(gw, "/stats", nil).Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.Routes["/search"]
	}
	near := func(q, ns int64) bool { return math.Abs(float64(q-ns)) <= 0.0101*float64(ns)+1 }
	if m := route(); m != (routeMetrics{}) {
		t.Fatalf("/search before any request: %+v", m)
	}
	get(gw, "/search?q=1&k=3", nil)
	one := route()
	if one.Requests != 1 || one.P50Ns <= 0 || one.P50Ns != one.P99Ns || one.P99Ns != one.P999Ns || !near(one.P999Ns, one.MaxNs) {
		t.Fatalf("/search after one request: %+v", one)
	}
	for i := range 20 {
		get(gw, fmt.Sprintf("/search?q=%d&k=%d", i%len(svData.Queries), 1+i*50), nil)
	}
	more := route()
	if more.Requests != 21 || !near(more.P999Ns, more.MaxNs) || more.P50Ns > more.P99Ns || more.P99Ns > more.P999Ns {
		t.Fatalf("/search after 21 requests: %+v", more)
	}
	if more.P999Ns == one.P999Ns && more.P50Ns == one.P50Ns {
		t.Fatalf("/search quantiles did not move over 20 requests: %+v, then %+v", one, more)
	}
}

// TestGatewayDrain: draining stops admission with 503 + Retry-After,
// flips the health probe, finishes in-flight work, and closes the
// replica group.
func TestGatewayDrain(t *testing.T) {
	gw, g := newTestGateway(t, GatewayConfig{}, Config{})
	if w := get(gw, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("pre-drain healthz: %d", w.Code)
	}
	if err := gw.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := get(gw, "/search?q=0", nil)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("post-drain search: status %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
	if w := get(gw, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d, want 503", w.Code)
	}
	if _, err := g.Do(context.Background(), reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: svData.Queries[:1], K: 3, Opt: reis.SearchOptions{NProbe: 4},
	}); err != errGroupClosed {
		t.Fatalf("group not closed after drain: %v", err)
	}
}

// TestGatewayDrainAdmitsNothingLate: admission and Drain's flag share
// one critical section, so no handler starts once Drain has returned and
// closed the group. (admit used to read the flag, then join the
// in-flight count: a request between the two ran after the drain.)
func TestGatewayDrainAdmitsNothingLate(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/search?q=0", nil)
	for i := 0; i < 200; i++ {
		g, err := NewGroup([]Host{newHost(t, 0, 1)}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		gw := NewGateway(g, GatewayConfig{})
		var drained atomic.Bool
		var late atomic.Int64
		h := gw.admit()(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			if drained.Load() {
				late.Add(1)
			}
		}))
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code == http.StatusServiceUnavailable {
						return
					}
				}
			}()
		}
		if err := gw.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		drained.Store(true)
		wg.Wait()
		if n := late.Load(); n != 0 {
			t.Fatalf("iteration %d: %d handlers started after Drain returned", i, n)
		}
	}
}

// TestGatewayRejectsBadInput: request parameters are bounded at the
// door. A k that is unparsable, non-positive or huge — the last used to
// overflow the rerank pool and kill the process from a dispatcher
// goroutine — and a stream batch past the cap all answer 400 on both
// routes, and the gateway keeps serving.
func TestGatewayRejectsBadInput(t *testing.T) {
	gw, _ := newTestGateway(t, GatewayConfig{}, Config{})
	batch := strings.TrimSuffix(strings.Repeat("0,", maxStreamBatch), ",")
	for _, target := range []string{
		"/search?q=0&k=922337203685477581",
		"/search?q=0&k=-1",
		"/search?q=0&k=0",
		"/search?q=0&k=ten",
		"/search?q=0&k=99999999999999999999",
		fmt.Sprintf("/search?q=0&k=%d", maxK+1),
		"/search/stream?q=0,1&k=922337203685477581",
		"/search/stream?q=0,1&k=x",
		"/search/stream?k=3&q=" + batch + ",0",
	} {
		if w := get(gw, target, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("%.60s: status %d, want 400: %s", target, w.Code, w.Body.String())
		}
	}
	for _, target := range []string{
		fmt.Sprintf("/search?q=0&k=%d", maxK),
		"/search/stream?k=1&q=" + batch,
	} {
		if w := get(gw, target, nil); w.Code != http.StatusOK {
			t.Fatalf("%.60s: status %d, want 200: %s", target, w.Code, w.Body.String())
		}
	}
}
