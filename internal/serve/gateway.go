// The production gateway over a replica Group: a composable net/http
// middleware chain (request IDs, bearer auth, per-tenant token-bucket
// rate limiting, per-route metrics/latency), JSON search, NDJSON
// streaming batch search (per-query results flush as they complete),
// health and stats endpoints, backpressure with Retry-After, and
// graceful drain (stop admitting, finish in-flight, then Close the
// group).

package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reis/internal/reis"
)

// middleware wraps an http.Handler — the composable unit of the
// gateway's chain.
type middleware func(http.Handler) http.Handler

// chain applies middlewares outermost-first: chain(h, a, b) serves
// requests through a(b(h)).
func chain(h http.Handler, mw ...middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// GatewayConfig configures a Gateway. The zero value serves database 1
// with k=5, nprobe=6, no auth and no rate limit.
type GatewayConfig struct {
	// DBID is the database searches address (zero means 1).
	DBID int
	// DefaultK / NProbe are the per-query defaults when the request
	// omits k (zero means 5 and 6).
	DefaultK int
	NProbe   int
	// Queries is the held-out sample query set requests address by
	// index (?q=17) — the device is simulated, so there is no text
	// encoder in front.
	Queries [][]float32
	// AuthToken, when non-empty, requires "Authorization: Bearer
	// <token>" on every route except /healthz.
	AuthToken string
	// RateLimit is the per-tenant sustained request rate in req/s
	// (token bucket; zero disables limiting). RateBurst is the bucket
	// capacity (zero means max(1, ceil(RateLimit))).
	RateLimit float64
	RateBurst int
	// now is the clock the rate limiter reads (tests inject a fake).
	now func() time.Time
}

// routeMetrics is one route's counters as /stats reports them.
type routeMetrics struct {
	Requests uint64 `json:"requests"`
	// Status4xx / Status5xx count error responses; Rejected counts the
	// 503s caused by a saturated replica group (every Rejected is also
	// a Status5xx).
	Status4xx uint64 `json:"status_4xx"`
	Status5xx uint64 `json:"status_5xx"`
	Rejected  uint64 `json:"rejected"`
	// TotalNs / MaxNs aggregate handler latency; P50Ns / P99Ns / P999Ns
	// are its quantiles, within the sketch's 1 % relative error.
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P99Ns   int64 `json:"p99_ns"`
	P999Ns  int64 `json:"p999_ns"`
}

// routeCounters accumulates one route's routeMetrics. Every request
// updates them, so the counters are atomics, not fields under the
// gateway's lock; the handler-time distribution is a sketch under its
// own lock, which a request holds only to add one sample (an existing
// bucket's count, so a served request allocates nothing there).
type routeCounters struct {
	requests, status4xx, status5xx, rejected atomic.Uint64
	totalNs, maxNs                           atomic.Int64

	mu  sync.Mutex
	lat *reis.LatencySketch
}

func (c *routeCounters) snapshot() routeMetrics {
	m := routeMetrics{
		Requests: c.requests.Load(), Status4xx: c.status4xx.Load(), Status5xx: c.status5xx.Load(),
		Rejected: c.rejected.Load(), TotalNs: c.totalNs.Load(), MaxNs: c.maxNs.Load(),
	}
	c.mu.Lock()
	m.P50Ns, m.P99Ns, m.P999Ns = int64(c.lat.Quantile(0.5)), int64(c.lat.Quantile(0.99)), int64(c.lat.Quantile(0.999))
	c.mu.Unlock()
	return m
}

// Gateway is the HTTP front of a replica group.
type Gateway struct {
	group *Group
	cfg   GatewayConfig

	handler http.Handler
	reqSeq  atomic.Uint64
	// routes holds every route's counters; the map is fixed at
	// construction.
	routes map[string]*routeCounters

	// A handler holds drain's read side while it serves, and only once it
	// has seen draining unset under it; Drain sets draining and then takes
	// the write side. So Drain's wait covers every admitted request and
	// none starts after it.
	drain    sync.RWMutex
	draining atomic.Bool

	mu sync.Mutex
	// buckets holds the tenants that are short of a full bucket; once
	// len(buckets) reaches sweepAt the refilled ones are dropped.
	buckets map[string]*bucket
	sweepAt int
	queries int64
	device  reis.QueryStats
}

// minBucketSweep is the bucket count below which the map is never swept.
const minBucketSweep = 16

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewGateway builds the gateway and its route table. The gateway does
// not take ownership of the group until Drain is called (which closes
// it after the last in-flight request).
func NewGateway(g *Group, cfg GatewayConfig) *Gateway {
	if cfg.DBID == 0 {
		cfg.DBID = 1
	}
	if cfg.DefaultK == 0 {
		cfg.DefaultK = 5
	}
	if cfg.NProbe == 0 {
		cfg.NProbe = 6
	}
	if cfg.RateLimit > 0 && cfg.RateBurst == 0 {
		cfg.RateBurst = max(1, int(cfg.RateLimit+0.999))
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	gw := &Gateway{
		group:   g,
		cfg:     cfg,
		routes:  make(map[string]*routeCounters),
		buckets: make(map[string]*bucket),
	}
	for _, route := range []string{"/search", "/search/stream", "/stats", "/healthz"} {
		gw.routes[route] = &routeCounters{lat: reis.NewLatencySketch(0)}
	}
	protected := func(route string, h http.HandlerFunc) http.Handler {
		return chain(h, gw.requestID(), gw.metrics(route), gw.admit(), gw.auth(), gw.rateLimit())
	}
	mux := http.NewServeMux()
	mux.Handle("/search", protected("/search", gw.handleSearch))
	mux.Handle("/search/stream", protected("/search/stream", gw.handleStream))
	mux.Handle("/stats", protected("/stats", gw.handleStats))
	// Health stays reachable without auth/limits so probes see drain
	// state and replica health directly.
	mux.Handle("/healthz", chain(http.HandlerFunc(gw.handleHealthz), gw.requestID(), gw.metrics("/healthz")))
	gw.handler = mux
	return gw
}

// Handler returns the gateway's root handler.
func (gw *Gateway) Handler() http.Handler { return gw.handler }

// Drain gracefully shuts the gateway down: stop admitting requests
// (503 + Retry-After), wait for in-flight handlers bounded by ctx,
// then Close the replica group. Safe to call once the HTTP listener
// has stopped accepting or while it still runs.
func (gw *Gateway) Drain(ctx context.Context) error {
	gw.draining.Store(true)
	done := make(chan struct{})
	go func() {
		gw.drain.Lock() // granted when the last admitted handler has left
		gw.drain.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return gw.group.Close()
}

// statusWriter records the response status for the metrics middleware
// and forwards Flush so streaming handlers keep working underneath the
// chain. One serves a request at a time; they recycle through
// statusWriters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// On the /search path response headers are set by map key, in canonical
// form, to a value slice that is shared and never written to: Header.Set
// would canonicalize the key and build a slice on every call.
const headerRequestID = "X-Request-Id"

var contentTypeJSON = []string{"application/json"}

// requestID assigns every request an id (or propagates the client's)
// and echoes it on the response.
func (gw *Gateway) requestID() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The client's own value slice is echoed, capped at its first
			// entry; net/http stores request headers under canonical keys.
			ids := r.Header[headerRequestID]
			if len(ids) == 0 || ids[0] == "" {
				ids = []string{"req-" + strconv.FormatUint(gw.reqSeq.Add(1), 10)}
			}
			w.Header()[headerRequestID] = ids[:1:1]
			next.ServeHTTP(w, r)
		})
	}
}

// metrics records per-route request counts, error classes and handler
// latency: its total, its maximum and its distribution.
func (gw *Gateway) metrics(route string) middleware {
	m := gw.routes[route]
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := statusWriters.Get().(*statusWriter)
			sw.ResponseWriter, sw.status = w, 0
			start := time.Now()
			next.ServeHTTP(sw, r)
			elapsed := time.Since(start).Nanoseconds()
			status := sw.status
			sw.ResponseWriter = nil
			statusWriters.Put(sw)
			m.requests.Add(1)
			switch {
			case status >= 500:
				m.status5xx.Add(1)
			case status >= 400:
				m.status4xx.Add(1)
			}
			m.totalNs.Add(elapsed)
			for {
				old := m.maxNs.Load()
				if elapsed <= old || m.maxNs.CompareAndSwap(old, elapsed) {
					break
				}
			}
			m.mu.Lock()
			m.lat.Observe(time.Duration(elapsed))
			m.mu.Unlock()
		})
	}
}

// admit gates admission on drain state and tracks in-flight handlers.
func (gw *Gateway) admit() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The flag is read before the lock so that a request arriving
			// behind a waiting Drain is refused at once instead of queueing
			// on it, and again under the lock, which is what orders it
			// against Drain.
			if gw.draining.Load() {
				gw.reject(w, "gateway draining")
				return
			}
			gw.drain.RLock()
			defer gw.drain.RUnlock()
			if gw.draining.Load() {
				gw.reject(w, "gateway draining")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// auth enforces the configured bearer token.
func (gw *Gateway) auth() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if gw.cfg.AuthToken != "" {
				got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
				if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(gw.cfg.AuthToken)) != 1 {
					http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// tenant identifies the caller for rate limiting: an explicit
// X-Tenant header, else the bearer token, else "anon".
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return tok
	}
	return "anon"
}

// rateLimit enforces the per-tenant token bucket.
func (gw *Gateway) rateLimit() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if gw.cfg.RateLimit > 0 && !gw.allow(tenant(r)) {
				w.Header().Set("Retry-After", retryAfter)
				http.Error(w, "tenant rate limit exceeded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// refilled is the bucket's token count at now: RateLimit tokens/s since
// its last request, up to RateBurst.
func (gw *Gateway) refilled(b *bucket, now time.Time) float64 {
	return min(float64(gw.cfg.RateBurst), b.tokens+now.Sub(b.last).Seconds()*gw.cfg.RateLimit)
}

// allow takes one token from the tenant's bucket. The tenant name is
// the caller's choice, so the map must not keep one entry per name ever
// seen: a bucket that has refilled to RateBurst is indistinguishable
// from a fresh one and is dropped, in a sweep each time the map has
// doubled since the last — which bounds it by the tenants seen within
// one refill window at amortized constant cost.
func (gw *Gateway) allow(tenant string) bool {
	now := gw.cfg.now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	b := gw.buckets[tenant]
	if b == nil {
		if len(gw.buckets) >= gw.sweepAt {
			for t, old := range gw.buckets {
				if gw.refilled(old, now) >= float64(gw.cfg.RateBurst) {
					delete(gw.buckets, t)
				}
			}
			gw.sweepAt = 2*len(gw.buckets) + minBucketSweep
		}
		b = &bucket{tokens: float64(gw.cfg.RateBurst), last: now}
		gw.buckets[tenant] = b
	}
	b.tokens = gw.refilled(b, now)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryAfter is the Retry-After hint, in whole seconds, returned with
// 503 and 429 responses.
const retryAfter = "1"

// reject answers 503 with the Retry-After hint and counts the
// rejection against the route's metrics.
func (gw *Gateway) reject(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, msg+", retry later", http.StatusServiceUnavailable)
}

// noteRejected bumps a route's saturation counter (the Retry-After
// 503s satellite metric).
func (gw *Gateway) noteRejected(route string) { gw.routes[route].rejected.Add(1) }

// queryParam returns the first value of key in a raw query string —
// what url.ParseQuery(raw) would file first under key, pair for pair
// (pairs with a semicolon or a bad escape are dropped) — without
// building the map of every pair. An unescaped value is a substring of
// raw, so the common request allocates nothing.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// parseQueryIndexes parses the ?q= operand — one or more sample-query
// indexes, comma-separated — appending them to idxs.
func (gw *Gateway) parseQueryIndexes(r *http.Request, idxs []int) ([]int, error) {
	raw := queryParam(r.URL.RawQuery, "q")
	if raw == "" {
		return nil, errors.New("q is required (sample-query index)")
	}
	if strings.Count(raw, ",") >= maxStreamBatch {
		return nil, fmt.Errorf("q names more than %d queries", maxStreamBatch)
	}
	for more := true; more; {
		var part string
		part, raw, more = strings.Cut(raw, ",")
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || i < 0 || i >= len(gw.cfg.Queries) {
			return nil, fmt.Errorf("q must be sample-query indexes in [0, %d)", len(gw.cfg.Queries))
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

// Request bounds: the queries one /search/stream request may name (each
// is a goroutine and a routed command), and the hits one query may ask
// for — far inside the K operand the engine itself accepts, so a k
// the gateway admits is never rejected downstream.
const (
	maxStreamBatch = 256
	maxK           = 1024
)

// parseK reads the optional k parameter: DefaultK when absent, an error
// for anything that is not an integer in [1, maxK].
func (gw *Gateway) parseK(r *http.Request) (int, error) {
	raw := queryParam(r.URL.RawQuery, "k")
	if raw == "" {
		return gw.cfg.DefaultK, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 || k > maxK {
		return 0, fmt.Errorf("k must be an integer in [1, %d]", maxK)
	}
	return k, nil
}

// searchCmd builds the single-query IVF_Search command for sample
// query qi; its Q operand is a window of the configured query set.
func (gw *Gateway) searchCmd(qi, k int) reis.HostCommand {
	return reis.HostCommand{
		Opcode: reis.OpcodeIVFSearch, DBID: gw.cfg.DBID,
		Queries: gw.cfg.Queries[qi : qi+1 : qi+1], K: k,
		Opt: reis.SearchOptions{NProbe: gw.cfg.NProbe},
	}
}

// maxDocBytes is where a document body is cut for transport.
const maxDocBytes = 64

// hit is one retrieved document in a JSON response.
type hit struct {
	ID   int     `json:"id"`
	Dist float32 `json:"dist"`
	Doc  string  `json:"doc"`
}

// hits renders one query's results (document bodies truncated for
// transport).
func hits(results []reis.DocResult) []hit {
	out := make([]hit, 0, len(results))
	for _, res := range results {
		out = append(out, hit{ID: res.ID, Dist: res.Dist, Doc: string(res.Doc[:min(len(res.Doc), maxDocBytes)])})
	}
	return out
}

// record folds one completed search into the gateway's served-traffic
// totals.
func (gw *Gateway) record(st reis.QueryStats) {
	gw.mu.Lock()
	gw.queries++
	gw.device.Add(st)
	gw.mu.Unlock()
}

// handleSearch serves one sample query: GET /search?q=17&k=3.
func (gw *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	var one [1]int
	idxs, err := gw.parseQueryIndexes(r, one[:0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(idxs) != 1 {
		http.Error(w, "q must be a single sample-query index (use /search/stream for batches)", http.StatusBadRequest)
		return
	}
	k, err := gw.parseK(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// One command per request, routed to the least-loaded replica and
	// bounded by the request's own context: a dropped connection
	// cancels the search, a saturated group is backpressure the client
	// can retry after the hinted delay.
	resp, err := gw.group.Do(r.Context(), gw.searchCmd(idxs[0], k))
	if errors.Is(err, reis.ErrQueueFull) {
		gw.noteRejected("/search")
		gw.reject(w, "retrieval queues saturated")
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	gw.record(resp.QueryStats[0])
	buf := bodyBufs.Get().(*[]byte)
	*buf = appendSearchBody((*buf)[:0], resp.Results[0])
	// The body holds copies of what it needs: the response's blocks go
	// back for the next command to fill.
	resp.Release()
	w.Header()["Content-Type"] = contentTypeJSON
	w.Write(*buf) // a failed write is the client's departure
	bodyBufs.Put(buf)
}

// streamLine is one NDJSON line of a batch response.
type streamLine struct {
	Q     int    `json:"q"`
	Hits  []hit  `json:"hits,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleStream serves a batch of sample queries as NDJSON, flushing
// each query's line as its replica completes it (completion order, not
// request order — every line carries its query index):
// GET /search/stream?q=1,2,3&k=5.
func (gw *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	idxs, err := gw.parseQueryIndexes(r, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k, err := gw.parseK(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Fan the batch out: each query is its own routed command, so the
	// group spreads the batch across replicas and the fastest results
	// stream back first.
	lines := make(chan streamLine, len(idxs))
	var wg sync.WaitGroup
	for _, qi := range idxs {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			resp, err := gw.group.Do(r.Context(), gw.searchCmd(qi, k))
			if err != nil {
				if errors.Is(err, reis.ErrQueueFull) {
					gw.noteRejected("/search/stream")
				}
				lines <- streamLine{Q: qi, Error: err.Error()}
				return
			}
			gw.record(resp.QueryStats[0])
			// hits copies the documents' transport prefixes out.
			lines <- streamLine{Q: qi, Hits: hits(resp.Results[0])}
			resp.Release()
		}(qi)
	}
	go func() {
		wg.Wait()
		close(lines)
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for line := range lines {
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleStats reports served-traffic totals, per-route metrics, group
// routing stats and per-replica queue state.
func (gw *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	gw.mu.Lock()
	queries, device := gw.queries, gw.device
	gw.mu.Unlock()
	// A route appears once it has something to report.
	routes := make(map[string]routeMetrics, len(gw.routes))
	for route, c := range gw.routes {
		if m := c.snapshot(); m != (routeMetrics{}) {
			routes[route] = m
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Queries int64                   `json:"queries"`
		Device  reis.QueryStats         `json:"device_totals"`
		Routes  map[string]routeMetrics `json:"routes"`
		Group   GroupStats              `json:"group"`
	}{queries, device, routes, gw.group.Stats()})
}

// handleHealthz is the liveness probe: 200 while serving, 503 when
// draining or when no replica is healthy.
func (gw *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if gw.draining.Load() || !gw.group.ready() {
		gw.reject(w, "not serving")
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
