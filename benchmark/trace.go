package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reis/internal/reis"
	"reis/internal/serve"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one. Start and End
// are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names, outermost first. The search path below Group.Do returns a
// concrete *reis.Queue, so nothing under spanGroup can be wrapped from
// outside on a search; spanHost appears only under broadcast mutations.
const (
	spanClient  = "client"      // the benchmark's HTTP round trip
	spanGateway = "gateway"     // middleware around gw.Handler()
	spanGroup   = "group.do"    // a Group.Do call made by the benchmark
	spanHost    = "host.submit" // one replica's share of a broadcast
)

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced passes run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// broadcastReq is the request id of the mutation in flight. Churn
	// rounds apply one command at a time, so the host decorator — which
	// sees a bare HostCommand — can attribute its span to it.
	broadcastReq string
}

// newTracer starts a trace; until the first mutation the broadcasts the
// host decorator sees are deploys.
func newTracer() *tracer { return &tracer{t0: time.Now(), broadcastReq: "deploy"} }

func (t *tracer) record(name, req, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) setBroadcast(req string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.broadcastReq = req
	t.mu.Unlock()
}

// middleware records a gateway span per request, keyed by the
// X-Request-ID the benchmark's client sets.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(spanGateway, r.Header.Get("X-Request-ID"), spanClient, start, time.Now())
	})
}

// tracedHost decorates a replica host: Submit — the path each replica's
// share of a broadcast mutation takes — records a span; the search path
// (NewQueue) passes through untouched.
type tracedHost struct {
	serve.Host
	t *tracer
}

func (h tracedHost) Submit(cmd reis.HostCommand) (reis.HostResponse, error) {
	start := time.Now()
	resp, err := h.Host.Submit(cmd)
	h.t.mu.Lock()
	req := h.t.broadcastReq
	h.t.mu.Unlock()
	h.t.record(spanHost, req, spanGroup, start, time.Now())
	return resp, err
}

// stackOptions returns the hooks that install the tracer on a stack;
// none for a nil tracer.
func (t *tracer) stackOptions() stackOptions {
	if t == nil {
		return stackOptions{}
	}
	return stackOptions{
		wrapHost:   func(_ int, h serve.Host) serve.Host { return tracedHost{Host: h, t: t} },
		middleware: t.middleware,
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans (same
// request, Parent equal to its name) cover. Overlapping children —
// replicas applying one broadcast in parallel — are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct{ req, parent string }
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] = append(children[key{s.Req, s.Parent}], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[key{s.Req, s.Name}]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanCounts returns how many spans carry each name.
func spanCounts(spans []span) map[string]int {
	n := make(map[string]int)
	for _, s := range spans {
		n[s.Name]++
	}
	return n
}

// write dumps the spans to path as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
