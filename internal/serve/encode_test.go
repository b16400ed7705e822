package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"strings"
	"testing"

	"reis/internal/reis"
	"reis/internal/xrand"
)

// jsonSearchBody is the /search body as encoding/json writes it: the
// struct and the Encoder the handler used before appendSearchBody.
func jsonSearchBody(t *testing.T, results []reis.DocResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Hits []hit `json:"hits"`
	}{Hits: hits(results)})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchBodyMatchesEncodingJSON diffs appendSearchBody against
// encoding/json over a table of the cases the two could disagree on, and
// then over random hits drawn from the same alphabet.
func TestSearchBodyMatchesEncodingJSON(t *testing.T) {
	check := func(name string, results []reis.DocResult) {
		t.Helper()
		got := appendSearchBody(nil, results)
		if want := jsonSearchBody(t, results); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got  %q\n want %q", name, got, want)
		}
	}
	docs := map[string]string{
		"plain":          "topic=3 chunk 17 of the corpus",
		"empty":          "",
		"html":           `<script>alert("x") && 1 > 0</script>`,
		"quote-slash":    `say "hi" \ back\\slash`,
		"controls":       "a\x00b\x01c\x07\b\f\n\r\t\x1f\x7f",
		"line-seps":      "x\u2028y\u2029z\u2027\u202a",
		"invalid-utf8":   "ok\xff\xfe\xc3(\xe2\x82\xf0\x9f\x92",
		"surrogate":      "\xed\xa0\x80",
		"multibyte":      "héllo wörld ✓ 🙂",
		"cut-mid-rune":   strings.Repeat("a", maxDocBytes-1) + "é" + "tail",
		"cut-mid-4byte":  strings.Repeat("a", maxDocBytes-2) + "🙂" + "tail",
		"cut-at-2028":    strings.Repeat("a", maxDocBytes-3) + "\u2028" + "tail",
		"exactly-at-cut": strings.Repeat("b", maxDocBytes),
		"long":           strings.Repeat("c<", 100),
	}
	for name, d := range docs {
		check("doc "+name, []reis.DocResult{{ID: 1, Dist: 2, Doc: []byte(d)}})
	}
	for _, f := range []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 12345678, 1 << 24, 16777217,
		math.SmallestNonzeroFloat32, 1e-45, 1.1754942e-38, 1e-7, 9.999999e-7, 1e-6, 1.0000001e-6,
		1e-9, 1e-10, 123456.79, 9.9999994e20, 1e21, 1.0000001e21, 1e22, 3.4e38, math.MaxFloat32, -math.MaxFloat32,
	} {
		check("dist", []reis.DocResult{{ID: 7, Dist: f, Doc: []byte("d")}})
	}
	for _, id := range []int{0, -1, 1, math.MaxInt32, math.MaxInt64, math.MinInt64} {
		check("id", []reis.DocResult{{ID: id, Doc: []byte("d")}})
	}
	check("zero hits", nil)
	check("zero hits, empty slice", []reis.DocResult{})
	check("nil doc", []reis.DocResult{{ID: 3, Dist: 4}})
	check("two hits", []reis.DocResult{{ID: 1, Dist: 2, Doc: []byte("x")}, {ID: 2, Dist: 3, Doc: []byte("y")}})

	// Random hits: documents over an alphabet that is mostly the bytes
	// with special handling, of lengths around the cut; distances over
	// random bit patterns (finite ones) and over small integers, which is
	// what the engine produces.
	alphabet := []string{
		"a", "Z", " ", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n", "\t", "\b", "\f", "\r", "\x7f",
		"\u2028", "\u2029", "é", "✓", "🙂", "\xff", "\xc3", "\xe2\x82", "\xf0\x9f", "\x80",
	}
	r := xrand.New(17)
	for iter := 0; iter < 2000; iter++ {
		results := make([]reis.DocResult, r.Intn(4))
		for i := range results {
			var doc []byte
			for n := r.Intn(maxDocBytes + 16); len(doc) < n; {
				doc = append(doc, alphabet[r.Intn(len(alphabet))]...)
			}
			dist := float32(r.Intn(1 << 20))
			if r.Intn(2) == 0 {
				dist = math.Float32frombits(uint32(r.Uint64()))
				if f := float64(dist); math.IsNaN(f) || math.IsInf(f, 0) {
					dist = 0
				}
			}
			results[i] = reis.DocResult{ID: int(r.Uint64() >> uint(r.Intn(64))), Dist: dist, Doc: doc}
		}
		check("random", results)
	}
}

// TestGatewaySearchBodyAndOtherRoutes pins the wire format end to end:
// the /search body under the handler is what encoding/json would write
// for the same results, and /search/stream and /stats still decode as
// JSON documents.
func TestGatewaySearchBodyAndOtherRoutes(t *testing.T) {
	gw, g := newTestGateway(t, GatewayConfig{}, Config{})
	w := get(gw, "/search?q=2&k=4", nil)
	if w.Code != 200 || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
	}
	resp, err := g.Submit(gw.searchCmd(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := jsonSearchBody(t, resp.Results[0]); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("\n got  %q\n want %q", w.Body.Bytes(), want)
	}
	var line streamLine
	if err := json.Unmarshal(get(gw, "/search/stream?q=2&k=4", nil).Body.Bytes(), &line); err != nil || len(line.Hits) != 4 {
		t.Fatalf("/search/stream: %d hits, err %v", len(line.Hits), err)
	}
	var stats struct {
		Queries int64                   `json:"queries"`
		Routes  map[string]routeMetrics `json:"routes"`
	}
	if err := json.Unmarshal(get(gw, "/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 2 || stats.Routes["/search"].Requests != 1 || stats.Routes["/search/stream"].Requests != 1 {
		t.Fatalf("/stats: %+v", stats)
	}
	if _, ok := stats.Routes["/healthz"]; ok {
		t.Fatalf("/stats lists a route nobody requested: %+v", stats.Routes)
	}
}

// TestQueryParamMatchesURLQuery: queryParam reads a raw query exactly as
// r.URL.Query().Get did, over the shapes a request line can take.
func TestQueryParamMatchesURLQuery(t *testing.T) {
	raws := []string{
		"", "q=1", "q=1&k=3", "k=3&q=1", "q=1&q=2", "q=&q=2", "q", "q&k", "=1", "&&q=1&&", "q=1,2,3",
		"q=1%2C2", "q=1+2", "%71=5", "q=%zz&q=7", "%zz=1&q=8", "q=1;k=2", "q=1;x&k=2", "k=2&q=1;x", "qq=1&q=2",
		"q=a=b", "q==", "Q=1", "q=%00", "k=%33", "q=1&k", "q=1&k=", "x=%", "q=1&amp;k=2", "q=é", "q=%C3%A9",
	}
	r := xrand.New(3)
	parts := []string{"q", "k", "=", "&", ";", "%", "%2C", "%71", "+", "1", "23", ",", "x", "%zz", ""}
	for i := 0; i < 3000; i++ {
		var sb strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			sb.WriteString(parts[r.Intn(len(parts))])
		}
		raws = append(raws, sb.String())
	}
	for _, raw := range raws {
		want, _ := url.ParseQuery(raw) // Query() discards the error the same way
		for _, key := range []string{"q", "k"} {
			if got := queryParam(raw, key); got != want.Get(key) {
				t.Fatalf("queryParam(%q, %q) = %q, url.Values.Get = %q", raw, key, got, want.Get(key))
			}
		}
	}
}
