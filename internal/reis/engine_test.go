package reis

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/ssd"
)

// testCfg shrinks SSD1 so unit tests stay fast while preserving the
// channel/die/plane structure. It is also each device of a sharded test
// host, whose single-device reference is refOf(testCfg(), n).
func testCfg() ssd.Config {
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

// refOf is the single-device equivalent of n devices of cfg: one device
// with n times the channels, the same aggregate hardware.
func refOf(cfg ssd.Config, n int) ssd.Config {
	cfg.Geo.Channels *= n
	return cfg
}

var testData = dataset.Generate(dataset.Config{
	Name: "reis-test", N: 1200, Dim: 128, Clusters: 16, Queries: 24, K: 10,
	DocBytes: 256, Seed: 42,
})

// submitter and searcher are the two entries the cross-topology suites
// drive a host through — both facades promote them from the host core,
// so a suite written against either runs unchanged on an Engine and a
// ShardedEngine. search is the core's unexported entry: what a queue
// dispatcher and CalibrateNProbe call.
type submitter interface {
	Submit(HostCommand) (HostResponse, error)
}

type searcher interface {
	search(ctx context.Context, cmd *HostCommand, queries [][]float32, useCache bool, out *outBlocks) error
}

// searchFresh runs one search into fresh output blocks, as a dispatch
// whose caller never releases does, and returns them. (The holder escapes
// through the interface call: allocation counts hold one of their own,
// zeroed before each run.)
func searchFresh(ctx context.Context, h searcher, cmd *HostCommand, queries [][]float32, useCache bool) ([][]DocResult, []QueryStats, [][]QueryStats, error) {
	out := new(outBlocks)
	err := h.search(ctx, cmd, queries, useCache, out)
	return out.results, out.sts, out.rows, err
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(testCfg(), 64<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// mustSubmit is the tests' way into a host — the command path, like every
// other caller's — for a command that has to succeed. Tests of a refusal
// call Submit themselves.
func mustSubmit(t testing.TB, h submitter, cmd HostCommand) HostResponse {
	t.Helper()
	resp, err := h.Submit(cmd)
	if err != nil {
		t.Fatalf("opcode %#x: %v", cmd.Opcode, err)
	}
	return resp
}

// search is one search command (op is OpcodeSearch or OpcodeIVFSearch)
// over queries, and searchOne its one-query form.
func search(t testing.TB, h submitter, op uint8, dbID int, queries [][]float32, k int, opt SearchOptions) ([][]DocResult, []QueryStats) {
	t.Helper()
	resp := mustSubmit(t, h, HostCommand{Opcode: op, DBID: dbID, Queries: queries, K: k, Opt: opt})
	return resp.Results, resp.QueryStats
}

func searchOne(t testing.TB, h submitter, op uint8, dbID int, query []float32, k int, opt SearchOptions) ([]DocResult, QueryStats) {
	t.Helper()
	res, sts := search(t, h, op, dbID, [][]float32{query}, k, opt)
	return res[0], sts[0]
}

// deployFlat and deployIVF deploy the shared test dataset on a device
// that is its own host and return the device's view of it.
func deployFlat(t *testing.T, e *Engine, id int) *Database {
	t.Helper()
	return deployOn(t, e, OpcodeDBDeploy, DeployConfig{
		ID: id, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
	})
}

func deployIVF(t *testing.T, e *Engine, id, nlist int) *Database {
	t.Helper()
	cents, assign := ann.KMeans(testData.Vectors, ann.KMeansConfig{K: nlist, Seed: 9})
	return deployOn(t, e, OpcodeIVFDeploy, DeployConfig{
		ID: id, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
		Centroids: cents, Assign: assign,
	})
}

func deployOn(t *testing.T, e *Engine, op uint8, cfg DeployConfig) *Database {
	t.Helper()
	mustSubmit(t, e, HostCommand{Opcode: op, Deploy: &cfg})
	db, err := e.DB(cfg.ID)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func recallOf(t *testing.T, search func(q []float32) []DocResult) float64 {
	t.Helper()
	got := make([][]int, len(testData.Queries))
	for qi, q := range testData.Queries {
		res := search(q)
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		got[qi] = ids
	}
	return dataset.Recall(testData.GroundTruth, got, 10)
}

func TestDeployLayout(t *testing.T) {
	e := newEngine(t, AllOptions())
	db := deployFlat(t, e, 1)
	entry, _ := e.hostDB(1)
	if entry.mut.live != testData.Len() || db.dim != 128 {
		t.Fatalf("db shape %d/%d", entry.mut.live, db.dim)
	}
	rec := db.Record()
	if rec.Embeddings.PageCount == 0 || rec.Documents.PageCount == 0 || rec.Int8s.PageCount == 0 {
		t.Fatal("missing regions")
	}
	if rec.Centroids.PageCount != 0 {
		t.Fatal("flat deploy created centroid region")
	}
	// slot math: 128-dim binary = 16B -> 256 fit in the 4096B page but
	// the 1024B OOB limits linkage to 1024/9 = 113 slots.
	if db.embPerPage != 113 {
		t.Fatalf("embPerPage = %d", db.embPerPage)
	}
	if db.docsPerPage != 16 {
		t.Fatalf("docsPerPage = %d", db.docsPerPage)
	}
}

func TestDeployRejectsBadInput(t *testing.T) {
	e := newEngine(t, AllOptions())
	deploy := func(cfg DeployConfig) error {
		_, err := e.Submit(HostCommand{Opcode: OpcodeDBDeploy, Deploy: &cfg})
		return err
	}
	if deploy(DeployConfig{ID: 1}) == nil {
		t.Fatal("empty deploy accepted")
	}
	if deploy(DeployConfig{ID: 1, Vectors: testData.Vectors, Docs: testData.Docs[:5]}) == nil {
		t.Fatal("mismatched docs accepted")
	}
	deployFlat(t, e, 1)
	if deploy(DeployConfig{ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256}) == nil {
		t.Fatal("duplicate id accepted")
	}
	big := [][]byte{bytes.Repeat([]byte{1}, 9000)}
	if deploy(DeployConfig{ID: 2, Vectors: testData.Vectors[:1], Docs: big, DocSlotBytes: 256}) == nil {
		t.Fatal("oversized doc accepted")
	}
}

// TestDeployFailureLeavesIDFree runs a deploy whose plan is accepted but
// whose document region does not fit the device: the allocator fails
// after the embedding and INT8 regions are reserved. The database enters
// the host's table only once every page is programmed, so the failure
// leaves the id free, and a smaller deploy under it then succeeds and
// serves the same results as a fresh host's.
func TestDeployFailureLeavesIDFree(t *testing.T) {
	cfg := testCfg()
	cfg.Geo.BlocksPerPlane = 8
	// One document per page, twice over: more document pages than the
	// device has stripes left, on one device and on two.
	var vecs [][]float32
	var docs [][]byte
	for r := 0; r < 2; r++ {
		vecs = append(vecs, testData.Vectors...)
		docs = append(docs, testData.Docs...)
	}
	tooBig := DeployConfig{ID: 1, Vectors: vecs, Docs: docs, DocSlotBytes: cfg.Geo.PageBytes}
	small := DeployConfig{ID: 1, Vectors: testData.Vectors[:100], Docs: testData.Docs[:100], DocSlotBytes: 256}
	query := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries, K: 10}

	fresh, err := New(cfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	mustSubmit(t, fresh, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &small})
	want := mustSubmit(t, fresh, query).Results

	for _, n := range []int{1, 2} {
		var h submitter
		var lookup func(id int) error
		if n == 1 {
			e, err := New(cfg, 0, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			h, lookup = e, func(id int) error { _, err := e.DB(id); return err }
		} else {
			sh, err := NewSharded(cfg, n, 0, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			h, lookup = sh, func(id int) error { _, err := sh.hostDB(id); return err }
		}
		_, err := h.Submit(HostCommand{Opcode: OpcodeDBDeploy, Deploy: &tooBig})
		if err == nil || !strings.Contains(err.Error(), "out of space") {
			t.Fatalf("n=%d: oversized deploy: error %v, want the allocator out of space", n, err)
		}
		if lookup(1) == nil {
			t.Fatalf("n=%d: the failed deploy left database 1 in the table", n)
		}
		mustSubmit(t, h, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &small})
		if err := lookup(1); err != nil {
			t.Fatalf("n=%d: retried deploy: %v", n, err)
		}
		if got := mustSubmit(t, h, query).Results; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: the retried deploy's results diverge from a fresh host's", n)
		}
	}
}

func TestIVFDeployRequiresClusterInfo(t *testing.T) {
	e := newEngine(t, AllOptions())
	if _, err := e.Submit(HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{ID: 1, Vectors: testData.Vectors, Docs: testData.Docs}}); err == nil {
		t.Fatal("IVF deploy without cluster info accepted")
	}
}

func TestBruteForceSearchRecall(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	r := recallOf(t, func(q []float32) []DocResult {
		res, _ := searchOne(t, e, OpcodeSearch, 1, q, 10, SearchOptions{})
		return res
	})
	if r < 0.85 {
		t.Fatalf("in-storage BF recall = %v, want >= 0.85 (BQ+rerank)", r)
	}
	t.Logf("in-storage brute-force Recall@10 = %.3f", r)
}

func TestSearchReturnsLinkedDocuments(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	res, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	if len(res) != 5 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		want := testData.Docs[r.ID]
		if !bytes.Equal(r.Doc[:len(want)], want) {
			t.Fatalf("doc for id %d does not match source", r.ID)
		}
		if !bytes.Contains(r.Doc, []byte(fmt.Sprintf("doc=%d", r.ID))) {
			t.Fatalf("doc header does not encode id %d", r.ID)
		}
	}
	// Results sorted by reranked distance.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestIVFSearchRecallIncreasesWithNProbe(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	var prev float64
	for _, nprobe := range []int{1, 4, 16} {
		r := recallOf(t, func(q []float32) []DocResult {
			res, _ := searchOne(t, e, OpcodeIVFSearch, 1, q, 10, SearchOptions{NProbe: nprobe, SkipDocs: true})
			return res
		})
		if r+1e-9 < prev {
			t.Fatalf("recall fell with nprobe=%d: %v < %v", nprobe, r, prev)
		}
		prev = r
		t.Logf("nprobe=%d recall=%.3f", nprobe, r)
	}
	if prev < 0.85 {
		t.Fatalf("full-probe IVF recall = %v", prev)
	}
}

func TestIVFSearchMatchesBruteForceAtFullProbe(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 8)
	for _, q := range testData.Queries[:4] {
		bf, _ := searchOne(t, e, OpcodeSearch, 1, q, 10, SearchOptions{SkipDocs: true})
		ivf, _ := searchOne(t, e, OpcodeIVFSearch, 2, q, 10, SearchOptions{NProbe: 8, SkipDocs: true})
		bfIDs := map[int]bool{}
		for _, r := range bf {
			bfIDs[r.ID] = true
		}
		match := 0
		for _, r := range ivf {
			if bfIDs[r.ID] {
				match++
			}
		}
		if match < 8 {
			t.Fatalf("full-probe IVF found %d/10 of BF results", match)
		}
	}
}

func TestDistanceFilteringPreservesRecall(t *testing.T) {
	on := newEngine(t, AllOptions())
	deployFlat(t, on, 1)
	offOpts := AllOptions()
	offOpts.DistanceFilter = false
	off := newEngine(t, offOpts)
	deployFlat(t, off, 1)
	rOn := recallOf(t, func(q []float32) []DocResult {
		res, _ := searchOne(t, on, OpcodeSearch, 1, q, 10, SearchOptions{SkipDocs: true})
		return res
	})
	rOff := recallOf(t, func(q []float32) []DocResult {
		res, _ := searchOne(t, off, OpcodeSearch, 1, q, 10, SearchOptions{SkipDocs: true})
		return res
	})
	if rOff-rOn > 0.03 {
		t.Fatalf("distance filtering cost too much recall: %.3f -> %.3f", rOff, rOn)
	}
	t.Logf("recall DF-off %.3f, DF-on %.3f", rOff, rOn)
}

func TestDistanceFilteringReducesSurvivors(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	_, stOn := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{SkipDocs: true})
	e.Opts.DistanceFilter = false
	_, stOff := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{SkipDocs: true})
	if stOff.Survivors != testData.Len() {
		t.Fatalf("without DF survivors = %d, want %d", stOff.Survivors, testData.Len())
	}
	if stOn.Survivors*5 > stOff.Survivors {
		t.Fatalf("DF only filtered to %d of %d", stOn.Survivors, stOff.Survivors)
	}
	t.Logf("survivors: DF-on %d / DF-off %d (%.1f%%)", stOn.Survivors, stOff.Survivors,
		100*float64(stOn.Survivors)/float64(stOff.Survivors))
}

func TestQueryStatsShape(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	_, st := searchOne(t, e, OpcodeIVFSearch, 1, testData.Queries[0], 10, SearchOptions{NProbe: 4})
	if st.CoarsePages == 0 || st.FinePages == 0 {
		t.Fatalf("pages not counted: %+v", st)
	}
	if st.EntriesScanned == 0 || st.Survivors == 0 {
		t.Fatalf("entries not counted: %+v", st)
	}
	// A plane receives the query once per round (coarse, fine) in which
	// it senses at least one of the query's pages — never the all-plane
	// flood of the old sequential path.
	if planes := e.SSD.Cfg.Geo.Planes(); st.IBCBroadcasts < 2 || st.IBCBroadcasts > 2*planes ||
		st.IBCBroadcasts > st.CoarsePages+st.FinePages {
		t.Fatalf("IBC broadcasts = %d with %d planes, %d+%d pages sensed",
			st.IBCBroadcasts, planes, st.CoarsePages, st.FinePages)
	}
	if st.RerankCount == 0 || st.DocPages == 0 || st.DocBytes == 0 {
		t.Fatalf("tail stages not counted: %+v", st)
	}
	// IVF must scan far fewer entries than the whole database.
	if st.EntriesScanned >= testData.Len() {
		t.Fatalf("IVF nprobe=4 scanned the whole database: %d", st.EntriesScanned)
	}
}

func TestScanUsesAllPlanes(t *testing.T) {
	// With parallelism-first placement a brute-force scan must touch
	// every plane nearly evenly: waves == ceil(pages/planes).
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	_, st := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{SkipDocs: true})
	planes := e.SSD.Cfg.Geo.Planes()
	wantWaves := (st.FinePages + planes - 1) / planes
	if st.FineWaves != wantWaves {
		t.Fatalf("waves = %d, want %d (pages %d over %d planes)",
			st.FineWaves, wantWaves, st.FinePages, planes)
	}
}

func TestMetadataFiltering(t *testing.T) {
	e := newEngine(t, AllOptions())
	tags := make([]uint8, testData.Len())
	for i := range tags {
		tags[i] = uint8(testData.ClusterOf[i] % 4)
	}
	deployOn(t, e, OpcodeDBDeploy, DeployConfig{
		ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
		MetaTags: tags,
	})
	// Request the tag of the query's true nearest neighbor so matching
	// entries exist near the query (distance filtering removes far
	// candidates regardless of tag).
	want := tags[testData.GroundTruth[0][0]]
	res, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 10, SearchOptions{MetaTag: &want, SkipDocs: true})
	if len(res) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, r := range res {
		if tags[r.ID] != want {
			t.Fatalf("result %d has tag %d, want %d", r.ID, tags[r.ID], want)
		}
	}
}

func TestCalibrateNProbeMonotone(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	np90, err := e.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.80)
	if err != nil {
		t.Fatal(err)
	}
	np98, err := e.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if np98 < np90 {
		t.Fatalf("nprobe(0.95)=%d < nprobe(0.80)=%d", np98, np90)
	}
	t.Logf("calibrated nprobe: 0.80->%d, 0.95->%d", np90, np98)
}

// TestCalibrateSweepTriesFullProbe: the sweep's last step is nlist itself
// whatever growProbe steps over, so a target only the full probe meets
// is met, at nlist. The fake run returns the ground truth at nlist and
// nothing below it.
func TestCalibrateSweepTriesFullProbe(t *testing.T) {
	gt := [][]int{{1, 2, 3}, {4, 5, 6}}
	for _, nlist := range []int{1, 8, 16, 64, 100} {
		var tried []int
		np, ok, err := calibrateSweep(nlist, gt, 3, 1, func(nprobe int) ([][]DocResult, error) {
			tried = append(tried, nprobe)
			res := make([][]DocResult, len(gt))
			if nprobe == nlist {
				for qi, row := range gt {
					for _, id := range row {
						res[qi] = append(res[qi], DocResult{ID: id})
					}
				}
			}
			return res, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if np != nlist || !ok {
			t.Errorf("nlist %d: sweep returned nprobe %d, met %v; want %d, met (tried %v)", nlist, np, ok, nlist, tried)
		}
		if !slices.IsSorted(tried) || tried[0] != 1 || tried[len(tried)-1] != nlist {
			t.Errorf("nlist %d: tried %v, want an ascending sweep from 1 to %d", nlist, tried, nlist)
		}
	}
}

func TestHostAPIDeployAndSearch(t *testing.T) {
	e := newEngine(t, AllOptions())
	cents, assign := ann.KMeans(testData.Vectors, ann.KMeansConfig{K: 8, Seed: 3})
	resp, err := e.Submit(HostCommand{
		Opcode: OpcodeIVFDeploy,
		Deploy: &DeployConfig{
			ID: 7, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
			Centroids: cents, Assign: assign,
		},
	})
	if err != nil {
		t.Fatalf("deploy failed: %v", err)
	}
	resp, err = e.Submit(HostCommand{
		Opcode: OpcodeIVFSearch, DBID: 7, Queries: testData.Queries[:3], K: 5, Opt: SearchOptions{NProbe: 8},
	})
	if err != nil {
		t.Fatalf("search failed: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results for %d queries", len(resp.Results))
	}
	for _, rs := range resp.Results {
		if len(rs) != 5 {
			t.Fatalf("query returned %d docs", len(rs))
		}
		for _, r := range rs {
			if len(r.Doc) == 0 {
				t.Fatal("empty document returned")
			}
		}
	}
	if resp.Stats.FinePages == 0 {
		t.Fatal("batch stats not aggregated")
	}
}

func TestHostAPIErrors(t *testing.T) {
	e := newEngine(t, AllOptions())
	if _, err := e.Submit(HostCommand{Opcode: 0x42}); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if _, err := e.Submit(HostCommand{Opcode: OpcodeDBDeploy}); err == nil {
		t.Fatal("deploy without payload accepted")
	}
	if _, err := e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1}); err == nil {
		t.Fatal("search without queries accepted")
	}
	if _, err := e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 99, Queries: testData.Queries[:1], K: 5}); err == nil {
		t.Fatal("search on unknown database accepted")
	}
}

func TestSearchValidation(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	if _, err := e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: [][]float32{make([]float32, 7)}, K: 5}); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
	if _, err := e.Submit(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1]}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := e.Submit(HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:1], K: 5}); err == nil {
		t.Fatal("IVF search on flat database accepted")
	}
}

func TestEmbeddingsLandInSLCESPBlocks(t *testing.T) {
	e := newEngine(t, AllOptions())
	db := deployFlat(t, e, 1)
	geo := e.SSD.Cfg.Geo
	for i := 0; i < db.rec.Embeddings.PageCount; i++ {
		a, err := db.rec.Embeddings.AddressOf(geo, i)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.SSD.Dev.BlockMode(a); got.String() != "SLC-ESP" {
			t.Fatalf("embedding page %d in %v block", i, got)
		}
	}
	for i := 0; i < db.rec.Documents.PageCount; i++ {
		a, err := db.rec.Documents.AddressOf(geo, i)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.SSD.Dev.BlockMode(a); got.String() != "TLC" {
			t.Fatalf("document page %d in %v block", i, got)
		}
	}
}

func TestQuickselectTTL(t *testing.T) {
	es := make([]ttlEntry, 100)
	for i := range es {
		es[i] = ttlEntry{Dist: int32((i * 37) % 101), Pos: int32(i)}
	}
	quickselectTTL(es, 10)
	max10 := int32(0)
	for i := 0; i < 10; i++ {
		if es[i].Dist > max10 {
			max10 = es[i].Dist
		}
	}
	for i := 10; i < len(es); i++ {
		if es[i].Dist < max10 {
			t.Fatalf("entry %d (dist %d) smaller than left partition max %d", i, es[i].Dist, max10)
		}
	}
}

func TestMultipleDatabasesCoexist(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	deployIVF(t, e, 2, 8)
	r1, _ := searchOne(t, e, OpcodeSearch, 1, testData.Queries[0], 5, SearchOptions{})
	r2, _ := searchOne(t, e, OpcodeIVFSearch, 2, testData.Queries[0], 5, SearchOptions{NProbe: 8})
	// Same data deployed twice: top result should agree.
	if r1[0].ID != r2[0].ID {
		t.Fatalf("top results differ across databases: %d vs %d", r1[0].ID, r2[0].ID)
	}
}
