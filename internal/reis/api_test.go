package reis

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// TestHostSurface pins the exported surface of the two hosts, of a
// queue pair and of the settable values a caller hands them against
// literal lists: a command enters a host through Submit, or SubmitAsync
// on a NewQueue pair, and nowhere else, its completion leaves a pair
// through Wait alone, and it names its nprobe once (Opt.NProbe), so a
// re-added per-opcode wrapper, completion sink, queue option or command
// knob fails here instead of passing review.
func TestHostSurface(t *testing.T) {
	names := func(typ reflect.Type) []string {
		var out []string
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				out = append(out, typ.Field(i).Name)
			}
			return out
		}
		for i := 0; i < typ.NumMethod(); i++ { // exported methods, sorted by name
			out = append(out, typ.Method(i).Name)
		}
		return out
	}
	for _, tc := range []struct {
		what string
		typ  reflect.Type
		want []string
	}{
		{"*Engine methods", reflect.TypeOf(&Engine{}), []string{
			"ASICLatency", "BatchLatency", "CacheStats", "CalibrateNProbe", "Close", "DB", "JournalBytes",
			"Latency", "NewQueue", "Ready", "ReplayJournal", "Submit"}},
		{"*ShardedEngine methods", reflect.TypeOf(&ShardedEngine{}), []string{
			"BatchLatency", "CacheStats", "CalibrateNProbe", "Close", "JournalBytes",
			"Latency", "NewQueue", "Ready", "ReplayJournal", "Shard", "Shards", "Submit"}},
		{"*Queue methods", reflect.TypeOf(&Queue{}), []string{
			"Close", "Depth", "Occupancy", "Outstanding", "Stats", "SubmitAsync", "SubmitDrain", "Wait"}},
		{"QueueConfig fields", reflect.TypeOf(QueueConfig{}), []string{"Depth"}},
		{"Options fields", reflect.TypeOf(Options{}), []string{
			"DistanceFilter", "Pipelining", "MPIBC", "FirstFitPlacement"}},
		{"HostCommand fields", reflect.TypeOf(HostCommand{}), []string{
			"Opcode", "Deploy", "DBID", "Queries", "K", "TargetRecall", "Opt", "Append", "Del", "Compact"}},
		{"SearchOptions fields", reflect.TypeOf(SearchOptions{}), []string{"NProbe", "MetaTag", "SkipDocs", "Prune"}},
	} {
		if got := names(tc.typ); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.what, got, tc.want)
		}
	}
}

// TestHostCommandValidationSentinels pins every sentinel-error path of
// the host-side command validation, through both the synchronous
// Submit wrapper and SubmitAsync admission, on both the single-device
// engine and the sharded router (validation is shared, so the same
// command fails identically on either host).
func TestHostCommandValidationSentinels(t *testing.T) {
	queries := testData.Queries[:2]
	raggedQueries := [][]float32{testData.Queries[0], make([]float32, 7)}
	cases := []struct {
		name string
		cmd  HostCommand
		want error
	}{
		{"unknown-opcode", HostCommand{Opcode: 0x42}, errUnknownOpcode},
		{"unknown-opcode-zero", HostCommand{}, errUnknownOpcode},
		// 0x84 is unassigned: a host scans its devices in place, not by command.
		{"unknown-opcode-0x84", HostCommand{Opcode: 0x84, DBID: 1, Queries: queries}, errUnknownOpcode},
		{"deploy-missing-payload", HostCommand{Opcode: OpcodeDBDeploy}, errMissingPayload},
		{"ivf-deploy-missing-payload", HostCommand{Opcode: OpcodeIVFDeploy}, errMissingPayload},
		{"search-no-queries", HostCommand{Opcode: OpcodeSearch, DBID: 1, K: 5}, errNoQueries},
		{"ivf-search-no-queries", HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, K: 5}, errNoQueries},
		{"search-bad-k", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries}, errBadK},
		{"search-negative-k", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: -3}, errBadK},
		{"ivf-search-bad-k", HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: queries, K: 0}, errBadK},
		// K × ann.RerankFactor overflows: this used to reach the tail (and,
		// pruned, the bound tracker) and panic on the dispatcher goroutine.
		{"search-huge-k", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 922337203685477581}, errBadK},
		{"search-huge-k-pruned", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 922337203685477581,
			Opt: SearchOptions{Prune: true}}, errBadK},
		{"search-k-above-max", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: maxK + 1}, errBadK},
		{"search-ragged-dims", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: raggedQueries, K: 5}, errQueryDims},
		{"ivf-search-ragged-dims", HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: raggedQueries, K: 5}, errQueryDims},
		{"append-missing-payload", HostCommand{Opcode: OpcodeAppend, DBID: 1}, errMissingPayload},
		{"append-no-items", HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{}}, errNoItems},
		{"append-docs-mismatch", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: queries}}, errMissingPayload},
		{"append-tags-mismatch", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: queries[:1], Docs: [][]byte{{1}}, MetaTags: []uint8{1, 2}}}, errMissingPayload},
		{"append-ragged-dims", HostCommand{Opcode: OpcodeAppend, DBID: 1,
			Append: &AppendConfig{Vectors: raggedQueries, Docs: [][]byte{{1}, {2}}}}, errQueryDims},
		{"delete-missing-payload", HostCommand{Opcode: OpcodeDelete, DBID: 1}, errMissingPayload},
		{"delete-no-items", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{}}, errNoItems},
		{"delete-negative-id", HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{3, -1}}}, errUnknownID},
		{"compact-missing-payload", HostCommand{Opcode: OpcodeCompact, DBID: 1}, errMissingPayload},
		{"compact-bad-threshold", HostCommand{Opcode: OpcodeCompact, DBID: 1,
			Compact: &CompactConfig{MinLiveRatio: -0.1}}, errBadThreshold},
	}

	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	sh := newSharded(t, 2)
	if _, err := sh.Submit(HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: testData.Vectors, Docs: testData.Docs, DocSlotBytes: 256,
	}}); err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		name   string
		submit func(HostCommand) (HostResponse, error)
		queue  func() (*Queue, error)
	}{
		{"engine", e.Submit, func() (*Queue, error) { return e.NewQueue(QueueConfig{}) }},
		{"sharded", sh.Submit, func() (*Queue, error) { return sh.NewQueue(QueueConfig{}) }},
	}
	for _, h := range hosts {
		q, err := h.queue()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		for _, tc := range cases {
			if _, err := h.submit(tc.cmd); !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: Submit error = %v, want %v", h.name, tc.name, err, tc.want)
			}
			if _, err := q.SubmitAsync(context.Background(), tc.cmd); !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: SubmitAsync error = %v, want %v", h.name, tc.name, err, tc.want)
			}
		}
	}
	// The largest admitted K is served (the pool clamps to the stream), and
	// CalibrateNProbe — the one search entry that is not a command —
	// refuses a K no command could carry.
	for _, prune := range []bool{false, true} {
		if res, _ := searchOne(t, e, OpcodeSearch, 1, queries[0], maxK, SearchOptions{Prune: prune}); len(res) == 0 {
			t.Errorf("Search(maxK, prune=%v) returned nothing", prune)
		}
	}
	deployIVF(t, e, 2, 16)
	if _, err := e.CalibrateNProbe(2, queries, testData.GroundTruth, 922337203685477581, 0.9); !errors.Is(err, errBadK) {
		t.Errorf("CalibrateNProbe(huge K) error = %v, want errBadK", err)
	}
}

// TestMalformedDeployRefusedAtSubmission: a deploy payload the layout
// planner would index past — an assignment outside the centroid set,
// a short tag list, vectors or centroids of another dimensionality,
// vectors of none — fails at submission with the sentinel an append of
// the same shape gets, on both hosts and both entries. The planner runs
// on a queue's dispatcher goroutine, where a panic ends the process,
// so the host must never see these; afterwards it still deploys and
// serves the well-formed corpus.
func TestMalformedDeployRefusedAtSubmission(t *testing.T) {
	vecs, docs := testData.Vectors[:40], testData.Docs[:40]
	cents := [][]float32{vecs[0], vecs[1]}
	assign := make([]int, len(vecs))
	ivf := func(edit func(*DeployConfig)) HostCommand {
		cfg := &DeployConfig{ID: 1, Vectors: vecs, Docs: docs, DocSlotBytes: 256,
			Centroids: cents, Assign: slices.Clone(assign)}
		edit(cfg)
		return HostCommand{Opcode: OpcodeIVFDeploy, Deploy: cfg}
	}
	ragged := slices.Clone(vecs)
	ragged[7] = ragged[7][:64]
	cases := []struct {
		name string
		cmd  HostCommand
		want error
	}{
		{"assign-past-centroids", ivf(func(c *DeployConfig) { c.Assign[3] = len(cents) }), errBadAssign},
		{"assign-negative", ivf(func(c *DeployConfig) { c.Assign[3] = -1 }), errBadAssign},
		{"short-meta-tags", ivf(func(c *DeployConfig) { c.MetaTags = make([]uint8, len(vecs)-1) }), errMissingPayload},
		{"ragged-vector-dims", ivf(func(c *DeployConfig) { c.Vectors = ragged }), errQueryDims},
		{"centroid-dim-mismatch", ivf(func(c *DeployConfig) { c.Centroids = [][]float32{cents[0], cents[1][:64]} }), errQueryDims},
		{"dim-0-vectors", HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
			ID: 1, Vectors: make([][]float32, len(vecs)), Docs: docs, DocSlotBytes: 256}}, errQueryDims},
	}
	for _, h := range []interface {
		submitter
		NewQueue(QueueConfig) (*Queue, error)
	}{newEngine(t, AllOptions()), newSharded(t, 2)} {
		q, err := h.NewQueue(QueueConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		for _, tc := range cases {
			if _, err := h.Submit(tc.cmd); !errors.Is(err, tc.want) {
				t.Errorf("%T %s: Submit error = %v, want %v", h, tc.name, err, tc.want)
			}
			if _, err := q.SubmitAsync(context.Background(), tc.cmd); !errors.Is(err, tc.want) {
				t.Errorf("%T %s: SubmitAsync error = %v, want %v", h, tc.name, err, tc.want)
			}
		}
		mustSubmit(t, h, ivf(func(*DeployConfig) {}))
		mustSubmit(t, h, HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:2], K: 5, Opt: SearchOptions{NProbe: 2}})
	}
}

// TestNotCalibratedSentinel: a TargetRecall operand with no covering
// calibration fails with errNotCalibrated (resolution happens at
// execution, not admission); after CalibrateNProbe the same command
// succeeds, and a calibration against too short a ground truth is
// refused. Covered on both hosts.
func TestNotCalibratedSentinel(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, 16)
	cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries[:2], K: 10, TargetRecall: 0.9}
	if _, err := e.Submit(cmd); !errors.Is(err, errNotCalibrated) {
		t.Fatalf("uncalibrated TargetRecall error = %v, want errNotCalibrated", err)
	}
	if _, err := e.CalibrateNProbe(1, testData.Queries, testData.GroundTruth, 10, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(cmd); err != nil {
		t.Fatalf("calibrated TargetRecall failed: %v", err)
	}
	// A tighter target than anything calibrated still fails.
	tight := cmd
	tight.TargetRecall = 0.999
	if _, err := e.Submit(tight); !errors.Is(err, errNotCalibrated) {
		t.Fatalf("uncovered TargetRecall error = %v, want errNotCalibrated", err)
	}

	sh := newSharded(t, 2)
	deployBoth(t, sh.Submit)
	shCmd := cmd
	shCmd.DBID = 2
	if _, err := sh.Submit(shCmd); !errors.Is(err, errNotCalibrated) {
		t.Fatalf("sharded uncalibrated TargetRecall error = %v, want errNotCalibrated", err)
	}
	// A ground truth shorter than the query set is the caller's error,
	// not an index panic, on either host.
	short := testData.GroundTruth[:len(testData.Queries)-1]
	if _, err := e.CalibrateNProbe(1, testData.Queries, short, 10, 0.9); err == nil {
		t.Error("calibrated against a ground truth shorter than the query set")
	}
	if _, err := sh.CalibrateNProbe(2, testData.Queries, short, 10, 0.9); err == nil {
		t.Error("sharded host calibrated against a ground truth shorter than the query set")
	}
}

// TestQueueFullSentinel: admission control rejects deterministically
// beyond the configured depth and frees slots as completions are
// consumed.
func TestQueueFullSentinel(t *testing.T) {
	e := newEngine(t, AllOptions())
	deployFlat(t, e, 1)
	q, err := e.NewQueue(QueueConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.pause()
	cmd := HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:1], K: 3}
	for i := 0; i < 2; i++ {
		if _, err := q.SubmitAsync(context.Background(), cmd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.SubmitAsync(context.Background(), cmd); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submission error = %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	q.resume()
}
