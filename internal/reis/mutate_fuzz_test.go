package reis

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/ssd"
)

// FuzzAppendDeleteSearch is the mutability state-machine fuzzer: a
// byte string decodes into an interleaved sequence of append, delete,
// compact and search operations, which is executed simultaneously on a
// single-device engine and a 2-shard router built from the same plan.
// The oracle is the mutability determinism contract itself — every
// response (results, stats, assigned ids, wear) must be bit-identical
// across the two topologies — plus the tombstone invariant: a deleted
// id never surfaces again.
//
// CI replays the seed corpus on every push; the nightly workflow
// fuzzes each target for 10 minutes.

// fuzzWorld is the shared (immutable) corpus the fuzzer mutates from.
type fuzzWorld struct {
	base    *dataset.Dataset
	pool    [][]float32 // appendable vectors (quantization-scale safe)
	poolDoc [][]byte
	cents   [][]float32
	assign  []int // base ++ pool
}

var (
	fuzzOnce sync.Once
	fuzzW    *fuzzWorld
)

func fuzzWorldGet() *fuzzWorld {
	fuzzOnce.Do(func() {
		data := dataset.Generate(dataset.Config{
			Name: "mut-fuzz", N: 240, Dim: 64, Clusters: 8, Queries: 6,
			DocBytes: 64, Seed: 99,
		})
		const nBase = 180
		w := &fuzzWorld{base: data}
		w.pool = scaleInto(data.Vectors[nBase:], maxAbs(data.Vectors[:nBase]))
		w.poolDoc = data.Docs[nBase:]
		corpus := append(append([][]float32{}, data.Vectors[:nBase]...), w.pool...)
		w.cents, w.assign = ann.KMeans(corpus, ann.KMeansConfig{K: 8, Seed: 5})
		w.base.Vectors = data.Vectors[:nBase]
		w.base.Docs = data.Docs[:nBase]
		fuzzW = w
	})
	return fuzzW
}

func fuzzCfg() ssd.Config {
	cfg := ssd.SSD1()
	cfg.Geo.Channels = 2
	cfg.Geo.DiesPerChannel = 1
	cfg.Geo.PlanesPerDie = 2
	cfg.Geo.BlocksPerPlane = 32
	cfg.Geo.PagesPerBlock = 8
	cfg.Geo.PageBytes = 2048
	cfg.Geo.OOBBytes = 640
	cfg.OverprovisionPct = 300
	// The DRAM caching tier runs live under the fuzzers: the budget pins
	// about half the fuzz world's clusters and holds a couple of search
	// results, so hot-cluster scans, result-cache hits and mutation
	// invalidation are all exercised on both topologies. A stale hit
	// after a mutation would surface as a deleted id or a response
	// divergence.
	cfg.CacheDRAMBytes = 12 << 10
	return cfg
}

// pinFuzzCfg is fuzzCfg cut to one channel — two planes a device — for
// the fuzzers whose oracle covers pinned scans. Pin admission
// (dbCache.refresh) pins nothing while a command's widest probe fits the
// planes in one wave, and the fuzz world's clusters are a page each: an
// IVF probe must be wider than the reference device has planes (2 for one
// shard, 4 for two) or the hot-cluster half of the tier sits the fuzzing
// out. pinFuzzNProbe clears both.
func pinFuzzCfg() ssd.Config {
	cfg := fuzzCfg()
	cfg.Geo.Channels = 1
	return cfg
}

const pinFuzzNProbe = 5

// pinFuzzNarrowNProbe is a probe that fits pinFuzzCfg's two planes in one
// wave: the command after it finds the wave gate shut.
const pinFuzzNarrowNProbe = 2

func FuzzAppendDeleteSearch(f *testing.F) {
	// Seeds: a search-only run, append-heavy, delete-then-compact, and
	// a mixed flat-database script.
	f.Add([]byte{1, 0, 1})
	f.Add([]byte{1, 2, 3, 2, 2, 0, 1, 3, 0, 4, 2, 0, 0})
	f.Add([]byte{1, 3, 0, 3, 1, 3, 2, 4, 3, 0, 1, 2, 1, 4, 1, 0, 2})
	f.Add([]byte{0, 2, 1, 0, 0, 3, 5, 4, 0, 0, 3})
	// The same mixes through a one-member ShardedEngine (bit 1 of the
	// first byte), whose reference is a plain Engine on the same config.
	f.Add([]byte{3, 2, 3, 2, 2, 0, 1, 3, 0, 4, 2, 0, 0})
	f.Add([]byte{2, 2, 1, 0, 0, 3, 5, 4, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 48 {
			t.Skip()
		}
		w := fuzzWorldGet()
		ivf := data[0]%2 == 1
		shards := 2 - int(data[0]>>1)%2
		ops := data[1:]

		refCfg := refOf(pinFuzzCfg(), shards)
		single, err := New(refCfg, 0, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer single.Close()
		sh, err := NewSharded(pinFuzzCfg(), shards, 0, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()

		deploy := &DeployConfig{ID: 1, Vectors: w.base.Vectors, Docs: w.base.Docs, DocSlotBytes: 64}
		op := OpcodeDBDeploy
		searchOp, nprobe := OpcodeSearch, 0
		if ivf {
			op = OpcodeIVFDeploy
			deploy.Centroids = w.cents
			deploy.Assign = w.assign[:len(w.base.Vectors)]
			searchOp, nprobe = OpcodeIVFSearch, pinFuzzNProbe
		}
		both := func(cmd HostCommand) (HostResponse, HostResponse, error) {
			t.Helper()
			a, errA := single.Submit(cmd)
			b, errB := sh.Submit(cmd)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("opcode %#x: single err %v, sharded err %v", cmd.Opcode, errA, errB)
			}
			if d := respDiff(a, b); errA == nil && d != "" {
				t.Fatalf("opcode %#x: sharded response diverges from the single device's: %s", cmd.Opcode, d)
			}
			return a, b, errA
		}
		if _, _, err := both(HostCommand{Opcode: op, Deploy: deploy}); err != nil {
			t.Fatal(err)
		}

		liveIDs := make([]int, len(w.base.Vectors))
		for i := range liveIDs {
			liveIDs[i] = i
		}
		deleted := map[int]bool{}
		poolAt := 0
		for i := 0; i+1 < len(ops); i += 2 {
			b, arg := ops[i], int(ops[i+1])
			switch b % 5 {
			case 0, 1: // search, unpruned and pruned
				q := w.base.Queries[arg%len(w.base.Queries)]
				cmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: [][]float32{q}, K: 5, Opt: SearchOptions{NProbe: nprobe}}
				resp, _, err := both(cmd)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range resp.Results[0] {
					if deleted[r.ID] {
						t.Fatalf("deleted id %d surfaced", r.ID)
					}
				}
				// Re-issue the identical command: with the caching tier on
				// it now hits the result cache on BOTH topologies, and the
				// served copy must match the fresh computation (a stale
				// entry surviving a mutation would surface a deleted id
				// here, or diverge between the topologies).
				rresp, _, err := both(cmd)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rresp.Results, resp.Results) {
					t.Fatalf("repeated search results diverge from first issue")
				}
				// The same search with threshold pruning must return
				// bit-identical results on this mutated state (both()
				// already pins pruned single == pruned sharded).
				cmd.Opt.Prune = true
				presp, _, err := both(cmd)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(presp.Results, resp.Results) {
					t.Fatalf("pruned search results diverge from unpruned")
				}
			case 2: // append 1-3 items from the pool (cycling)
				n := 1 + arg%3
				vecs := make([][]float32, n)
				docs := make([][]byte, n)
				var assign []int
				for j := 0; j < n; j++ {
					k := (poolAt + j) % len(w.pool)
					vecs[j] = w.pool[k]
					docs[j] = w.poolDoc[k]
					if ivf {
						assign = append(assign, w.assign[len(w.base.Vectors)+k])
					}
				}
				poolAt += n
				resp, _, err := both(HostCommand{Opcode: OpcodeAppend, DBID: 1,
					Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}})
				if err != nil {
					// ErrRegionFull must strike both topologies alike
					// (checked in both); state is unchanged, continue.
					continue
				}
				liveIDs = append(liveIDs, resp.AppendedIDs...)
			case 3: // delete one live id (deterministic pick)
				if len(liveIDs) == 0 {
					continue
				}
				k := arg % len(liveIDs)
				id := liveIDs[k]
				if _, _, err := both(HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{id}}}); err != nil {
					t.Fatal(err)
				}
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
				deleted[id] = true
			case 4: // compact
				thr := []float64{0, 0.25, 0.9, 1}[arg%4]
				if _, _, err := both(HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: thr}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Closing search: the full state must still agree, with and
		// without pruning.
		if len(w.base.Queries) > 0 {
			cmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: w.base.Queries, K: 5, Opt: SearchOptions{NProbe: nprobe}}
			resp, _, err := both(cmd)
			if err != nil {
				t.Fatal(err)
			}
			cmd.Opt.Prune = true
			presp, _, err := both(cmd)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(presp.Results, resp.Results) {
				t.Fatalf("closing pruned search diverges from unpruned")
			}
		}
		if !bytes.Equal(sh.JournalBytes(), single.JournalBytes()) {
			t.Fatalf("journals diverge for the same history")
		}
	})
}

// FuzzPrunedSearch fuzzes the pruning equivalence contract directly:
// a byte string decodes into a mutation prologue (append and delete
// counts) plus search parameters (flat/IVF, k, nprobe), and the oracle
// is the prune axis of TestEquivalenceLattice — pruned results are
// bit-identical to unpruned, and the pruned response is bit-identical
// between a 2-shard router and its double-channel single-device
// reference. CI replays the committed seed corpus
// (testdata/fuzz/FuzzPrunedSearch) on every push; nightly fuzzes it.
func FuzzPrunedSearch(f *testing.F) {
	f.Add([]byte{1, 5, 3, 2, 4})
	f.Add([]byte{0, 2, 0, 6, 9})
	f.Add([]byte{1, 1, 8, 0, 0})
	f.Add([]byte{1, 8, 1, 11, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 32 {
			t.Skip()
		}
		w := fuzzWorldGet()
		ivf := data[0]%2 == 1
		k := 1 + int(data[1])%8
		nprobe := int(data[2]) % 9
		nAppend := int(data[3]) % 12
		nDelete := int(data[4]) % 12

		refCfg := refOf(fuzzCfg(), 2)
		single, err := New(refCfg, 0, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer single.Close()
		sh, err := NewSharded(fuzzCfg(), 2, 0, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()

		deploy := &DeployConfig{ID: 1, Vectors: w.base.Vectors, Docs: w.base.Docs, DocSlotBytes: 64}
		op := OpcodeDBDeploy
		searchOp := OpcodeSearch
		if ivf {
			op = OpcodeIVFDeploy
			deploy.Centroids = w.cents
			deploy.Assign = w.assign[:len(w.base.Vectors)]
			searchOp = OpcodeIVFSearch
		}
		both := func(cmd HostCommand) HostResponse {
			t.Helper()
			a, errA := single.Submit(cmd)
			b, errB := sh.Submit(cmd)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("opcode %#x: single err %v, sharded err %v", cmd.Opcode, errA, errB)
			}
			if errA != nil {
				t.Fatalf("opcode %#x: %v", cmd.Opcode, errA)
			}
			if d := respDiff(a, b); d != "" {
				t.Fatalf("opcode %#x: sharded response diverges from the single device's: %s", cmd.Opcode, d)
			}
			return a
		}
		both(HostCommand{Opcode: op, Deploy: deploy})
		if nAppend > 0 {
			vecs := make([][]float32, nAppend)
			docs := make([][]byte, nAppend)
			var assign []int
			for j := 0; j < nAppend; j++ {
				p := j % len(w.pool)
				vecs[j] = w.pool[p]
				docs[j] = w.poolDoc[p]
				if ivf {
					assign = append(assign, w.assign[len(w.base.Vectors)+p])
				}
			}
			both(HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}})
		}
		if nDelete > 0 {
			seen := map[int]bool{}
			var ids []int
			for j := 0; j < nDelete; j++ {
				id := (7*j + 3) % len(w.base.Vectors)
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			both(HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: ids}})
		}

		cmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: w.base.Queries, K: k, Opt: SearchOptions{NProbe: nprobe}}
		want := both(cmd)
		cmd.Opt.Prune = true
		got := both(cmd)
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("pruned results diverge from unpruned (ivf=%v k=%d nprobe=%d append=%d delete=%d)",
				ivf, k, nprobe, nAppend, nDelete)
		}
	})
}

// FuzzCachedSearch fuzzes the DRAM caching tier's transparency contract
// directly: the same interleaved search/append/delete sequence runs on
// one cached and one uncached single-device engine, and every search
// must return bit-identical results. On unpruned misses the
// page-partition invariant is checked exactly — the cached engine's
// flash fine pages plus its DRAM-served pages must equal the uncached
// engine's fine pages — and a result-cache hit must report zero scan
// work. CI replays the committed seed corpus
// (testdata/fuzz/FuzzCachedSearch) on every push; nightly fuzzes it.
//
// Both engines are pinFuzzCfg devices probing pinFuzzNProbe clusters, so
// the scripts scan pinned pages — or, where a search's operand byte has
// its high bit set, two clusters: one wave of the two planes, which shuts
// the wave gate for the command after it, drops the pins and leaves the
// results the whole budget until the next wide probe's pins squeeze them
// back. After every command PinnedBytes + ResultBytes <= CacheDRAMBytes.
// TestCachedFuzzServesPins holds the seeds to both.
func FuzzCachedSearch(f *testing.F) {
	for _, seed := range cachedFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { cachedFuzz(t, data) })
}

var cachedFuzzSeeds = [][]byte{
	{1, 0, 0, 0, 0, 1, 0, 2},
	{1, 1, 0, 0, 3, 2, 0, 1, 1, 4, 0, 0},
	{0, 0, 0, 3, 2, 1, 4, 5, 0, 3},
	{1, 0, 1, 7, 2, 2, 0, 4, 3, 1, 0, 5, 1, 2},
	// Across the wave gate and back: four narrow probes fill the unpinned
	// budget with results, two wide ones open the gate and the pins evict
	// all but two; the newest still hits; then a mutation and a re-pin.
	{1, 0, 0, 128, 0, 129, 0, 130, 0, 131, 0, 0, 0, 1, 0, 0, 2, 1, 0, 2, 0, 128},
}

// TestCachedFuzzServesPins: the IVF seeds of FuzzCachedSearch scan
// pinned pages — its oracle compares DRAM scans with flash scans, not
// flash with flash — and the last one has a growing pin set evict results.
func TestCachedFuzzServesPins(t *testing.T) {
	var cs CacheStats
	for i, seed := range cachedFuzzSeeds {
		var pinned int
		if pinned, cs = cachedFuzz(t, seed); seed[0]%2 == 1 && pinned == 0 {
			t.Errorf("seed %d: an IVF script served no pinned page", i)
		}
	}
	if cs.ResultSqueezes == 0 || cs.GateShut < 2 || cs.ResultHits == 0 {
		t.Errorf("the last seed did not squeeze results across the wave gate: %+v", cs)
	}
}

// cachedFuzz is FuzzCachedSearch's body; it returns the pages the cached
// engine served from pins and the tier's final counters.
func cachedFuzz(t *testing.T, data []byte) (pinned int, cs CacheStats) {
	if len(data) < 2 || len(data) > 48 {
		t.Skip()
	}
	w := fuzzWorldGet()
	ivf := data[0]%2 == 1
	budget := []int64{12 << 10, 64 << 10}[int(data[1])%2]
	ops := data[2:]

	plainCfg := pinFuzzCfg()
	plainCfg.CacheDRAMBytes = 0
	plain, err := New(plainCfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cachedCfg := plainCfg
	cachedCfg.CacheDRAMBytes = budget
	cached, err := New(cachedCfg, 0, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	deploy := &DeployConfig{ID: 1, Vectors: w.base.Vectors, Docs: w.base.Docs, DocSlotBytes: 64}
	op := OpcodeDBDeploy
	searchOp, nprobe := OpcodeSearch, 0
	if ivf {
		op = OpcodeIVFDeploy
		deploy.Centroids = w.cents
		deploy.Assign = w.assign[:len(w.base.Vectors)]
		searchOp, nprobe = OpcodeIVFSearch, pinFuzzNProbe
	}
	both := func(cmd HostCommand) (HostResponse, HostResponse, error) {
		t.Helper()
		a, errA := plain.Submit(cmd)
		b, errB := cached.Submit(cmd)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("opcode %#x: plain err %v, cached err %v", cmd.Opcode, errA, errB)
		}
		if errA == nil && !reflect.DeepEqual(a.Results, b.Results) {
			t.Fatalf("opcode %#x: cached results diverge from uncached", cmd.Opcode)
		}
		if errA == nil {
			var err error
			if cs, err = cached.CacheStats(1); err != nil {
				t.Fatal(err)
			}
			budgetInvariant(t, "after a fuzz command", cs, budget)
		}
		return a, b, errA
	}
	if _, _, err := both(HostCommand{Opcode: op, Deploy: deploy}); err != nil {
		t.Fatal(err)
	}

	liveIDs := make([]int, len(w.base.Vectors))
	for i := range liveIDs {
		liveIDs[i] = i
	}
	deleted := map[int]bool{}
	poolAt := 0
	for i := 0; i+1 < len(ops); i += 2 {
		b, arg := ops[i], int(ops[i+1])
		switch b % 4 {
		case 0, 1: // search (varying query, occasionally pruned or narrow)
			q := w.base.Queries[arg%len(w.base.Queries)]
			cmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: [][]float32{q}, K: 5, Opt: SearchOptions{NProbe: nprobe}}
			if ivf && arg >= 128 {
				cmd.Opt.NProbe = pinFuzzNarrowNProbe
			}
			pruned := b%4 == 1 && arg%3 == 0
			cmd.Opt.Prune = pruned
			pr, cr, err := both(cmd)
			if err != nil {
				t.Fatal(err)
			}
			st := cr.QueryStats[0]
			pinned += st.CachedPages
			if st.ResultCacheHits > 0 {
				if st.FinePages != 0 || st.CachedPages != 0 || st.CoarsePages != 0 {
					t.Fatalf("result-cache hit reports scan work: %+v", st)
				}
			} else if !pruned {
				if got, want := st.FinePages+st.CachedPages, pr.QueryStats[0].FinePages; got != want {
					t.Fatalf("page partition violated: %d+%d != %d",
						st.FinePages, st.CachedPages, want)
				}
			}
			for _, r := range cr.Results[0] {
				if deleted[r.ID] {
					t.Fatalf("deleted id %d surfaced from cached engine", r.ID)
				}
			}
		case 2: // append 1-3 items from the pool (cycling)
			n := 1 + arg%3
			vecs := make([][]float32, n)
			docs := make([][]byte, n)
			var assign []int
			for j := 0; j < n; j++ {
				k := (poolAt + j) % len(w.pool)
				vecs[j] = w.pool[k]
				docs[j] = w.poolDoc[k]
				if ivf {
					assign = append(assign, w.assign[len(w.base.Vectors)+k])
				}
			}
			poolAt += n
			resp, _, err := both(HostCommand{Opcode: OpcodeAppend, DBID: 1,
				Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}})
			if err != nil {
				continue
			}
			liveIDs = append(liveIDs, resp.AppendedIDs...)
		case 3: // delete one live id
			if len(liveIDs) == 0 {
				continue
			}
			k := arg % len(liveIDs)
			id := liveIDs[k]
			if _, _, err := both(HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{id}}}); err != nil {
				t.Fatal(err)
			}
			liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
			deleted[id] = true
		}
	}
	return pinned, cs
}
