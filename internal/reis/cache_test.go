package reis

import (
	"fmt"
	"reflect"
	"testing"

	"reis/internal/ssd"
)

// Cache test budgets. With the shard test geometry (4096B pages, 1024B
// OOB) and the 128-dim test data (16B slots, 256 per page), each of the
// 16 IVF clusters spans about one binary page, so:
//
//   - cacheSmallBudget pins only some of the hot clusters and holds only
//     a few results — both tiers run mixed with the flash path;
//   - cacheBigBudget pins every cluster and holds every per-query result
//     of the shared test query set — the all-cached extreme.
const (
	cacheSmallBudget = 48 << 10
	cacheBigBudget   = 256 << 10
)

func cachedRefCfg(n int, budget int64) ssd.Config {
	cfg := refCfg(n)
	cfg.CacheDRAMBytes = budget
	return cfg
}

func cachedShardCfg(budget int64) ssd.Config {
	cfg := shardTestCfg()
	cfg.CacheDRAMBytes = budget
	return cfg
}

// cacheInvariant checks the page-partition invariant per query: on the
// unpruned path, a cached engine serves some fine pages from DRAM and
// the rest from flash, so cached.FinePages + cached.CachedPages must
// equal the uncached run's FinePages exactly. Result-cache hits did no
// scan work at all and are exempt.
func cacheInvariant(t *testing.T, name string, cached, uncached HostResponse) {
	t.Helper()
	if len(cached.QueryStats) != len(uncached.QueryStats) {
		t.Fatalf("%s: stats length %d vs %d", name, len(cached.QueryStats), len(uncached.QueryStats))
	}
	for i := range cached.QueryStats {
		c, u := cached.QueryStats[i], uncached.QueryStats[i]
		if c.ResultCacheHits > 0 {
			if c.FinePages != 0 || c.CachedPages != 0 {
				t.Errorf("%s q%d: hit with scan work %+v", name, i, c)
			}
			continue
		}
		if c.FinePages+c.CachedPages != u.FinePages {
			t.Errorf("%s q%d: partition %d+%d != uncached fine %d",
				name, i, c.FinePages, c.CachedPages, u.FinePages)
		}
		if c.CoarsePages != u.CoarsePages {
			t.Errorf("%s q%d: coarse pages %d != %d", name, i, c.CoarsePages, u.CoarsePages)
		}
	}
}

// cacheScript is the repeated-search workload the equivalence tests
// replay on every topology: the same IVF batch several times (warming
// the probe counters, then hitting the result cache), flat batches,
// nprobe variations (distinct cache keys), and exact single-query
// repeats. Every command goes through Submit, the path that consults
// the result cache.
func cacheScript(t *testing.T, h submitter) []HostResponse {
	t.Helper()
	queries := testData.Queries
	var resps []HostResponse
	run := func(cmd HostCommand) {
		t.Helper()
		resp, err := h.Submit(cmd)
		if err != nil {
			t.Fatalf("opcode %#x: %v", cmd.Opcode, err)
		}
		resps = append(resps, resp)
	}
	ivf := func(q [][]float32, nprobe int, opt SearchOptions) HostCommand {
		return HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, NProbe: nprobe, Opt: opt}
	}
	for r := 0; r < 3; r++ {
		run(ivf(queries, 4, SearchOptions{SkipDocs: true}))
	}
	run(ivf(queries, 4, SearchOptions{}))            // docs: distinct key space
	run(ivf(queries, 8, SearchOptions{}))            // wider probe, different pins get hot
	run(ivf(queries[:6], 4, SearchOptions{}))        // exact repeats of earlier queries
	run(ivf(queries, 4, SearchOptions{Prune: true})) // pruned path over pinned clusters
	run(ivf(queries, 4, SearchOptions{Prune: true}))
	run(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10})
	run(HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: queries, K: 10})
	return resps
}

// TestCachedMatchesUncached pins the caching tier's determinism
// contract on the deployed (unmutated) dataset, at a partial-pin and an
// everything-pinned budget:
//
//   - results are bit-identical to an uncached engine, command for
//     command, query for query;
//   - on unpruned commands the page-partition invariant holds;
//   - a cached sharded topology (1, 2, 4 shards) is bit-identical in
//     results AND aggregated stats to the cached N×channels reference.
func TestCachedMatchesUncached(t *testing.T) {
	for _, budget := range []int64{cacheSmallBudget, cacheBigBudget} {
		t.Run(fmt.Sprintf("budget=%dKiB", budget>>10), func(t *testing.T) {
			uncached, err := New(refCfg(1), 64<<20, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { uncached.Close() })
			deployBoth(t, uncached.Submit)
			base := cacheScript(t, uncached)

			for _, n := range shardCounts {
				single, err := New(cachedRefCfg(n, budget), 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { single.Close() })
				deployBoth(t, single.Submit)
				sh, err := NewSharded(cachedShardCfg(budget), n, 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sh.Close() })
				deployBoth(t, sh.Submit)

				got := cacheScript(t, single)
				gotSh := cacheScript(t, sh)
				for i := range base {
					name := fmt.Sprintf("n=%d cmd=%d", n, i)
					if !reflect.DeepEqual(got[i].Results, base[i].Results) {
						t.Fatalf("%s: cached results diverge from uncached", name)
					}
					if !mutRespEqual(got[i], gotSh[i]) {
						t.Fatalf("%s: sharded diverges from reference: %s vs %s",
							name, briefResp(gotSh[i]), briefResp(got[i]))
					}
					// The last two script entries per opcode are pruned
					// commands: pinned segments are never lb-aborted, so
					// their pages move between Fine/Pruned accounting and
					// only unpruned rows satisfy the page partition.
					if i != 7 && i != 8 {
						cacheInvariant(t, name, got[i], base[i])
					}
				}
				hits, cachedPages := 0, 0
				for _, resp := range got {
					hits += resp.Stats.ResultCacheHits
					cachedPages += resp.Stats.CachedPages
				}
				// The script repeats the same hot query set, so the tier
				// must actually engage: pinned pages served from DRAM,
				// and (at the big budget) result-cache hits.
				if cachedPages == 0 {
					t.Errorf("n=%d: no pinned-cluster pages served across the script", n)
				}
				if budget == cacheBigBudget && hits == 0 {
					t.Errorf("n=%d: no result-cache hits across the script", n)
				}
			}
		})
	}
}

// TestCachedSeqMatchesBatch checks one-query IVF_Search commands (each
// refreshes the pins and scans them itself) against whole batches (one
// refresh per batch) on cached engines: the pin sets differ, the
// results must not. Every round probes one cluster more than the last,
// so no command repeats an earlier one and the result cache serves
// none of them: the comparison isolates the hot-cluster tier.
func TestCachedSeqMatchesBatch(t *testing.T) {
	seq, err := New(cachedRefCfg(1, cacheSmallBudget), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seq.Close() })
	deployBoth(t, seq.Submit)
	batch, err := New(cachedRefCfg(1, cacheSmallBudget), 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { batch.Close() })
	deployBoth(t, batch.Submit)

	for round := 0; round < 3; round++ {
		opt := SearchOptions{NProbe: 4 + round}
		want, wantSts := search(t, batch, OpcodeIVFSearch, 2, testData.Queries, 10, opt)
		for qi, q := range testData.Queries {
			got, st := searchOne(t, seq, OpcodeIVFSearch, 2, q, 10, opt)
			if !reflect.DeepEqual(got, want[qi]) {
				t.Fatalf("round %d q%d: sequential cached result diverges", round, qi)
			}
			if st.ResultCacheHits+wantSts[qi].ResultCacheHits != 0 {
				t.Fatalf("round %d q%d: served from the result cache, the pins were not compared", round, qi)
			}
		}
	}
}

// TestCachedMatchesUncachedMutated runs the shared mutation script
// (deploy, appends, deletes with interleaved searches) on cached
// engines, flat and IVF, across shard counts:
//
//   - every response is bit-identical between the cached sharded
//     topology and the cached single-device reference;
//   - results are bit-identical to a fully uncached run, so mutation
//     invalidation never serves stale pins or results;
//   - a duplicate search after the script exercises result-cache hits
//     (the script's own searches all miss: every mutation drops the
//     cache) and must still match the uncached results.
func TestCachedMatchesUncachedMutated(t *testing.T) {
	const budget = 96 << 10
	c := newMutCorpus()
	for _, ivf := range []bool{false, true} {
		name := "flat"
		if ivf {
			name = "ivf"
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range shardCounts {
				plain, err := New(mutRefCfg(n), 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { plain.Close() })
				base := runMutScript(t, plain, c, ivf, 0)

				cachedCfg := mutRefCfg(n)
				cachedCfg.CacheDRAMBytes = budget
				single, err := New(cachedCfg, 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { single.Close() })
				got := runMutScript(t, single, c, ivf, 0)

				shCfg := mutTestCfg()
				shCfg.CacheDRAMBytes = budget
				sh, err := NewSharded(shCfg, n, 64<<20, AllOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sh.Close() })
				gotSh := runMutScript(t, sh, c, ivf, 0)

				for i := range base {
					name := fmt.Sprintf("n=%d resp=%d", n, i)
					if !reflect.DeepEqual(got[i].Results, base[i].Results) {
						t.Fatalf("%s: cached results diverge from uncached", name)
					}
					if !mutRespEqual(got[i], gotSh[i]) {
						t.Fatalf("%s: sharded diverges from reference: %s vs %s",
							name, briefResp(gotSh[i]), briefResp(got[i]))
					}
					cacheInvariant(t, name, got[i], base[i])
				}

				// Duplicate final search: no mutation in between, so the
				// cached engines may now serve result-cache hits — and
				// must still agree with each other and with uncached.
				searchOp, nprobe := OpcodeSearch, 0
				if ivf {
					searchOp, nprobe = OpcodeIVFSearch, 4
				}
				cmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: testData.Queries, K: 10, NProbe: nprobe}
				want, err := plain.Submit(cmd)
				if err != nil {
					t.Fatal(err)
				}
				r1, err := single.Submit(cmd)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := sh.Submit(cmd)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1.Results, want.Results) {
					t.Fatalf("n=%d: post-script cached results diverge from uncached", n)
				}
				if !mutRespEqual(r1, r2) {
					t.Fatalf("n=%d: post-script sharded diverges: %s vs %s", n, briefResp(r2), briefResp(r1))
				}
			}
		})
	}
}
