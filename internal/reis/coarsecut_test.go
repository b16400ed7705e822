package reis

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"reis/internal/dataset"
	"reis/internal/vecmath"
)

// cutHook is a host whose deploys rewrite the database's coarse-cut
// table (dbLayout.coarseCut) before any search sees it: nil turns the cut
// off, all zeros forces every query to re-issue its coarse round. It is
// the only way the table is ever changed.
type cutHook struct {
	h interface {
		submitter
		hostDB(int) (*rdbEntry, error)
	}
	table func([]int) []int
}

func (c cutHook) Submit(cmd HostCommand) (HostResponse, error) {
	resp, err := c.h.Submit(cmd)
	if err == nil && isDeployOp(cmd.Opcode) {
		db, err := c.h.hostDB(cmd.Deploy.ID)
		if err != nil {
			return resp, err
		}
		db.lay.coarseCut = c.table(db.lay.coarseCut)
	}
	return resp, err
}

func noCut([]int) []int { return nil }

func zeroCut(cut []int) []int { return make([]int, len(cut)) }

// selections copies every query's selected clusters out of the host's
// controller scratch, in coarse rank order.
func selections(h *hostCore, nq int) [][]int {
	out := make([][]int, nq)
	for qi, sel := range h.scr.ctrl.sel[:nq] {
		for _, pc := range sel {
			out[qi] = append(out[qi], pc.cluster)
		}
	}
	return out
}

// TestCoarseCutLossless: for every nprobe of the test index, on 1, 2 and
// 4 devices, the cut selects the clusters the uncut round selects, in the
// same rank order, and every result is bit-identical; only the TTL-C
// entries that cross move. At nprobe = nlist the cut is off, and the
// stats are the uncut ones outright.
func TestCoarseCutLossless(t *testing.T) {
	queries := testData.Queries
	for _, n := range shardCounts {
		cut, ref := newSharded(t, n), newSharded(t, n)
		deployBoth(t, cut.Submit)
		deployBoth(t, cutHook{ref, noCut}.Submit)
		db, err := cut.hostDB(2)
		if err != nil {
			t.Fatal(err)
		}
		nlist := db.lay.nlist()
		heldBack := false
		for nprobe := 1; nprobe <= nlist; nprobe++ {
			opt := SearchOptions{NProbe: nprobe}
			wantRes, wantSts := search(t, ref, OpcodeIVFSearch, 2, queries, 10, opt)
			wantSel := selections(&ref.hostCore, len(queries))
			gotRes, gotSts := search(t, cut, OpcodeIVFSearch, 2, queries, 10, opt)
			if gotSel := selections(&cut.hostCore, len(queries)); !reflect.DeepEqual(gotSel, wantSel) {
				t.Fatalf("shards=%d nprobe=%d: selected clusters %v, uncut %v", n, nprobe, gotSel, wantSel)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("shards=%d nprobe=%d: results differ from the uncut round's", n, nprobe)
			}
			for qi, st := range gotSts {
				w := wantSts[qi]
				if st.CoarseEntries < nlist || st.FinePages != w.FinePages ||
					st.EntriesScanned-st.CoarseEntries != w.EntriesScanned-w.CoarseEntries ||
					st.Survivors-st.CoarseSurvivors != w.Survivors-w.CoarseSurvivors {
					t.Fatalf("shards=%d nprobe=%d query %d: fine phase moved\n got %+v\nwant %+v", n, nprobe, qi, st, w)
				}
				heldBack = heldBack || st.CoarseSurvivors < st.CoarseEntries
			}
			if nprobe == nlist && !reflect.DeepEqual(gotSts, wantSts) {
				t.Fatalf("shards=%d: at nprobe = nlist the cut is off, yet the stats moved", n)
			}
		}
		if !heldBack {
			t.Fatalf("shards=%d: the cut held back no TTL-C entry at any nprobe", n)
		}
	}
}

// TestCoarseCutReissue: with a cut nothing passes, every query re-runs
// its coarse round uncut. Its results and fine phase are the uncut run's;
// its stats count both rounds (twice the centroid pages and centroids
// ranked, and the TTL-C entries of both), and the model charges both.
func TestCoarseCutReissue(t *testing.T) {
	queries := testData.Queries
	for _, n := range shardCounts {
		forced, ref := newSharded(t, n), newSharded(t, n)
		deployBoth(t, cutHook{forced, zeroCut}.Submit)
		deployBoth(t, cutHook{ref, noCut}.Submit)
		cmd := HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: queries, K: 10, Opt: SearchOptions{NProbe: 4}}
		want, got := mustSubmit(t, ref, cmd), mustSubmit(t, forced, cmd)
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("shards=%d: re-issued results differ from the uncut round's", n)
		}
		for qi, st := range got.QueryStats {
			w := want.QueryStats[qi]
			if st.CoarsePages != 2*w.CoarsePages || st.CoarseEntries != 2*w.CoarseEntries ||
				st.CoarseSurvivors < w.CoarseSurvivors || st.FinePages != w.FinePages ||
				st.Survivors-st.CoarseSurvivors != w.Survivors-w.CoarseSurvivors {
				t.Fatalf("shards=%d query %d: a re-issue must count both coarse rounds\n got %+v\nwant %+v", n, qi, st, w)
			}
			var rows QueryStats
			for _, row := range got.ShardStats(qi) {
				rows.Add(row)
			}
			if rows.CoarseEntries != st.CoarseEntries || rows.CoarseSurvivors != st.CoarseSurvivors {
				t.Fatalf("shards=%d query %d: device rows carry %d/%d coarse entries, the aggregate %d/%d",
					n, qi, rows.CoarseEntries, rows.CoarseSurvivors, st.CoarseEntries, st.CoarseSurvivors)
			}
			// Every device prices its own share of both rounds: each round
			// is its own waves on the centroid pages it holds.
			gotDB, _ := forced.hostDB(2)
			wantDB, _ := ref.hostDB(2)
			for s, d := range forced.devs {
				ev := d.scanEvents(gotDB.locals[s], got.PerShard[s][qi], UnitScale())
				gotB := d.scanCost(gotDB.locals[s], ev)
				wantB := ref.devs[s].scanCost(wantDB.locals[s], ref.devs[s].scanEvents(wantDB.locals[s], want.PerShard[s][qi], UnitScale()))
				if wantB.coarse > 0 && (ev.coarseRounds != 2 || gotB.coarse <= wantB.coarse || gotB.fine != wantB.fine) {
					t.Fatalf("shards=%d query %d device %d: %d coarse rounds priced %v, one uncut round %v",
						n, qi, s, ev.coarseRounds, gotB.coarse, wantB.coarse)
				}
			}
		}
	}
}

// TestCoarseCutLosslessUnderMutation: the table is built once, at deploy,
// and appends, deletes and a compaction never touch it; results stay the
// uncut host's through the whole script.
func TestCoarseCutLosslessUnderMutation(t *testing.T) {
	c := newMutCorpus()
	for _, n := range shardCounts {
		cut, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cut.Close() })
		ref, err := NewSharded(mutTestCfg(), n, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ref.Close() })
		got := runMutScript(t, cut, c, true, 0.9)
		want := runMutScript(t, cutHook{ref, noCut}, c, true, 0.9)
		heldBack := false
		for i := range want {
			if !reflect.DeepEqual(got[i].Results, want[i].Results) {
				t.Fatalf("shards=%d: response %d's results differ from the uncut host's", n, i)
			}
			for _, st := range got[i].QueryStats {
				heldBack = heldBack || st.CoarseSurvivors < st.CoarseEntries
			}
		}
		if !heldBack {
			t.Fatalf("shards=%d: the cut held back no TTL-C entry in the script", n)
		}
	}
}

// TestCoarseCutOffWithoutFilter: the cut rides Options.DistanceFilter.
// Without it every centroid crosses, so the model's inputs — and every
// Breakdown digit, pinned by the ladder's noopt rows — are the uncut ones.
func TestCoarseCutOffWithoutFilter(t *testing.T) {
	opts := AllOptions()
	opts.DistanceFilter = false
	e, err := New(testCfg(), 64<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployBoth(t, e.Submit)
	_, sts := search(t, e, OpcodeIVFSearch, 2, testData.Queries, 10, SearchOptions{NProbe: 1})
	for qi, st := range sts {
		if st.CoarseEntries != 16 || st.CoarseSurvivors != st.CoarseEntries {
			t.Fatalf("query %d: %d of %d centroids crossed without the distance filter", qi, st.CoarseSurvivors, st.CoarseEntries)
		}
	}
}

// TestCalibrateCoarseCut: the table has one entry per nprobe, never
// falls as nprobe grows, and lets at least 99 % of the sample keep its
// whole top-n at every n.
func TestCalibrateCoarseCut(t *testing.T) {
	db := deployIVF(t, newEngine(t, AllOptions()), 2, 16)
	cut, nlist := db.coarseCut, db.nlist()
	if len(cut) != nlist || !slices.IsSorted(cut) {
		t.Fatalf("cut table %v for nlist %d", cut, nlist)
	}
	codes := calibrationSample(testData.Vectors)
	for n := 1; n <= nlist; n++ {
		short := 0
		for _, code := range codes {
			pass := 0
			for _, cc := range db.centCodes {
				if vecmath.Hamming(code, cc) <= cut[n-1] {
					pass++
				}
			}
			if pass < n {
				short++
			}
		}
		if short*100 > len(codes) {
			t.Fatalf("nprobe %d: %d of %d sampled codes fall short of the cut %d", n, short, len(codes), cut[n-1])
		}
	}
}

// sortedFilterThreshold is calibrateFilter's reference: it reads each
// pseudo-query's k'-th distance by sorting all n − 1 of them.
func sortedFilterThreshold(codes [][]uint64) int {
	const pseudoQueries, kSafety = 64, 32
	if len(codes) < 2 {
		return len(codes[0]) * 64
	}
	qStep := max(1, len(codes)/pseudoQueries)
	var kths []int
	for qi := 0; qi < len(codes); qi += qStep {
		var dists []int
		for ci, c := range codes {
			if ci != qi {
				dists = append(dists, vecmath.Hamming(codes[qi], c))
			}
		}
		sort.Ints(dists)
		kths = append(kths, dists[min(kSafety, len(dists)-1)])
	}
	sort.Ints(kths)
	med := kths[len(kths)/2]
	return med + med/4 + 2
}

// TestCalibrateFilterMatchesSort: the histogram's order statistic gives
// the threshold the sort gave, on every catalog corpus's calibration
// sample, the test corpus's, and samples too small for the k'-th
// neighbour — identical codes (every distance 0) among them.
func TestCalibrateFilterMatchesSort(t *testing.T) {
	samples := map[string][][]uint64{"test corpus": calibrationSample(testData.Vectors)}
	names := make([]string, 0, len(dataset.Catalog))
	for name := range dataset.Catalog {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		samples[name] = calibrationSample(dataset.Load(name, 64).Vectors)
	}
	small := samples["test corpus"]
	for _, n := range []int{1, 2, 3, 33, 34, 35} {
		samples[fmt.Sprintf("first %d test codes", n)] = small[:n]
	}
	same := make([][]uint64, 40)
	for i := range same {
		same[i] = small[0]
	}
	samples["40 identical codes"] = same
	for name, codes := range samples {
		if got, want := calibrateFilter(codes), sortedFilterThreshold(codes); got != want {
			t.Errorf("%s (%d codes): threshold %d, the sort gives %d", name, len(codes), got, want)
		}
	}
}
