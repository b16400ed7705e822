package reis

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"reis/internal/vecmath"
)

// TestStreamConsumersOrderFree pins the contract the scan's fold rests
// on: a query's entry stream is a set, so the order the devices and
// planes hand it over in cannot move a result or a counter. One query's
// fine stream is built from a deployed IVF database the way the planes
// produce it — every linked binary slot of the posting lists, its
// DADR/RADR read back from the programmed pages and its code's Hamming
// distance to the query — and its
// coarse stream from the centroid codes. Each consumer then takes the
// position-ordered stream and seeded permutations of it, before and
// after a delete tombstones some of the query's best documents:
//   - the controller tail: results, documents and every QueryStats field;
//   - feedTracker: the pruning bound;
//   - the coarse selection: the selected clusters, their lower bounds and
//     every QueryStats field.
func TestStreamConsumersOrderFree(t *testing.T) {
	const nlist, k, nprobe = 16, 10, 4
	e := newEngine(t, AllOptions())
	deployIVF(t, e, 1, nlist)
	db, err := e.hostDB(1)
	if err != nil {
		t.Fatal(err)
	}
	query := testData.Queries[3]
	qbits := vecmath.BinaryQuantize(query, nil)

	var fine []ttlEntry
	var bits []uint64
	per := db.lay.embPerPage
	for _, list := range db.mut.buckets {
		for _, sr := range list {
			for g := sr.First / per; g <= sr.Last/per; g++ {
				data, oob, err := e.readPage(db, embRegion, g, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for pos := max(sr.First, g*per); pos <= min(sr.Last, (g+1)*per-1); pos++ {
					l, ok := parseLink(oob, pos%per)
					if !ok {
						continue // padding
					}
					bits = vecmath.UnpackBinaryBytes(db.lay.code(data, pos%per), bits)
					fine = append(fine, ttlEntry{Dist: int32(vecmath.Hamming(qbits, bits)), Pos: int32(pos), DADR: l.dadr, RADR: l.radr})
				}
			}
		}
	}
	var coarse []ttlEntry
	for c, cc := range db.lay.centCodes {
		coarse = append(coarse, ttlEntry{Dist: int32(vecmath.Hamming(qbits, cc)), Pos: int32(c)})
	}

	type outcome struct {
		res    []DocResult
		tailSt QueryStats
		bound  int
		sel    []prunedCluster
		selSt  QueryStats
	}
	ctl := &controller{h: &e.hostCore, db: db, scr: &e.hostCore.scr.ctrl}
	ctl.scr.sel = growTo(ctl.scr.sel, 1)
	consume := func(fine, coarse []ttlEntry) (o outcome) {
		t.Helper()
		var tomb []uint64
		if db.mut.deadCount > 0 {
			tomb = db.mut.tomb
		}
		var err error
		if o.res, err = e.tail(db, query, slices.Clone(fine), k, SearchOptions{}, &o.tailSt, &outBlocks{waiting: 1}); err != nil {
			t.Fatal(err)
		}
		tr := boundTracker{capacity: rerankPool(k)}
		feedTracker(&tr, fine, tomb)
		o.bound = tr.bound()
		ctl.selectClusters(0, slices.Clone(coarse), nprobe, &o.selSt)
		o.sel = slices.Clone(ctl.scr.sel[0])
		return o
	}
	check := func(phase string) outcome {
		t.Helper()
		want := consume(fine, coarse)
		rng := rand.New(rand.NewPCG(7, 11))
		for p := range 8 {
			pf, pc := slices.Clone(fine), slices.Clone(coarse)
			rng.Shuffle(len(pf), func(i, j int) { pf[i], pf[j] = pf[j], pf[i] })
			rng.Shuffle(len(pc), func(i, j int) { pc[i], pc[j] = pc[j], pc[i] })
			got := consume(pf, pc)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("%s, permutation %d: tail results %v, want %v", phase, p, ids(got.res), ids(want.res))
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"tail stats", got.tailSt, want.tailSt},
				{"pruning bound", got.bound, want.bound},
				{"selected clusters", got.sel, want.sel},
				{"selection stats", got.selSt, want.selSt},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%s, permutation %d: %s\n got %+v\nwant %+v", phase, p, c.what, c.got, c.want)
				}
			}
		}
		return want
	}

	live := check("no tombstones")
	if len(live.res) != k || live.bound <= 0 || len(live.sel) != nprobe {
		t.Fatalf("degenerate reference: %d results, bound %d, %d clusters", len(live.res), live.bound, len(live.sel))
	}
	// Tombstone the query's two best documents and every 7th id.
	dead := []int{live.res[0].ID, live.res[1].ID}
	for id := 0; id < len(testData.Vectors); id += 7 {
		if id != dead[0] && id != dead[1] {
			dead = append(dead, id)
		}
	}
	mustSubmit(t, e, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: dead}})
	if got := check("tombstoned"); reflect.DeepEqual(got.res, live.res) || got.bound == live.bound && got.tailSt == live.tailSt {
		t.Fatalf("the delete changed nothing the consumers report: results %v, bound %d", ids(got.res), got.bound)
	}
}

// ids lists the result ids, for failure messages.
func ids(res []DocResult) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}
