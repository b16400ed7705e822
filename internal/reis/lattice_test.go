package reis

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"reis/internal/dataset"
	"reis/internal/flash"
	"reis/internal/ssd"
)

// TestEquivalenceLattice is the host's one metamorphic oracle, after
// "Metamorphic testing: a new approach for generating next test cases"
// (Chen, Cheung and Yiu, 1998): every option's claim that a search
// returns what the plain path returns, crossed with every other. A point
// takes one value on each axis of latticeAxes — the distance filter,
// Prune, the cache budget, 1/2/4 devices, MPIBC, the entry (batched,
// one-query or queued commands) and the database (fresh, or mutated
// with wear-leveled or first-fit placement and searched between its
// mutations, latticeHistory) — and serves latticeScript.
// Pipelining is not an axis: only the timing model reads it, so it
// cannot move a result or a QueryStats field.
//
// A point equals its reference (refKey: an Engine with the point's
// options on one device with dev times the channels, batched) bit for
// bit; each reference equals its plain one (unpruned, uncached, MPIBC
// on, same filter setting and history) but for the fields latticeMoves
// lets it move; the distance filter is lossy, so it is never held
// against its own absence. DESIGN.md, "Equivalence lattice", lists what
// else is held and what each point must show it did.
//
// Plain `go test` runs all 432 points. Under the race detector it runs
// latticeCover's subset instead: every pair of axis values, and every
// combination of prune × cache × dev × db.
func TestEquivalenceLattice(t *testing.T) {
	points := latticePoints()
	if len(points) != 432 {
		t.Fatalf("%d lattice points, want 432", len(points))
	}
	if raceEnabled {
		points = latticeCover(points)
	}
	// Every point is held to the reference of its key, and so is a queue
	// point's prune twin; every reference is held to its plain one.
	refs := map[latticePoint]*latticeRef{}
	var keys []latticePoint
	need := func(k latticePoint) {
		for _, k := range []latticePoint{k, k.plain()} {
			if refs[k] == nil {
				refs[k] = &latticeRef{}
				keys = append(keys, k)
			}
		}
	}
	for _, p := range points {
		need(p.refKey())
		if p[axEntry] == entryQueue {
			need(p.twin().refKey())
		}
	}
	if !t.Run("refs", func(t *testing.T) {
		for _, k := range keys {
			t.Run(k.name(latticeRefAxes), func(t *testing.T) {
				t.Parallel()
				refs[k].build(t, k)
			})
		}
	}) {
		return
	}
	checkLatticeRefs(t, refs, keys)
	// Points that share their host axes run under one subtest. A cached
	// host carries what it served into the next command, so it serves one
	// point; uncached, a search leaves nothing behind, and one host serves
	// every prune and entry value.
	var hosts []latticePoint
	groups := map[latticePoint][]latticePoint{}
	for _, p := range points {
		hp := p
		hp[axPrune], hp[axEntry] = 0, 0
		if groups[hp] == nil {
			hosts = append(hosts, hp)
		}
		groups[hp] = append(groups[hp], p)
	}
	t.Logf("%d points on %d host settings, %d references", len(points), len(hosts), len(keys))
	for _, hp := range hosts {
		t.Run(hp.name(latticeHostAxes), func(t *testing.T) {
			t.Parallel()
			var shared *ShardedEngine
			if hp[axCache] == 0 {
				shared = newLatticeHost(t, hp, refs[hp.refKey().plain()], true)
			}
			batched := map[int][]HostResponse{}
			for _, p := range groups[hp] {
				t.Run(p.name(latticeCommandAxes), func(t *testing.T) {
					h := shared
					if h == nil {
						h = newLatticeHost(t, p, refs[p.refKey().plain()], p[axEntry] == entryBatch)
					}
					serveLatticePoint(t, h, p, refs, batched)
				})
			}
		})
	}
}

// The axes of the lattice, in latticePoint order.
const (
	axFilter = iota
	axPrune
	axCache
	axDev
	axMPIBC
	axEntry
	axDB
	numAxes
)

// latticeAxes names each axis and its values.
var latticeAxes = [numAxes]struct {
	name   string
	values []string
}{
	axFilter: {"filter", []string{"off", "on"}},
	axPrune:  {"prune", []string{"off", "on"}},
	axCache:  {"cache", []string{"0", "64KiB"}},
	axDev:    {"dev", []string{"1", "2", "4"}},
	axMPIBC:  {"mpibc", []string{"on", "off"}},
	axEntry:  {"entry", []string{"batch", "seq", "queue"}},
	axDB:     {"db", []string{"fresh", "mutated", "mutated-firstfit"}},
}

// Values of the entry and db axes.
const (
	entryBatch = iota
	entrySeq
	entryQueue
)

const (
	dbFresh = iota
	dbMutated
	dbFirstFit
)

// latticeBudget is the cached points' CacheDRAMBytes: on latticeCfg pins
// pay at it, and the room they leave holds the results the script's
// repeated command hits, one-query commands included.
const latticeBudget = 64 << 10

// latticeMoves lists, per axis, the QueryStats fields a host with the
// axis's second value may move away from one with its first. The
// filter, dev and db axes move nothing: references share them. Nor does
// the entry path: a query's row is its own, whatever rides along. A
// result-cache hit zeroes its whole row but for ResultCacheHits;
// checkLatticeResp checks those rows on their own.
var latticeMoves = [numAxes][]string{
	// Aborted segments sense nothing, bounded slots cross no channel,
	// and every round is a broadcast.
	axPrune: {"FineWaves", "FinePages", "EntriesScanned", "Survivors", "TTLBytes", "SelectInput",
		"IBCBroadcasts", "IBCLoads", "IBCTotalLoads", "PrunedPages", "AbortedWaves", "PrunedSlots"},
	// Pinned pages are scanned by the controller instead of the planes,
	// so their slots cross no channel either; pruned, a pinned segment is
	// never aborted, and the slots its bound drops are not counted.
	axCache: {"FineWaves", "FinePages", "EntriesScanned", "Survivors", "TTLBytes",
		"IBCBroadcasts", "IBCLoads", "IBCTotalLoads", "PrunedPages", "AbortedWaves", "PrunedSlots",
		"CachedPages", "CachedSlots"},
	// One load a die instead of one a plane.
	axMPIBC: {"IBCLoads", "IBCTotalLoads"},
}

type latticePoint [numAxes]int

// The host axes set up a host; the command axes say what is submitted
// to it and how.
var (
	latticeHostAxes    = []int{axFilter, axCache, axDev, axMPIBC, axDB}
	latticeCommandAxes = []int{axPrune, axEntry}
)

// name names the point by its values on the axes given.
func (p latticePoint) name(axes []int) string {
	parts := make([]string, len(axes))
	for i, a := range axes {
		parts[i] = latticeAxes[a].name + "=" + latticeAxes[a].values[p[a]]
	}
	return strings.Join(parts, ",")
}

func (p latticePoint) String() string {
	return p.name(append(slices.Clone(latticeHostAxes), latticeCommandAxes...))
}

func (p latticePoint) devices() int { return 1 << p[axDev] }

// moved is the union of latticeMoves over the axes on which the point
// does not take the first value.
func (p latticePoint) moved() (fields []string) {
	for a, v := range p {
		if v != 0 {
			fields = append(fields, latticeMoves[a]...)
		}
	}
	return fields
}

// latticePoints enumerates the whole lattice.
func latticePoints() []latticePoint {
	points := []latticePoint{{}}
	for a := range numAxes {
		var next []latticePoint
		for _, p := range points {
			for v := range latticeAxes[a].values {
				p[a] = v
				next = append(next, p)
			}
		}
		points = next
	}
	return points
}

// latticeCover picks, greedily and in lattice order, points until every
// pair of values of two axes and every combination of prune, cache, dev
// and db appears in one of them: the subset the race detector runs.
func latticeCover(points []latticePoint) []latticePoint {
	type need struct {
		axes [4]int // -1 pads a pair
		vals [4]int
	}
	covers := func(p latticePoint, n need) bool {
		for i, a := range n.axes {
			if a >= 0 && p[a] != n.vals[i] {
				return false
			}
		}
		return true
	}
	open := map[need]bool{}
	for _, p := range points {
		for a := range numAxes {
			for b := a + 1; b < numAxes; b++ {
				open[need{[4]int{a, b, -1, -1}, [4]int{p[a], p[b]}}] = true
			}
		}
		open[need{[4]int{axPrune, axCache, axDev, axDB}, [4]int{p[axPrune], p[axCache], p[axDev], p[axDB]}}] = true
	}
	var subset []latticePoint
	for len(open) > 0 {
		best, bestN := 0, 0
		for i, p := range points {
			n := 0
			for nd := range open {
				if covers(p, nd) {
					n++
				}
			}
			if n > bestN {
				best, bestN = i, n
			}
		}
		for nd := range open {
			if covers(points[best], nd) {
				delete(open, nd)
			}
		}
		subset = append(subset, points[best])
	}
	return subset
}

// latticeCfg is the one device geometry of the lattice: pinGeo's
// single two-plane die under 512-byte pages, so a probe of several
// clusters outgrows a wave and pins pay on every device count, with
// mutTestCfg's overprovisioning for appends and GC.
func latticeCfg() ssd.Config { return pinGeo(mutTestCfg()) }

// The host and command axes of a reference: it is batched, and first-fit
// placement moves nothing a reference records.
var latticeRefAxes = []int{axFilter, axPrune, axCache, axDev, axMPIBC, axDB}

// refKey is the reference a point is held to: a plain Engine on one
// device with dev times the channels, with the point's filter, prune,
// MPIBC and database history, serving the script batched — and its
// cache budget, unless the point serves one-query commands from a cache,
// whose pin sets and hits depend on the commands: such a point is held
// to the uncached reference, less the fields the cache moves.
func (p latticePoint) refKey() latticePoint {
	k := p
	k[axEntry] = entryBatch
	if k[axDB] == dbFirstFit {
		k[axDB] = dbMutated
	}
	if p[axEntry] != entryBatch {
		k[axCache] = 0
	}
	return k
}

// plain is the reference a reference is held to: unpruned, uncached,
// MPIBC on.
func (p latticePoint) plain() latticePoint {
	p[axPrune], p[axCache], p[axMPIBC] = 0, 0, 0
	return p
}

// twin is the point with the other prune value.
func (p latticePoint) twin() latticePoint {
	p[axPrune] ^= 1
	return p
}

// config and options are the device configuration and the options of
// the point's hosts.
func (p latticePoint) config() ssd.Config {
	cfg := latticeCfg()
	if p[axCache] == 1 {
		cfg.CacheDRAMBytes = latticeBudget
	}
	return cfg
}

func (p latticePoint) options() Options {
	return Options{DistanceFilter: p[axFilter] == 1, Pipelining: true, MPIBC: p[axMPIBC] == 0, FirstFitPlacement: p[axDB] == dbFirstFit}
}

// latticeRef is what a reference host answered: its history's steps,
// its journal, every page of every region of both databases
// (latticePages; read on plain references only, as options write
// nothing), the calibrated nprobe and the search script's responses.
type latticeRef struct {
	muts    []latticeStep
	journal []byte
	pages   [][][][]byte
	nprobe  int
	resps   []HostResponse
}

// latticePages reads every global page of every region of both
// databases, by region, database and page: data then OOB, nil where the
// page is unmapped.
func latticePages(t *testing.T, c *hostCore) (pages [][][][]byte) {
	t.Helper()
	for _, region := range []regionOf{embRegion, centRegion, int8Region, docRegion} {
		var dbs [][][]byte
		for _, id := range []int{1, 2} {
			db, err := c.hostDB(id)
			if err != nil {
				t.Fatal(err)
			}
			var total int
			for _, local := range db.locals {
				total += region(local).PageCount
			}
			dbPages := make([][]byte, total)
			for g := range dbPages {
				if data, oob, err := c.readPage(db, region, g, nil, nil); err == nil {
					dbPages[g] = append(data, oob...)
				}
			}
			dbs = append(dbs, dbPages)
		}
		pages = append(pages, dbs)
	}
	return pages
}

// build runs reference k and records what it answered.
func (ref *latticeRef) build(t *testing.T, k latticePoint) {
	e, err := New(refOf(k.config(), k.devices()), 64<<20, k.options())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref.muts = latticeHistory(t, e, k[axDB] != dbFresh)
	ref.journal = e.JournalBytes()
	if k == k.plain() {
		ref.pages = latticePages(t, &e.hostCore)
	}
	ref.nprobe = latticeCalibrate(t, &e.hostCore)
	for _, cmd := range latticeScript(k[axPrune] == 1) {
		ref.resps = append(ref.resps, mustSubmit(t, e, cmd))
	}
}

// checkLatticeRefs holds the references against each other. Each
// answers its history and calibration as its plain reference does (the
// history's probes but for the fields its cache and MPIBC values move),
// and the script too but for the fields its prune, cache and MPIBC
// values move; a plain reference's pruned probes answer as its unpruned
// ones but for the fields pruning moves; its results are those of one
// device; the filter-off mutated one answers its last probes before each
// compact, tombstones live, and the script as a fresh deploy of the
// final corpus does, up to the monotone id renumbering a deploy
// performs.
func checkLatticeRefs(t *testing.T, refs map[latticePoint]*latticeRef, keys []latticePoint) {
	t.Helper()
	for _, k := range keys {
		ref, plain := refs[k], refs[k.plain()]
		holdLatticeHistory(t, "reference "+k.name(latticeRefAxes), k, plain.muts, ref.muts)
		if k == k.plain() {
			pruned := 0
			for i, s := range ref.muts {
				if !s.cmd.Opt.Prune {
					continue
				}
				if d := respDiff(ref.muts[i-1].resp, s.resp, latticeMoves[axPrune]...); d != "" {
					t.Fatalf("reference %s history step %d: the pruned probe differs from the unpruned one: %s", k.name(latticeRefAxes), i, d)
				}
				pruned += s.resp.Stats.PrunedPages + s.resp.Stats.PrunedSlots
			}
			// The distance filter already drops what the probes' bounds
			// would, so only the filter-off probes must prune.
			if k[axDB] != dbFresh && k[axFilter] == 0 && pruned == 0 {
				t.Fatalf("reference %s: the history's pruned probes pruned nothing", k.name(latticeRefAxes))
			}
		}
		if !bytes.Equal(ref.journal, plain.journal) || ref.nprobe != plain.nprobe {
			t.Fatalf("reference %s: journal or calibrated nprobe (%d) differs from the plain reference's (%d)",
				k.name(latticeRefAxes), ref.nprobe, plain.nprobe)
		}
		one := k
		one[axDev] = 0
		for i, got := range ref.resps {
			checkLatticeResp(t, "reference "+k.name(latticeRefAxes), k, i, plain.resps[i], got, k.moved())
			if r := refs[one]; r != nil && !reflect.DeepEqual(got.Results, r.resps[i].Results) {
				t.Fatalf("reference %s command %d: results differ from one device's", k.name(latticeRefAxes), i)
			}
		}
	}
	var mutated latticePoint
	mutated[axDB] = dbMutated
	mut := refs[mutated]
	if mut == nil {
		return
	}
	fresh, toFresh := freshLatticeDeploy(t, mut.muts)
	var held []latticeStep
	for i, s := range mut.muts {
		if s.cmd.Opcode == OpcodeCompact {
			held = append(held, mut.muts[i-2], mut.muts[i-1])
		}
	}
	for i, cmd := range latticeScript(false) {
		if cmd.TargetRecall == 0 { // else calibrated against ground truth in the mutated id space
			held = append(held, latticeStep{cmd, mut.resps[i]})
		}
	}
	for i, s := range held {
		want := mustSubmit(t, fresh, s.cmd)
		for qi, res := range s.resp.Results {
			got := make([]DocResult, len(res))
			for j, r := range res {
				got[j] = DocResult{ID: toFresh[s.cmd.DBID][r.ID], Dist: r.Dist, Doc: r.Doc}
			}
			if !reflect.DeepEqual(got, want.Results[qi]) {
				t.Fatalf("held command %d query %d: the mutated corpus answers %v, a fresh deploy of it %v", i, qi, got, want.Results[qi])
			}
		}
	}
}

// latticeTags are the corpus' meta tags, by corpus index.
func latticeTags(n int) []uint8 {
	tags := make([]uint8, n)
	for i := range tags {
		tags[i] = uint8(i % 4)
	}
	return tags
}

// latticeStep is one command of a history and the host's response.
type latticeStep struct {
	cmd  HostCommand
	resp HostResponse
}

// latticeHost is what a history is served on: either host.
type latticeHost interface {
	submitter
	hostDB(id int) (*rdbEntry, error)
	CacheStats(dbID int) (CacheStats, error)
}

// latticeHistory deploys newMutCorpus's base as a flat database (1) and
// an IVF one (2) and, when mutated, takes each in turn through the
// append of batch 1, a probe, the delete set's delete, a probe, the
// append of batch 2, a probe and a compact. A probe (latticeProbe)
// searches the database unpruned, then pruned. The last two probes run
// with the deleted entries tombstoned and not yet collected; on a cached
// host every probe leaves pins (IVF) and results the mutation after it
// must drop. It returns every step after the deploys.
func latticeHistory(t testing.TB, h latticeHost, mutated bool) []latticeStep {
	t.Helper()
	c := latticeCorpus()
	nb, n1 := len(c.base), len(c.batch1)
	tags := latticeTags(nb + n1 + len(c.batch2))
	latticeDeploy(t, h, c.base, c.baseDocs, tags[:nb], c.assign[:nb])
	if !mutated {
		return nil
	}
	var steps []latticeStep
	for _, id := range []int{1, 2} {
		db, err := h.hostDB(id)
		if err != nil {
			t.Fatal(err)
		}
		probed := false
		run := func(cmd HostCommand) HostResponse {
			t.Helper()
			if probed && cmd.Opcode != OpcodeSearch && cmd.Opcode != OpcodeIVFSearch && db.cache != nil {
				if cs, err := h.CacheStats(id); err != nil || cs.ResultEntries == 0 || id == 2 && cs.PinnedBytes == 0 {
					t.Fatalf("database %d: cache %+v (%v) holds no results or no pins before opcode %#x", id, cs, err, cmd.Opcode)
				}
			}
			r := mustSubmit(t, h, cmd)
			steps = append(steps, latticeStep{cmd, r})
			return r
		}
		probe := func() {
			for _, cmd := range latticeProbe(id) {
				run(cmd)
			}
			probed = true
		}
		appendBatch := func(vecs [][]float32, docs [][]byte, from int) HostResponse {
			a := &AppendConfig{Vectors: vecs, Docs: docs, MetaTags: tags[from : from+len(vecs)]}
			if id == 2 {
				a.Assign = c.assign[from : from+len(vecs)]
			}
			return run(HostCommand{Opcode: OpcodeAppend, DBID: id, Append: a})
		}
		r1 := appendBatch(c.batch1, c.b1Docs, nb)
		probe()
		var del []int
		for _, idx := range latticeDeleted() {
			if idx < nb {
				del = append(del, idx)
			} else {
				del = append(del, r1.AppendedIDs[idx-nb])
			}
		}
		run(HostCommand{Opcode: OpcodeDelete, DBID: id, Del: &DeleteConfig{IDs: del}})
		probe()
		appendBatch(c.batch2, c.b2Docs, nb+n1)
		probe()
		if db.mut.deadCount != len(del) {
			t.Fatalf("database %d: %d tombstones live at the last probe, %d deleted", id, db.mut.deadCount, len(del))
		}
		run(HostCommand{Opcode: OpcodeCompact, DBID: id, Compact: &CompactConfig{MinLiveRatio: 0.9}})
	}
	return steps
}

// latticeProbe is a history probe of database id: the script's first
// search of it on four queries the script does not ask, unpruned and
// then pruned.
func latticeProbe(id int) []HostCommand {
	cmd := latticeScript(false)[0]
	if id == 2 {
		cmd = latticeScript(false)[2]
	}
	cmd.Queries = latticeProbeQueries
	pruned := cmd
	pruned.Opt.Prune = true
	return []HostCommand{cmd, pruned}
}

// holdLatticeHistory holds the history a host of point p served to want,
// its plain reference's: mutations bit for bit, probes but for the
// fields p's cache and MPIBC values move.
func holdLatticeHistory(t *testing.T, what string, p latticePoint, want, got []latticeStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: a history of %d steps, the reference's has %d", what, len(got), len(want))
	}
	for i, s := range got {
		if s.cmd.Opcode != OpcodeSearch && s.cmd.Opcode != OpcodeIVFSearch {
			if d := respDiff(want[i].resp, s.resp); d != "" {
				t.Fatalf("%s history step %d: %s", what, i, d)
			}
			continue
		}
		q := p
		q[axPrune] = 0
		moved := q.moved()
		if s.cmd.Opt.Prune {
			q[axPrune] = 1
		}
		checkLatticeResp(t, what+" history", q, i, want[i].resp, s.resp, moved)
	}
}

// latticeDeploy deploys a corpus as the flat database 1 and, with assign
// over the lattice corpus' centroids, the IVF database 2.
func latticeDeploy(t testing.TB, h submitter, vecs [][]float32, docs [][]byte, tags []uint8, assign []int) {
	t.Helper()
	mustSubmit(t, h, HostCommand{Opcode: OpcodeDBDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: vecs, Docs: docs, DocSlotBytes: 256, MetaTags: tags}})
	mustSubmit(t, h, HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{
		ID: 2, Vectors: vecs, Docs: docs, DocSlotBytes: 256, MetaTags: tags, Centroids: latticeCorpus().cents, Assign: assign}})
}

// latticeCorpus is the lattice's one corpus, built on first use.
var latticeCorpus = sync.OnceValue(newMutCorpus)

// latticeProbeQueries are the history probes' queries, none of them the
// script's.
var latticeProbeQueries = testData.Queries[20:24]

// latticeDeleted is the corpus indices a mutated history deletes:
// newMutCorpus's spread, and the 16 base entries nearest each probe
// query that the calibration's ground truth does not name. A bound
// tracker fed the distances of those while they are tombstoned would
// cut the pruned probe's pool short.
var latticeDeleted = sync.OnceValue(func() []int {
	keep := map[int]bool{}
	for _, ids := range latticeGroundTruth() {
		for _, id := range ids {
			keep[id] = true
		}
	}
	del := map[int]bool{}
	for _, idx := range latticeCorpus().deleteIdx {
		del[idx] = true
	}
	for _, q := range latticeProbeQueries {
		for _, id := range dataset.ExactTopK(latticeCorpus().base, q, 16) {
			if !keep[id] {
				del[id] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(del))
})

// freshLatticeDeploy deploys, filter off, the corpus latticeHistory's
// mutations leave (muts are its steps), and maps each database's live
// ids to the ids the fresh deploy gives them.
func freshLatticeDeploy(t *testing.T, muts []latticeStep) (*Engine, map[int]map[int]int) {
	t.Helper()
	c := latticeCorpus()
	nb, n1 := len(c.base), len(c.batch1)
	deleted := map[int]bool{}
	for _, idx := range latticeDeleted() {
		deleted[idx] = true
	}
	tags := latticeTags(nb + n1 + len(c.batch2))
	all := slices.Concat(c.base, c.batch1, c.batch2)
	docs := slices.Concat(c.baseDocs, c.b1Docs, c.b2Docs)
	var vecs [][]float32
	var fdocs [][]byte
	var ftags []uint8
	var assign []int
	for i := range all {
		if !deleted[i] {
			vecs, fdocs, ftags, assign = append(vecs, all[i]), append(fdocs, docs[i]), append(ftags, tags[i]), append(assign, c.assign[i])
		}
	}
	e, err := New(latticeCfg(), 64<<20, Options{Pipelining: true, MPIBC: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	latticeDeploy(t, e, vecs, fdocs, ftags, assign)
	// Each database's ids in corpus order: the base, then each append's
	// assigned ids; the deleted ones get no fresh id.
	ids := map[int][]int{}
	for _, id := range []int{1, 2} {
		for j := range nb {
			ids[id] = append(ids[id], j)
		}
	}
	for _, s := range muts {
		if s.cmd.Opcode == OpcodeAppend {
			ids[s.cmd.DBID] = append(ids[s.cmd.DBID], s.resp.AppendedIDs...)
		}
	}
	toFresh := map[int]map[int]int{}
	for id, ids := range ids {
		toFresh[id] = map[int]int{}
		for j, mid := range ids {
			if !deleted[j] {
				toFresh[id][mid] = len(toFresh[id])
			}
		}
	}
	return e, toFresh
}

// latticeGroundTruth is the exact top 10 of the script's TargetRecall
// queries over the corpus base, whose ids every history keeps. The
// appends bring nearer neighbours, so the script targets a recall the
// mutated corpus meets too (0.79 there, 0.975 fresh, at any nprobe).
const latticeTarget = 0.75

var latticeGroundTruth = sync.OnceValue(func() (gt [][]int) {
	for _, q := range testData.Queries[:8] {
		gt = append(gt, dataset.ExactTopK(latticeCorpus().base, q, 10))
	}
	return gt
})

// latticeCalibrate calibrates database 2 for the script's TargetRecall
// command.
func latticeCalibrate(t *testing.T, c *hostCore) int {
	t.Helper()
	np, err := c.CalibrateNProbe(2, testData.Queries[:8], latticeGroundTruth(), 10, latticeTarget)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// latticeScript is the search script every point serves: a flat search
// with and without a tag filter, IVF searches at nprobe 4 and full probe,
// at two k, with and without documents, a repeat of the last queries of
// the command before it, which a cached host serves from its result
// cache (they are its newest entries, so one-query commands find them
// too), and a TargetRecall search. Neighbouring commands of a database
// differ in one operand each, so a queue pair, which coalesces runs of
// commands alike in every operand, decides on each operand in turn.
func latticeScript(prune bool) []HostCommand {
	tag := uint8(2)
	q := testData.Queries[:8]
	nlist := len(latticeCorpus().cents)
	cmds := []HostCommand{
		{Opcode: OpcodeSearch, DBID: 1, Queries: q, K: 10},
		{Opcode: OpcodeSearch, DBID: 1, Queries: q, K: 10, Opt: SearchOptions{MetaTag: &tag}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, Opt: SearchOptions{NProbe: 4}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q, K: 10, Opt: SearchOptions{NProbe: nlist}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q[:6], K: 2, Opt: SearchOptions{NProbe: nlist}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q[:6], K: 2, Opt: SearchOptions{NProbe: nlist, SkipDocs: true}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q[4:6], K: 2, Opt: SearchOptions{NProbe: nlist, SkipDocs: true}},
		{Opcode: OpcodeIVFSearch, DBID: 2, Queries: q[:8], K: 5, TargetRecall: latticeTarget, Opt: SearchOptions{SkipDocs: true}},
	}
	for i := range cmds {
		cmds[i].Opt.Prune = prune
	}
	return cmds
}

// latticeServe serves the script on h through the point's entry and
// returns one response per command — for the one-query entries,
// reassembled from the commands of its queries — and how many commands
// a queue pair coalesced, or, batched, how many senses the shared rounds
// run page-major saved.
func latticeServe(t *testing.T, h *ShardedEngine, cmds []HostCommand, entry int) (resps []HostResponse, coalesced, saved int64) {
	t.Helper()
	if entry == entryBatch {
		for _, cmd := range cmds {
			r, s := serveCounted(t, h, cmd)
			resps, saved = append(resps, r), saved+s
		}
		return resps, 0, saved
	}
	var ones []HostCommand
	for _, cmd := range cmds {
		for i := range cmd.Queries {
			one := cmd
			one.Queries = cmd.Queries[i : i+1]
			ones = append(ones, one)
		}
	}
	got := make([]HostResponse, len(ones))
	if entry == entrySeq {
		for i, one := range ones {
			got[i] = mustSubmit(t, h, one)
		}
	} else {
		q, err := h.NewQueue(QueueConfig{Depth: len(ones)})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		q.pause()
		ids := make([]CommandID, len(ones))
		for i, one := range ones {
			if ids[i], err = q.SubmitAsync(context.Background(), one); err != nil {
				t.Fatal(err)
			}
		}
		q.resume()
		for i, id := range ids {
			got[i] = waitOK(t, q, id)
		}
		coalesced = int64(q.Stats().Coalesced)
	}
	for _, cmd := range cmds {
		r := HostResponse{Done: true, PerShard: make([][]QueryStats, h.Shards())}
		for _, one := range got[:len(cmd.Queries)] {
			r.Done = r.Done && one.Done
			r.Results = append(r.Results, one.Results[0])
			r.QueryStats = append(r.QueryStats, one.QueryStats[0])
			r.Stats.Add(one.QueryStats[0])
			for s := range r.PerShard {
				r.PerShard[s] = append(r.PerShard[s], one.PerShard[s][0])
			}
		}
		got = got[len(cmd.Queries):]
		resps = append(resps, r)
	}
	return resps, coalesced, 0
}

// serveCounted serves one batched command and holds the devices' SLC-ESP
// senses to what its rows charge: every query's pages, less the senses
// the shared rounds run page-major saved (pageMajorSaved), plus the pages
// pin fills read. A pruned flat command splits its shared round into
// rounds its rows do not show: it senses fewer pages than its rows
// charge when two or more of its queries scan, since those rounds still
// run page-major.
func serveCounted(t *testing.T, h *ShardedEngine, cmd HostCommand) (HostResponse, int64) {
	t.Helper()
	senses := func() (n int64) {
		for _, d := range h.devs {
			n += d.SSD.Dev.Stats.PageReadsByMode[flash.ModeSLCESP].Load()
		}
		return n
	}
	fills := func() int64 {
		cs, err := h.CacheStats(cmd.DBID)
		if err != nil {
			t.Fatal(err)
		}
		return cs.PinFills
	}
	sensed, filled := -senses(), -fills()
	r := mustSubmit(t, h, cmd)
	sensed, filled = sensed+senses(), filled+fills()
	entry, err := h.hostDB(cmd.DBID)
	if err != nil {
		t.Fatal(err)
	}
	var charged, saved int64
	scanned := 0
	for _, st := range r.QueryStats {
		charged += int64(st.CoarsePages + st.FinePages)
		if st.ResultCacheHits == 0 {
			scanned++
		}
	}
	for s, d := range h.devs {
		saved += pageMajorSaved(d, entry.locals[s], r.PerShard[s])
	}
	if cmd.Opt.Prune && cmd.Opcode == OpcodeSearch {
		if sensed > charged || scanned > 1 && sensed == charged {
			t.Fatalf("pruned flat command of %d scanning queries sensed %d pages, its rows charge %d", scanned, sensed, charged)
		}
	} else if sensed != charged-saved+filled {
		t.Fatalf("devices sensed %d pages; the rows charge %d, page-major rounds saved %d and pin fills read %d",
			sensed, charged, saved, filled)
	}
	return r, saved
}

// newLatticeHost builds the host of p's host axes and holds what it
// does before the script to ref, its plain reference: its history's
// responses and journal, the pages it leaves (when pages is set: the
// entry path writes nothing, so a third of the cached points read them)
// and its calibration. The host is closed when t ends.
func newLatticeHost(t *testing.T, p latticePoint, ref *latticeRef, pages bool) *ShardedEngine {
	t.Helper()
	h, err := NewSharded(p.config(), p.devices(), 64<<20, p.options())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	steps := latticeHistory(t, h, p[axDB] != dbFresh)
	holdLatticeHistory(t, "host", p, ref.muts, steps)
	erased := 0
	for _, s := range steps {
		if s.resp.Wear != nil {
			erased += s.resp.Wear.BlockErases
		}
	}
	if p[axDB] != dbFresh && erased == 0 {
		t.Fatal("the mutation history erased no block")
	}
	if !bytes.Equal(h.JournalBytes(), ref.journal) {
		t.Fatal("journal bytes differ from the reference's")
	}
	if pages {
		for ri, dbs := range latticePages(t, &h.hostCore) {
			for di, got := range dbs {
				if !reflect.DeepEqual(got, ref.pages[ri][di]) {
					t.Fatalf("database %d: the pages of region %d differ from the reference's", di+1, ri)
				}
			}
		}
	}
	if np := latticeCalibrate(t, &h.hostCore); np != ref.nprobe {
		t.Fatalf("calibrated nprobe %d, reference %d", np, ref.nprobe)
	}
	return h
}

// serveLatticePoint serves the script through p's entry, with p's prune
// setting, and holds each response to p's reference. batched holds an
// uncached host's batched responses by prune value, for its one-query
// entries to be held to.
func serveLatticePoint(t *testing.T, h *ShardedEngine, p latticePoint, refs map[latticePoint]*latticeRef, batched map[int][]HostResponse) {
	cmds := latticeScript(p[axPrune] == 1)
	served := cmds
	if p[axEntry] == entryQueue {
		// The queue also carries the script under the other prune value,
		// each command beside its twin and every other command in the
		// other order: neighbours still differ in one operand, prune now
		// among them, which the dispatcher must tell apart too.
		served = nil
		for i, twin := range latticeScript(p[axPrune] == 0) {
			served = append(served, cmds[i], twin)
			if i%2 == 1 {
				served[2*i], served[2*i+1] = twin, cmds[i]
			}
		}
	}
	resps, coalesced, saved := latticeServe(t, h, served, p[axEntry])
	if p[axEntry] == entryQueue {
		own := make([]HostResponse, len(cmds))
		for i := range cmds {
			o := 2*i + i%2
			own[i] = resps[o]
			holdLatticePoint(t, p.twin(), refs, i, resps[o^1])
		}
		resps = own
	}
	var pinned, hits, pruned int
	for i, got := range resps {
		holdLatticePoint(t, p, refs, i, got)
		for _, st := range got.QueryStats {
			pinned += st.CachedPages
			hits += st.ResultCacheHits
			pruned += st.PrunedPages + st.PrunedSlots
		}
	}
	if p[axCache] == 1 && (pinned == 0 || hits == 0 && p[axEntry] != entryQueue) {
		t.Errorf("cached point served %d pinned pages and %d result-cache hits", pinned, hits)
	}
	if p[axPrune] == 1 && pruned == 0 {
		t.Error("pruned point pruned nothing")
	}
	if p[axEntry] == entryQueue && coalesced == 0 {
		t.Error("queue point coalesced no command")
	}
	if p[axEntry] == entryBatch && saved == 0 {
		t.Error("batched point ran no shared round page-major")
	}
	// Uncached, the host serves the script batched too: each query's
	// per-device rows are its own, whatever command or dispatch group
	// carried it.
	if p[axCache] == 1 {
		return
	}
	if p[axEntry] == entryBatch {
		batched[p[axPrune]] = resps
		return
	}
	if batched[p[axPrune]] == nil {
		batched[p[axPrune]], _, _ = latticeServe(t, h, cmds, entryBatch)
	}
	for i, b := range batched[p[axPrune]] {
		if d := respDiff(b, resps[i]); d != "" || !reflect.DeepEqual(resps[i].PerShard, b.PerShard) {
			t.Fatalf("command %d: one-query commands differ from the batched command (%s)", i, d)
		}
	}
}

// holdLatticePoint holds p's response to the script's i-th command to
// p's reference: all of it, but for the fields the cache moves where p
// serves one-query commands from a cache and its reference is uncached.
func holdLatticePoint(t *testing.T, p latticePoint, refs map[latticePoint]*latticeRef, i int, got HostResponse) {
	t.Helper()
	var moved []string
	if p[axCache] != p.refKey()[axCache] {
		moved = latticeMoves[axCache]
	}
	checkLatticeResp(t, p.String(), p, i, refs[p.refKey()].resps[i], got, moved)
	checkPerShard(t, i, p.devices(), got)
}

// checkLatticeResp holds got, the response of point (or reference) p to
// the script's i-th command, to want, the response of an uncached or
// identically cached host: results bit for bit, and stats but for the
// moved fields. A result-cache hit want did not take is checked on its
// own: p is cached and the row is {ResultCacheHits: 1}. Where the cache
// fields are moved and p is unpruned, every other row's flash and pinned
// fine pages partition want's fine pages.
func checkLatticeResp(t *testing.T, what string, p latticePoint, i int, want, got HostResponse, moved []string) {
	t.Helper()
	partition := slices.Contains(moved, "CachedPages") && p[axPrune] == 0
	want.QueryStats = slices.Clone(want.QueryStats)
	want.Stats = QueryStats{}
	for qi, st := range got.QueryStats {
		w := &want.QueryStats[qi]
		switch {
		case st.ResultCacheHits > 0 && w.ResultCacheHits == 0:
			if p[axCache] == 0 || st != (QueryStats{ResultCacheHits: 1}) {
				t.Fatalf("%s command %d query %d: result-cache hit row %+v", what, i, qi, st)
			}
			*w = st
		case partition && st.FinePages+st.CachedPages != w.FinePages:
			t.Fatalf("%s command %d query %d: %d flash + %d pinned fine pages, the uncached host senses %d",
				what, i, qi, st.FinePages, st.CachedPages, w.FinePages)
		}
		want.Stats.Add(*w)
	}
	if d := respDiff(want, got, moved...); d != "" {
		t.Fatalf("%s command %d: %s", what, i, d)
	}
}

// checkPerShard holds each device's rows of a response to its aggregate:
// counts sum across devices, the busiest channel is the busiest device's,
// and one device's row is the whole scan phase.
func checkPerShard(t *testing.T, cmd, n int, r HostResponse) {
	t.Helper()
	if len(r.PerShard) != n {
		t.Fatalf("command %d: %d per-device row sets on %d devices", cmd, len(r.PerShard), n)
	}
	for qi, st := range r.QueryStats {
		var sum QueryStats
		loads := 0
		for s := range n {
			sum.Add(r.PerShard[s][qi])
			loads = max(loads, r.PerShard[s][qi].IBCLoads)
		}
		scan := QueryStats{
			CoarseWaves: st.CoarseWaves, FineWaves: st.FineWaves, CoarsePages: st.CoarsePages, FinePages: st.FinePages,
			EntriesScanned: st.EntriesScanned, Survivors: st.Survivors, TTLBytes: st.TTLBytes,
			IBCBroadcasts: st.IBCBroadcasts, IBCLoads: st.IBCLoads, IBCTotalLoads: st.IBCTotalLoads,
			CoarseEntries: st.CoarseEntries, CoarseSurvivors: st.CoarseSurvivors,
			PrunedPages: st.PrunedPages, AbortedWaves: st.AbortedWaves, PrunedSlots: st.PrunedSlots,
		}
		if sum.EntriesScanned != st.EntriesScanned || sum.Survivors != st.Survivors ||
			sum.CoarsePages+sum.FinePages != st.CoarsePages+st.FinePages ||
			sum.IBCBroadcasts != st.IBCBroadcasts || sum.IBCTotalLoads != st.IBCTotalLoads || loads != st.IBCLoads {
			t.Fatalf("command %d query %d: device rows sum to %+v, aggregate %+v", cmd, qi, sum, st)
		}
		if n == 1 && r.PerShard[0][qi] != scan {
			t.Fatalf("command %d query %d: the one device's row %+v is not the scan phase %+v", cmd, qi, r.PerShard[0][qi], scan)
		}
	}
}

// respDiff describes the first difference between two responses to the
// same command — done flag, results (ids, distances, document bytes),
// per-query and aggregate stats with the moved fields zeroed on both
// sides, appended ids and wear — or returns "" if there is none.
// PerShard is left out: its shape is the topology's.
func respDiff(want, got HostResponse, moved ...string) string {
	if got.Done != want.Done || len(got.Results) != len(want.Results) || len(got.QueryStats) != len(want.QueryStats) {
		return fmt.Sprintf("done %v with %d results and %d stats rows, want done %v with %d and %d",
			got.Done, len(got.Results), len(got.QueryStats), want.Done, len(want.Results), len(want.QueryStats))
	}
	for qi := range want.Results {
		if !reflect.DeepEqual(got.Results[qi], want.Results[qi]) {
			return fmt.Sprintf("query %d results differ:\n got %s\nwant %s", qi, briefResults(got.Results[qi]), briefResults(want.Results[qi]))
		}
	}
	for qi := range want.QueryStats {
		if g, w := maskStats(got.QueryStats[qi], moved), maskStats(want.QueryStats[qi], moved); g != w {
			return fmt.Sprintf("query %d stats differ:\n got %+v\nwant %+v", qi, g, w)
		}
	}
	if g, w := maskStats(got.Stats, moved), maskStats(want.Stats, moved); g != w {
		return fmt.Sprintf("aggregate stats differ:\n got %+v\nwant %+v", g, w)
	}
	if !reflect.DeepEqual(got.AppendedIDs, want.AppendedIDs) {
		return fmt.Sprintf("appended ids %v, want %v", got.AppendedIDs, want.AppendedIDs)
	}
	if !reflect.DeepEqual(got.Wear, want.Wear) {
		return fmt.Sprintf("wear %+v, want %+v", got.Wear, want.Wear)
	}
	return ""
}

// maskStats zeroes the named fields of st.
func maskStats(st QueryStats, fields []string) QueryStats {
	v := reflect.ValueOf(&st).Elem()
	for _, f := range fields {
		v.FieldByName(f).SetZero()
	}
	return st
}

func briefResults(res []DocResult) string {
	var b strings.Builder
	for _, r := range res {
		fmt.Fprintf(&b, "(%d %g %dB) ", r.ID, r.Dist, len(r.Doc))
	}
	return b.String()
}
