package reis

import (
	"reflect"
	"testing"
	"time"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// fullGeoCfg keeps the preset's full channel/die/plane structure (the
// quantity the timing shapes depend on) but shrinks per-plane capacity
// so tests stay fast.
func fullGeoCfg(preset ssd.Config) ssd.Config {
	preset.Geo.BlocksPerPlane = 4
	preset.Geo.PagesPerBlock = 16
	return preset
}

// statsFor runs one IVF query on an engine with the given options and
// config and returns the engine, database and stats.
func statsFor(t *testing.T, cfg ssd.Config, opts Options) (*Engine, *Database, QueryStats) {
	t.Helper()
	e, err := New(cfg, 256<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := deployIVF(t, e, 1, 16)
	_, st := searchOne(t, e, OpcodeIVFSearch, 1, testData.Queries[0], 10, SearchOptions{NProbe: 4})
	return e, db, st
}

// paperScale approximates the ratio between the paper's datasets and
// our functional test workload, so the latency model operates in the
// regime where the paper's effects (transfer-boundedness without DF,
// pipeline overlap) appear.
var paperScale = Scale{Fine: 4096, Coarse: 4096, SurvivorRate: 0.01}

func TestLatencyPositiveAndDecomposed(t *testing.T) {
	e, db, st := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	b := e.Latency(db, st, UnitScale())
	if b.Total <= 0 {
		t.Fatalf("total latency %v", b.Total)
	}
	sum := b.IBC + b.Coarse + b.Fine + b.Rerank + b.Docs
	if sum != b.Total {
		t.Fatalf("breakdown does not sum: %v != %v", sum, b.Total)
	}
	if b.EnergyJ <= 0 || b.AvgWatts <= 0 {
		t.Fatalf("energy %v watts %v", b.EnergyJ, b.AvgWatts)
	}
}

func TestDistanceFilterReducesLatency(t *testing.T) {
	// Without DF, every scanned embedding becomes a TTL entry and the
	// channels saturate; with DF the scan is read-bound. The paper
	// reports 4.7-5.7x (Fig 9).
	on, dbOn, stOn := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	offOpts := AllOptions()
	offOpts.DistanceFilter = false
	off, dbOff, stOff := statsFor(t, fullGeoCfg(ssd.SSD1()), offOpts)
	lOn := on.Latency(dbOn, stOn, paperScale).Total
	lOff := off.Latency(dbOff, stOff, paperScale).Total
	if float64(lOff) < 2*float64(lOn) {
		t.Fatalf("DF speedup only %.2fx (on %v, off %v), want >= 2x",
			float64(lOff)/float64(lOn), lOn, lOff)
	}
	t.Logf("DF speedup at paper scale: %.2fx (paper: 4.7-5.7x)", float64(lOff)/float64(lOn))
}

func TestPipeliningReducesLatency(t *testing.T) {
	plOpts := AllOptions()
	noPlOpts := AllOptions()
	noPlOpts.Pipelining = false
	pl, dbPl, stPl := statsFor(t, fullGeoCfg(ssd.SSD2()), plOpts)
	nopl, dbNo, stNo := statsFor(t, fullGeoCfg(ssd.SSD2()), noPlOpts)
	lPl := pl.Latency(dbPl, stPl, paperScale).Total
	lNo := nopl.Latency(dbNo, stNo, paperScale).Total
	if lPl >= lNo {
		t.Fatalf("PL did not reduce latency: %v >= %v", lPl, lNo)
	}
	t.Logf("PL speedup: %.2fx", float64(lNo)/float64(lPl))
}

func TestMPIBCReducesLatency(t *testing.T) {
	cfg := fullGeoCfg(ssd.SSD2()) // 4 planes/die: largest MPIBC effect
	mp, dbMp, stMp := statsFor(t, cfg, AllOptions())
	noOpts := AllOptions()
	noOpts.MPIBC = false
	no, dbNo, stNo := statsFor(t, cfg, noOpts)
	// As executed, the handful of pages a probe of the test corpus senses
	// sit on one plane of each die they touch, so a die load saves
	// nothing over a plane load — but it never costs more.
	if lMp, lNo := mp.Latency(dbMp, stMp, UnitScale()).IBC, no.Latency(dbNo, stNo, UnitScale()).IBC; lMp > lNo || lMp <= 0 {
		t.Fatalf("unit scale: IBC %v with MPIBC, %v without", lMp, lNo)
	}
	// At paper scale the probe fills whole dies, and one load serves a
	// die's planes.
	lMp := mp.Latency(dbMp, stMp, paperScale).IBC
	lNo := no.Latency(dbNo, stNo, paperScale).IBC
	if lMp >= lNo {
		t.Fatalf("MPIBC did not reduce IBC time: %v >= %v", lMp, lNo)
	}
	planes := cfg.Geo.PlanesPerDie
	if got := float64(lNo) / float64(lMp); got < float64(planes)*0.9 {
		t.Fatalf("MPIBC gain %.2fx, want ~%dx (planes/die)", got, planes)
	}
}

func TestAllOptimizationsBeatNoOpt(t *testing.T) {
	full, dbF, stF := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	noopt, dbN, stN := statsFor(t, fullGeoCfg(ssd.SSD1()), Options{})
	lF := full.Latency(dbF, stF, paperScale).Total
	lN := noopt.Latency(dbN, stN, paperScale).Total
	if float64(lN) < 2*float64(lF) {
		t.Fatalf("full REIS only %.2fx over No-OPT", float64(lN)/float64(lF))
	}
	t.Logf("No-OPT/full speedup at paper scale: %.2fx", float64(lN)/float64(lF))
}

func TestSSD2FasterThanSSD1(t *testing.T) {
	e1, db1, st1 := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	e2, db2, st2 := statsFor(t, fullGeoCfg(ssd.SSD2()), AllOptions())
	l1 := e1.Latency(db1, st1, paperScale).Total
	l2 := e2.Latency(db2, st2, paperScale).Total
	if l2 >= l1 {
		t.Fatalf("SSD2 %v not faster than SSD1 %v", l2, l1)
	}
	t.Logf("SSD2 over SSD1: %.2fx (paper: 2.6x avg)", float64(l1)/float64(l2))
}

func TestASICSlower(t *testing.T) {
	e, db, st := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	reisL := e.Latency(db, st, paperScale).Total
	asicL := e.ASICLatency(db, st, paperScale).Total
	if float64(asicL) < 2*float64(reisL) {
		t.Fatalf("REIS-ASIC only %.2fx slower", float64(asicL)/float64(reisL))
	}
	t.Logf("ASIC slowdown: %.2fx (paper: 4.1-6.5x)", float64(asicL)/float64(reisL))
}

func TestScaleMonotonic(t *testing.T) {
	e, db, st := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	// Scales chosen so the scan grows past one wave per plane each
	// step (sub-plane workloads legitimately cost the same).
	var prev int64
	for _, scale := range []float64{1, 256, 2048, 16384} {
		l := int64(e.Latency(db, st, Scale{Fine: scale, Coarse: scale}).Total)
		if l <= prev {
			t.Fatalf("latency not increasing with scale %v: %d <= %d", scale, l, prev)
		}
		prev = l
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	e, db, st := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	e1 := e.Latency(db, st, UnitScale()).EnergyJ
	e64 := e.Latency(db, st, Scale{Fine: 64, Coarse: 64}).EnergyJ
	if e64 <= e1 {
		t.Fatalf("energy did not grow with scale: %v <= %v", e64, e1)
	}
}

func TestCoarseScaleIndependent(t *testing.T) {
	// Scaling only the fine phase must not change the coarse phase.
	e, db, st := statsFor(t, fullGeoCfg(ssd.SSD1()), AllOptions())
	a := e.Latency(db, st, Scale{Fine: 1, Coarse: 1})
	b := e.Latency(db, st, Scale{Fine: 100, Coarse: 1})
	if a.Coarse != b.Coarse {
		t.Fatalf("coarse changed with fine scale: %v vs %v", a.Coarse, b.Coarse)
	}
	if b.Fine <= a.Fine {
		t.Fatalf("fine did not grow: %v <= %v", b.Fine, a.Fine)
	}
}

func TestCeilF(t *testing.T) {
	cases := map[float64]int{0.1: 1, 1: 1, 1.5: 2, 2: 2, 0: 0}
	for in, want := range cases {
		if got := ceilF(in); got != want {
			t.Errorf("ceilF(%v) = %d, want %d", in, got, want)
		}
	}
}

// TestBatchPaysBusiestPlane pins what the two readings of one bill take
// from it: a query's standalone latency counts whole waves, since one
// query cannot run a fraction of a wave, while a batch's plane column is
// its busiest plane. Pages every query senses (a flat scan's) are sensed
// once for the batch, page-major, and every query's distance wave runs
// against the sensing latch. A query's own pages (an IVF fine scan's,
// the tail's) fall on planes the others may leave idle:
// the busiest plane carries more than the mean plane's share and less
// than every query's waves stacked, and the closer to the mean the more
// pages the batch spreads. A lone query's batch is still priced at its
// standalone latency.
func TestBatchPaysBusiestPlane(t *testing.T) {
	cfg := testCfg()
	if cfg.Geo.Planes() != 8 {
		t.Fatalf("shard test device has %d planes, the test assumes 8", cfg.Geo.Planes())
	}
	e, err := New(cfg, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	deployBoth(t, e.Submit)
	flat, err := e.DB(1)
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := e.DB(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := regionPlanes(cfg.Geo, ivf.docPages); n != 8 {
		t.Fatalf("the document region covers %v of 8 planes", n)
	}
	batch := func(db *Database, st QueryStats, n int) time.Duration {
		sts := make([]QueryStats, n)
		for i := range sts {
			sts[i] = st
		}
		return e.BatchLatency(db, sts, UnitScale()).PlaneBusy
	}

	tTLC := cfg.Flash.ReadLatency(flash.ModeTLC)
	doc := QueryStats{DocPages: 1, DocBytes: 256}
	if got := e.Latency(ivf, doc, UnitScale()).Docs; got < tTLC {
		t.Fatalf("a one-page document read costs %v standalone, below one TLC wave %v", got, tTLC)
	}
	// Eight one-page reads: one wave on every plane on average, eight if
	// they all fell on one.
	if got := batch(ivf, doc, 8); got <= tTLC || got >= 8*tTLC {
		t.Fatalf("8 one-page reads on 8 planes hold the busiest %v, want between the mean's %v and the stacked %v", got, tTLC, 8*tTLC)
	}
	if got, mean := batch(ivf, doc, 2048), 256*tTLC; got <= mean || float64(got) > 1.25*float64(mean) {
		t.Fatalf("2048 one-page reads on 8 planes hold the busiest %v, want within 1.25x of the mean's %v", got, mean)
	}

	// A scan of four pages: one wave a query, half a wave of the mean
	// plane's. Sixteen flat queries share the same four pages: each is
	// sensed once and computed sixteen times (one wave, so the broadcast
	// is what query-major loads); sixteen IVF queries' own four spread.
	wave, tR := planeWaveTime(cfg.Flash), cfg.Flash.ReadLatency(flash.ModeSLCESP)
	scan := QueryStats{FinePages: 4}
	if got, once := batch(flat, scan, 16), tR+16*(wave-tR); got != once {
		t.Fatalf("16 flat scans of 4 pages hold the busiest plane %v, want one sense and 16 distance waves %v", got, once)
	}
	if got := batch(ivf, scan, 16); got <= 8*wave || got >= 16*wave {
		t.Fatalf("16 IVF scans of 4 own pages hold the busiest plane %v, want between the mean's %v and the stacked %v", got, 8*wave, 16*wave)
	}

	// Every priced command: the batch's serial sum is its queries'
	// standalone latencies, and each query alone is its own makespan.
	for _, tc := range timingCases() {
		if tc.cached {
			continue
		}
		resp := timingResponse(t, e.Submit, tc)
		db, err := e.DB(tc.cmd.DBID)
		if err != nil {
			t.Fatal(err)
		}
		var serial time.Duration
		for qi, st := range resp.QueryStats {
			b := e.Latency(db, st, tc.sc)
			serial += b.Total
			if one := e.BatchLatency(db, resp.QueryStats[qi:qi+1], tc.sc); one.Makespan != b.Total {
				t.Fatalf("%s query %d: alone its makespan is %v, its latency %v", tc.name, qi, one.Makespan, b.Total)
			}
		}
		bb := e.BatchLatency(db, resp.QueryStats, tc.sc)
		if bb.Serial != serial {
			t.Fatalf("%s: serial %v, the queries' latencies sum to %v", tc.name, bb.Serial, serial)
		}
	}
}

// TestQueryStatsAddCarriesEveryField sets one field at a time, so a
// field Add forgets to carry (or carries into another) fails here.
func TestQueryStatsAddCarriesEveryField(t *testing.T) {
	typ := reflect.TypeOf(QueryStats{})
	for i := range typ.NumField() {
		var s, o QueryStats
		reflect.ValueOf(&s).Elem().Field(i).SetInt(5)
		reflect.ValueOf(&o).Elem().Field(i).SetInt(7)
		s.Add(o)
		got := reflect.ValueOf(s)
		for j := range typ.NumField() {
			want := int64(0)
			if j == i {
				want = 12
			}
			if v := got.Field(j).Int(); v != want {
				t.Errorf("Add with %s set: %s = %d, want %d", typ.Field(i).Name, typ.Field(j).Name, v, want)
			}
		}
	}
}
