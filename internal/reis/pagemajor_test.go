package reis

import (
	"fmt"
	"reflect"
	"testing"

	"reis/internal/flash"
	"reis/internal/ssd"
)

// pageMajorSaved is the senses one device saved serving sts as one
// command by running its shared rounds page-major: (q − 1) × the round's
// pages for every round pageMajor picks — the coarse round over the q
// queries that scanned flash, its re-issue over the queries the cut left
// short, and an unpruned flat round (a pruned one splits into rounds the
// rows do not show).
func pageMajorSaved(d *device, db *Database, sts []QueryStats) int64 {
	var q, pages [2]int
	for _, st := range sts {
		switch {
		case st.CoarsePages > 0:
			rounds := max(1, ceilDiv(st.CoarseEntries, db.centroidSlots()))
			for r := range rounds {
				q[r]++
				pages[r] = st.CoarsePages / rounds
			}
		case db.flat() && st.FinePages > 0:
			q[0]++
			pages[0] = st.FinePages
		}
	}
	var saved int64
	for r := range q {
		var sr sharedRound
		for range q[r] {
			d.joinRound(&sr, float64(pages[r]))
		}
		if ok, _, _, _ := d.pageMajor(sr); ok {
			saved += int64((q[r] - 1) * pages[r])
		}
	}
	return saved
}

// TestSharedRoundNeverSlower: a device runs a shared round page-major
// only where that lowers the round's own bound, and no batch may be
// billed more for it. A lone query's bill is the query-major one bit for
// bit. For flat, IVF and pruned IVF batches of 2 to 24 queries on SSD1,
// SSD2, SSD1 with four planes and the 8-plane test geometry, at unit and
// at paper scale, the makespan is at most the query-major one — and
// page-major is picked somewhere, or the comparison proves nothing.
func TestSharedRoundNeverSlower(t *testing.T) {
	few := ssd.SSD1()
	few.Name = "SSD1/4p"
	few.Geo.Channels, few.Geo.DiesPerChannel = 1, 2
	eight := testCfg()
	eight.Name = "8-plane"
	picked := 0
	for _, cfg := range []ssd.Config{ssd.SSD1(), ssd.SSD2(), few, eight} {
		e, err := New(cfg, 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		deployBoth(t, e.Submit)
		for _, cmd := range []HostCommand{
			{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries, K: 10},
			{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}},
			{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 8, Prune: true}},
		} {
			resp := mustSubmit(t, e, cmd)
			db, err := e.DB(cmd.DBID)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range []Scale{UnitScale(), paperScale} {
				for _, n := range []int{1, 2, 8, len(resp.QueryStats)} {
					sts := resp.QueryStats[:n]
					name := fmt.Sprintf("%s op %#x scale %v q=%d", cfg.Name, cmd.Opcode, sc.Fine, n)
					got, err := e.batchLatency(db, sts, [][]QueryStats{sts}, sc, true)
					if err != nil {
						t.Fatal(err)
					}
					qm, err := e.batchLatency(db, sts, [][]QueryStats{sts}, sc, false)
					if err != nil {
						t.Fatal(err)
					}
					if n == 1 && got != qm {
						t.Errorf("%s: a lone query's bill moved\n got %+v\nwant %+v", name, got, qm)
					}
					if got.Makespan > qm.Makespan {
						t.Errorf("%s: page-major makespan %v, query-major %v (plane %v -> %v, channel %v -> %v)",
							name, got.Makespan, qm.Makespan, qm.PlaneBusy, got.PlaneBusy, qm.ChannelBusy, got.ChannelBusy)
					}
					if got != qm {
						picked++
						t.Logf("%s: makespan %v -> %v (plane %v -> %v, channel %v -> %v)",
							name, qm.Makespan, got.Makespan, qm.PlaneBusy, got.PlaneBusy, qm.ChannelBusy, got.ChannelBusy)
					}
				}
			}
		}
	}
	if picked == 0 {
		t.Fatal("no batch ran a shared round page-major")
	}
}

// TestPageMajorMatchesSingles: a group whose shared rounds run
// page-major returns the results and per-query QueryStats of the same
// queries served one command each — per device too — on 1, 2 and 4
// devices, pruned and unpruned, flat and IVF; the device really sensed
// the shared pages once (page-major saved senses on every command); and
// it sensed exactly the pages the rows charge less what page-major saved.
func TestPageMajorMatchesSingles(t *testing.T) {
	queries := testData.Queries
	for _, n := range shardCounts {
		var h submitter
		var core *hostCore
		if n == 1 {
			e := newEngine(t, AllOptions())
			h, core = e, &e.hostCore
		} else {
			sh := newSharded(t, n)
			h, core = sh, &sh.hostCore
		}
		devs := core.devs
		deployBoth(t, h.Submit)
		for _, cmd := range []HostCommand{
			{Opcode: OpcodeSearch, DBID: 1, K: 10},
			{Opcode: OpcodeSearch, DBID: 1, K: 10, Opt: SearchOptions{Prune: true}},
			{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 4}},
			{Opcode: OpcodeIVFSearch, DBID: 2, K: 10, Opt: SearchOptions{NProbe: 8, Prune: true}},
		} {
			name := fmt.Sprintf("n=%d op %#x prune=%v", n, cmd.Opcode, cmd.Opt.Prune)
			var singles []HostResponse
			for _, q := range queries {
				one := cmd
				one.Queries = [][]float32{q}
				singles = append(singles, mustSubmit(t, h, one))
			}
			var sensed, saved int64
			before := make([]int64, len(devs))
			for s, d := range devs {
				before[s] = d.SSD.Dev.Stats.PageReadsByMode[flash.ModeSLCESP].Load()
			}
			batch := cmd
			batch.Queries = queries
			resp := mustSubmit(t, h, batch)
			entry, err := core.hostDB(cmd.DBID)
			if err != nil {
				t.Fatal(err)
			}
			for s, d := range devs {
				sensed += d.SSD.Dev.Stats.PageReadsByMode[flash.ModeSLCESP].Load() - before[s]
				rows := resp.QueryStats
				if resp.PerShard != nil {
					rows = resp.PerShard[s]
				}
				saved += pageMajorSaved(d, entry.locals[s], rows)
			}
			var charged int64
			for qi, one := range singles {
				if !reflect.DeepEqual(resp.Results[qi], one.Results[0]) {
					t.Fatalf("%s query %d: results differ from the query served alone", name, qi)
				}
				if resp.QueryStats[qi] != one.QueryStats[0] {
					t.Fatalf("%s query %d: stats differ from the query served alone:\nbatch %+v\nalone %+v",
						name, qi, resp.QueryStats[qi], one.QueryStats[0])
				}
				if !reflect.DeepEqual(resp.ShardStats(qi), one.ShardStats(0)) {
					t.Fatalf("%s query %d: per-device rows differ from the query served alone", name, qi)
				}
				charged += int64(resp.QueryStats[qi].CoarsePages + resp.QueryStats[qi].FinePages)
			}
			if !cmd.Opt.Prune || cmd.Opcode == OpcodeIVFSearch {
				if saved == 0 {
					t.Errorf("%s: no shared round ran page-major", name)
				}
				if sensed != charged-saved {
					t.Errorf("%s: devices sensed %d pages, the rows charge %d and page-major saved %d", name, sensed, charged, saved)
				}
			} else if sensed >= charged {
				t.Errorf("%s: devices sensed %d pages, the rows charge %d: the pruned flat rounds never ran page-major", name, sensed, charged)
			}
		}
	}
}
