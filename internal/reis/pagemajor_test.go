package reis

import (
	"fmt"
	"testing"

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
