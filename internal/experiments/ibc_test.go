package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"reis/internal/ann"
	"reis/internal/dataset"
	"reis/internal/flash"
	"reis/internal/reis"
	"reis/internal/ssd"
	"reis/internal/vecmath"
	"reis/internal/xrand"
)

// devices returns the setup's member devices in shard order.
func (s *setup) devices() []*reis.Engine {
	if s.sharded == nil {
		return []*reis.Engine{s.Engine}
	}
	devs := make([]*reis.Engine, s.Devices)
	for i := range devs {
		devs[i] = s.sharded.Shard(i)
	}
	return devs
}

// latchTime is what the model charges one latch load on the setup's
// devices: a cache latch of query copies through a die's I/O port.
func (s *setup) latchTime() time.Duration {
	cfg := s.devices()[0].SSD.Cfg
	return time.Duration(float64(cfg.Geo.PageBytes) / cfg.Flash.DieInputBandwidth * float64(time.Second))
}

// portCounts is one device's broadcast-side, outbound and sense flash
// counters.
type portCounts struct {
	loads     int64
	in        []int64 // per channel
	out, read []int64 // per channel: all outbound bytes, the conventional reads' part
	slc, tlc  int64   // page senses: SLC-ESP (the scan), TLC (the tail)
}

func portsOf(devs []*reis.Engine) []portCounts {
	out := make([]portCounts, len(devs))
	for i, e := range devs {
		st := &e.SSD.Dev.Stats
		out[i].loads = st.IBCLoads.Load()
		out[i].slc = st.PageReadsByMode[flash.ModeSLCESP].Load()
		out[i].tlc = st.PageReadsByMode[flash.ModeTLC].Load()
		for ch := range st.BytesIn {
			out[i].in = append(out[i].in, st.BytesIn[ch].Load())
			out[i].out = append(out[i].out, st.BytesOut[ch].Load())
			out[i].read = append(out[i].read, st.ReadBytesOut[ch].Load())
		}
	}
	return out
}

// TestIBCReconciliation is the broadcast, channel and senses rows of the
// model-versus-device reconciliation (DESIGN.md, "Input broadcast"): on
// the rig, for both evaluated devices on 1, 2 and 4 of them, what the
// timing model charges at unit scale from the QueryStats it is handed
// must be what the devices' own flash counters saw.
//
//   - A query served as its own command: on every device, the loads its
//     row reports (IBCLoads) times a latch are exactly the bytes that
//     entered the device's busiest channel, every load the device counted
//     moved one latch, the model's broadcast time is the critical device's
//     loads, and the loads its energy side charges (IBCTotalLoads) are
//     exactly the latches that entered the device. Charging every channel
//     the busiest one's loads instead, as the model did before, is logged
//     beside it.
//   - The pages the model charges a sense for — a device's row's
//     CoarsePages + FinePages at SLC-ESP, the aggregate's RerankPages +
//     DocPages at TLC — are the pages the devices sensed in that mode,
//     for the single commands and the batched one alike (no topology here
//     has a caching tier, whose pin fills are senses no query is charged).
//   - The bytes the model moves out — TTLBytes for the scan, which is
//     the TTL entries it charges (the TTL-C entries the coarse cut let
//     cross, CoarseSurvivors, plus the fine survivors) at an entry's
//     size, RerankCount × dim + DocBytes for the tail — are what left the dies,
//     TTL entries and conventional reads (ReadBytesOut) apart. The model
//     spreads the tail's over every channel; a query's rerank copies sit
//     on a few pages of its clusters, so they cross a few. That gap is
//     named in DESIGN.md and logged here per query.
//   - The same queries as one batched command report the same rows, and
//     the devices count more loads: the re-sends forced when a later
//     query of the group overwrote a latch between the coarse and the
//     fine round. That difference is the one named in DESIGN.md; it is
//     logged here. The batch senses fewer pages than its rows charge:
//     its coarse round and the re-issue fit one wave, where page-major
//     loads what query-major does on a plane that does strictly less, so
//     each runs page-major and a round of q queries senses its pages once
//     — rows − (q − 1) × the round's pages.
//   - The page-major row: on a flat database too deep for one wave, a
//     group's round runs page-major and cycles its queries through the
//     latches wave after wave. The device's loads are then the rows'
//     IBCLoads, plus the re-sends the model charges for the cycling, plus
//     the query-major re-sends (pageMajorRow).
//   - The striping spreads a uniform IVF run's scan stream — the TTL
//     entries, what the channel-first plane order controls — over the
//     channels: max/mean at most 1.5 (3.4 on one SSD1 before that
//     order). The tail's spread is logged as its own figure.
func TestIBCReconciliation(t *testing.T) {
	d, dep := benchCorpus()
	// The reconciliation serves 64 of the queries; the outbound balance
	// below takes all 512.
	queries, int8Bytes := d.Queries[:64], int64(d.Dim)
	// A TTL entry: DIST, the binary code, EADR, DADR, RADR and TAG.
	ttlEntry := int64(2 + vecmath.WordsPerVector(d.Dim)*8 + 4 + 4 + 4 + 1)
	cmd := reis.HostCommand{Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: queries, K: 10, Opt: reis.SearchOptions{NProbe: 8}}
	// Without MPIBC (last row) a load fills one plane, and the same
	// equalities hold plane by plane.
	perPlane := reis.AllOptions()
	perPlane.MPIBC = false
	for _, tc := range []struct {
		cfg  ssd.Config
		n    int
		opts reis.Options
	}{
		{ssd.SSD1(), 1, reis.AllOptions()}, {ssd.SSD1(), 2, reis.AllOptions()}, {ssd.SSD1(), 4, reis.AllOptions()},
		{ssd.SSD2(), 1, reis.AllOptions()}, {ssd.SSD2(), 2, reis.AllOptions()}, {ssd.SSD2(), 4, reis.AllOptions()},
		{ssd.SSD2(), 1, perPlane},
	} {
		s, err := deploy(tc.cfg, tc.n, tc.opts, dep)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		devs := s.devices()
		geo := devs[0].SSD.Cfg.Geo
		latch := int64(geo.PageBytes)
		perLoad := s.latchTime()
		name := s.Cfg.Name
		if !tc.opts.MPIBC {
			name += "/no-MPIBC"
		}

		var singles []reis.QueryStats
		var singleLoads, busiestEverywhere, moved int64
		// The tail's transfer: what the model charges over every channel of
		// the host, and what the busiest channel carried, summed over the
		// single commands.
		var tailModel, tailBusiest time.Duration
		chanBW := geo.ChannelBandwidth
		hostBW := float64(len(devs)*geo.Channels) * chanBW
		for qi := range queries {
			one := cmd
			one.Queries = queries[qi : qi+1]
			before := portsOf(devs)
			resp, err := s.Submit(one)
			if err != nil {
				t.Fatal(err)
			}
			after := portsOf(devs)
			st := resp.QueryStats[0]
			singles = append(singles, st)
			hostLoads := 0
			deviceLoads := make([]int, len(devs))
			var tlc, ttlOut, readOut, busiestRead int64
			for d := range devs {
				row := st
				if resp.PerShard != nil {
					row = resp.PerShard[d][0]
				}
				if slc := after[d].slc - before[d].slc; slc != int64(row.CoarsePages+row.FinePages) {
					t.Fatalf("%s x%d query %d device %d: model charges %d+%d SLC-ESP senses, device made %d",
						name, s.Devices, qi, d, row.CoarsePages, row.FinePages, slc)
				}
				tlc += after[d].tlc - before[d].tlc
				for ch := range after[d].out {
					read := after[d].read[ch] - before[d].read[ch]
					ttlOut += after[d].out[ch] - before[d].out[ch] - read
					readOut += read
					busiestRead = max(busiestRead, read)
				}
				var busiest, total int64
				for ch := range after[d].in {
					in := after[d].in[ch] - before[d].in[ch]
					busiest = max(busiest, in)
					total += in
				}
				loads := after[d].loads - before[d].loads
				if busiest != int64(row.IBCLoads)*latch {
					t.Fatalf("%s x%d query %d device %d: model charges %d loads, busiest channel took %d bytes (%d latches)",
						name, s.Devices, qi, d, row.IBCLoads, busiest, busiest/latch)
				}
				if total != loads*latch {
					t.Fatalf("%s x%d query %d device %d: %d loads moved %d bytes, want a latch (%d) each",
						name, s.Devices, qi, d, loads, total, latch)
				}
				if c := int64(row.IBCTotalLoads) * latch; c != total {
					t.Fatalf("%s x%d query %d device %d: energy side charges %d bytes, device moved %d",
						name, s.Devices, qi, d, c, total)
				}
				hostLoads = max(hostLoads, row.IBCLoads)
				deviceLoads[d] = row.IBCLoads
				singleLoads += loads
				busiestEverywhere += int64(row.IBCLoads*geo.Channels) * latch
				moved += total
			}
			if tlc != int64(st.RerankPages+st.DocPages) {
				t.Fatalf("%s x%d query %d: model charges %d+%d TLC senses, devices made %d",
					name, s.Devices, qi, st.RerankPages, st.DocPages, tlc)
			}
			if ttlOut != st.TTLBytes || int64(st.Survivors)*ttlEntry != ttlOut {
				t.Fatalf("%s x%d query %d: model moves %d TTL bytes (%d entries, %d of them TTL-C), the dies sent %d",
					name, s.Devices, qi, st.TTLBytes, st.Survivors, st.CoarseSurvivors, ttlOut)
			}
			if tail := int64(st.RerankCount)*int8Bytes + st.DocBytes; readOut != tail {
				t.Fatalf("%s x%d query %d: model moves %d tail bytes, conventional reads moved %d", name, s.Devices, qi, tail, readOut)
			}
			tailModel += time.Duration(float64(readOut) / hostBW * float64(time.Second))
			tailBusiest += time.Duration(float64(busiestRead) / chanBW * float64(time.Second))
			if st.IBCLoads != hostLoads || hostLoads == 0 {
				t.Fatalf("%s x%d query %d: aggregate IBCLoads %d, busiest device %d", name, s.Devices, qi, st.IBCLoads, hostLoads)
			}
			// The model's broadcast time is the critical device's loads (the
			// device with the longest scan; the busiest-loaded one on ties).
			got := s.price(st, resp.ShardStats(0), reis.UnitScale()).IBC
			ok := false
			for _, n := range deviceLoads {
				ok = ok || got == time.Duration(n)*perLoad
			}
			if !ok || (s.Devices == 1 && got != time.Duration(st.IBCLoads)*perLoad) {
				t.Fatalf("%s x%d query %d: model IBC %v is no device's loads %v x %v", name, s.Devices, qi, got, deviceLoads, perLoad)
			}
		}

		before := portsOf(devs)
		resp, err := s.Submit(cmd)
		if err != nil {
			t.Fatal(err)
		}
		after := portsOf(devs)
		if !reflect.DeepEqual(resp.QueryStats, singles) {
			t.Fatalf("%s x%d: batched rows differ from the single commands'", name, s.Devices)
		}
		var batchLoads, slc, tlc int64
		for d := range devs {
			batchLoads += after[d].loads - before[d].loads
			slc += after[d].slc - before[d].slc
			tlc += after[d].tlc - before[d].tlc
		}
		var sum reis.QueryStats
		var shared, sharedPages [2]int // the queries of the coarse round and of its re-issue, and the round's pages
		for _, st := range singles {
			sum.Add(st)
			rounds := st.CoarseEntries / len(dep.Centroids)
			for r := range rounds {
				shared[r]++
				sharedPages[r] = st.CoarsePages / rounds
			}
		}
		saved := 0
		for r, q := range shared {
			if sharedPages[r] > geo.Planes() {
				t.Fatalf("%s: a coarse round of %d pages is more than one wave", name, sharedPages[r])
			}
			saved += max(q-1, 0) * sharedPages[r]
		}
		if slc != int64(sum.CoarsePages+sum.FinePages-saved) || tlc != int64(sum.RerankPages+sum.DocPages) {
			t.Fatalf("%s x%d: batched command sensed %d SLC-ESP and %d TLC pages, its rows charge %d − %d shared and %d",
				name, s.Devices, slc, tlc, sum.CoarsePages+sum.FinePages, saved, sum.RerankPages+sum.DocPages)
		}
		if batchLoads < singleLoads {
			t.Fatalf("%s x%d: batched command loaded %d latches, the queries alone %d", name, s.Devices, batchLoads, singleLoads)
		}
		t.Logf("%s x%d: %d queries loaded %d latches alone, %d as one group (%d re-sends, %.2fx); the busiest channel's loads on every channel would charge %.2fx the bytes moved",
			name, s.Devices, len(queries), singleLoads, batchLoads, batchLoads-singleLoads,
			float64(batchLoads)/float64(singleLoads), float64(busiestEverywhere)/float64(moved))

		nq := time.Duration(len(queries))
		t.Logf("%s x%d: tail per query %v at all %d channels as charged, %v on its busiest channel (gap %v)",
			name, s.Devices, tailModel/nq, len(devs)*geo.Channels, tailBusiest/nq, (tailBusiest-tailModel)/nq)

		// Outbound balance of the scan's TTL stream, per channel position
		// summed over the devices (a layout that favours some channels does
		// so on every device alike), over all 512 queries: 64 queries probe
		// each of 32 channel positions' two one-page clusters ~16 times, so
		// their figure is mostly which clusters they happened to pick (1.78
		// on SSD2 x2). The corpus's 64 centroids fit one page — page 0 of
		// its region, so device 0, channel 0 — and every query streams all
		// of them out of it (at the paper's nlist the centroid region spans
		// 67 pages); that stream is set aside, the rest is what the striping
		// spreads: the TTL-C entries the coarse cut let cross, exactly. A
		// query the cut left short of nprobe senses that page again, uncut.
		// The tail's conventional reads are logged apart: a query's
		// rerank copies share a few pages of its clusters, on a few channels.
		all := cmd
		all.Queries = d.Queries
		before = portsOf(devs)
		resp, err = s.Submit(all)
		if err != nil {
			t.Fatal(err)
		}
		after = portsOf(devs)
		out := make([]int64, geo.Channels)
		tail := make([]int64, geo.Channels)
		for i := range devs {
			for ch := range out {
				read := after[i].read[ch] - before[i].read[ch]
				out[ch] += after[i].out[ch] - before[i].out[ch] - read
				tail[ch] += read
			}
		}
		var ranked, crossed, reissued int
		for _, st := range resp.QueryStats {
			rounds := st.CoarseEntries / len(dep.Centroids)
			if st.CoarsePages != rounds {
				t.Fatalf("centroid region is %d pages a round, the test assumes one", st.CoarsePages/rounds)
			}
			out[0] -= int64(st.CoarseSurvivors) * ttlEntry
			ranked += st.CoarseEntries
			crossed += st.CoarseSurvivors
			if rounds > 1 {
				reissued++
			}
		}
		if out[0] < 0 {
			t.Fatalf("%s x%d: channel 0 sent %d bytes fewer than the TTL-C entries charged", name, s.Devices, -out[0])
		}
		// The corpus's binary region is 64 pages: two per channel of a
		// 32-channel topology. SSD2 x4 has 64 channels, which it cannot
		// fill; its figure is only logged.
		r := maxOverMean(out)
		if r > 1.5 && len(devs)*geo.Channels <= 32 {
			t.Fatalf("%s x%d: per-channel TTL bytes max/mean %.2f > 1.5: %v", name, s.Devices, r, out)
		}
		t.Logf("%s x%d: per-channel TTL bytes max/mean %.2f, tail reads %.2f; coarse cut passed %d of %d centroids (%.3f), %d of %d queries re-issued",
			name, s.Devices, r, maxOverMean(tail), crossed, ranked, float64(crossed)/float64(ranked), reissued, len(resp.QueryStats))
	}
	pageMajorRow(t, d, dep)
}

// pageMajorRow is TestIBCReconciliation's page-major row: dep's corpus
// deployed flat on one channel of two dies of two planes (SSD1's part),
// where its binary region is several waves deep, and a group of eight
// served as one command. Its round runs page-major, so each wave loads every query
// into both dies again. The model charges those re-sends in the batch's
// channel column — the batch's less its queries' own, a latch load each —
// and the device's loads must be the rows' IBCLoads plus them plus the
// query-major re-sends, of which a one-round command has none. On one
// channel the busiest channel's loads are all of them. The batch senses
// the plan once: rows − (q − 1) × its pages.
func pageMajorRow(t *testing.T, d *dataset.Dataset, dep reis.DeployConfig) {
	cfg := ssd.SSD1()
	cfg.Geo.Channels, cfg.Geo.DiesPerChannel = 1, 2
	cfg.Geo.BlocksPerPlane, cfg.Geo.PagesPerBlock = 8, 16
	e, err := reis.New(cfg, int64(len(dep.Vectors)*len(dep.Vectors[0])*12)+64<<20, reis.AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	flat := dep
	flat.Centroids, flat.Assign = nil, nil
	if _, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeDBDeploy, Deploy: &flat}); err != nil {
		t.Fatal(err)
	}
	db, err := e.DB(flat.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := &e.SSD.Dev.Stats
	loads0, slc0 := st.IBCLoads.Load(), st.PageReadsByMode[flash.ModeSLCESP].Load()
	resp, err := e.Submit(reis.HostCommand{Opcode: reis.OpcodeSearch, DBID: flat.ID, Queries: d.Queries[:8], K: 10})
	if err != nil {
		t.Fatal(err)
	}
	loads, slc := st.IBCLoads.Load()-loads0, st.PageReadsByMode[flash.ModeSLCESP].Load()-slc0

	var rows, pages int64
	var own time.Duration
	for i, q := range resp.QueryStats {
		rows += int64(q.IBCLoads)
		pages += int64(q.FinePages)
		own += e.BatchLatency(db, resp.QueryStats[i:i+1], reis.UnitScale()).ChannelBusy
	}
	latch := time.Duration(float64(cfg.Geo.PageBytes) / cfg.Flash.DieInputBandwidth * float64(time.Second))
	cycling := e.BatchLatency(db, resp.QueryStats, reis.UnitScale()).ChannelBusy - own
	if cycling <= 0 || cycling%latch != 0 {
		t.Fatalf("page-major row: the batch's channel is %v over its queries', not a whole number of %v latch loads", cycling, latch)
	}
	resends := int64(cycling / latch)
	if loads != rows+resends {
		t.Fatalf("page-major row: the device made %d loads; the rows charge %d and the model %d page-major re-sends", loads, rows, resends)
	}
	q, plan := int64(len(resp.QueryStats)), int64(resp.QueryStats[0].FinePages)
	if slc != pages-(q-1)*plan {
		t.Fatalf("page-major row: the batch sensed %d pages, its rows charge %d − %d × %d shared", slc, pages, q-1, plan)
	}
	t.Logf("page-major row: %d queries over a %d-page plan on %d planes sensed %d pages (the rows charge %d) and loaded %d latches: %d their own, %d page-major re-sends",
		q, plan, cfg.Geo.Planes(), slc, pages, loads, rows, resends)
}

// benchCorpus is a uniform corpus of the repo benchmark's shape (the
// catalog workloads carry eight queries) and its IVF deployment.
func benchCorpus() (*dataset.Dataset, reis.DeployConfig) {
	d := dataset.Generate(dataset.Config{
		Name: "uniform", N: 8192, Dim: 256, Clusters: 64, Queries: 512, K: 1, DocBytes: 64, Seed: 0x1bc,
	})
	cents, assign := ann.KMeans(d.Vectors, ann.KMeansConfig{K: 64, Seed: 3, SampleLimit: 4096})
	return d, reis.DeployConfig{ID: 1, Vectors: d.Vectors, Docs: d.Docs, DocSlotBytes: docSlot(d), Centroids: cents, Assign: assign}
}

// TestPlaneReconciliation is the plane row of the reconciliation
// (DESIGN.md): the model's batch plane column is the busiest plane's
// senses, as the device's planes counted them. For a coalesced 32-query
// batch it compares, per mode, the busiest plane's senses with the plane
// time the model charges for them (busiestPlane) — the scan's SLC-ESP
// pages at a wave each, the tail's TLC rerank and document pages at tTLC.
// The charge may miss the busiest plane by at most the 1.5 balance bound
// the scan's TTL stream is held to, either way. The batches: the
// benchmark-shaped uniform corpus on the 8-plane churn geometry, where
// the planes are the bottleneck, and on SSD1, where 256 planes share a
// few hundred senses and the tail's regions cover half of them; and the
// skew sweep's Zipf-drawn batches (s = 0 and 1.2, documents skipped) on
// both of its devices, where a batch repeats queries and so re-senses
// their pages.
func TestPlaneReconciliation(t *testing.T) {
	d, dep := benchCorpus()
	eight := ssd.SSD1()
	eight.Name = "SSD1/8p"
	eight.Geo.Channels, eight.Geo.DiesPerChannel, eight.Geo.PlanesPerDie = 2, 2, 2
	cmd := reis.HostCommand{Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: d.Queries[:32], K: 10, Opt: reis.SearchOptions{NProbe: 8}}
	for _, cfg := range []ssd.Config{eight, ssd.SSD1()} {
		reconcilePlanes(t, cfg.Name, cfg, dep, cmd)
	}

	sd, cents, assign := skewWorkload()
	sdep := reis.DeployConfig{
		ID: 1, Vectors: sd.Vectors[:skewBase], Docs: sd.Docs[:skewBase],
		DocSlotBytes: docSlot(sd), Centroids: cents, Assign: assign,
	}
	for _, s := range []float64{0, 1.2} {
		qr := xrand.New(0x5eed ^ math.Float64bits(s))
		queries := make([][]float32, skewBatch)
		for i := range queries {
			queries[i] = sd.Queries[qr.Zipf(skewQueries, s)]
		}
		cmd := reis.HostCommand{
			Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: queries, K: skewK,
			Opt: reis.SearchOptions{NProbe: skewNProbe, SkipDocs: true},
		}
		for _, dev := range skewDevices() {
			reconcilePlanes(t, fmt.Sprintf("skew s=%.1f %s", s, dev.name), dev.cfg, sdep, cmd)
		}
	}
}

// reconcilePlanes serves cmd on a fresh cfg device holding dep and
// checks the scan's and the tail's plane charge against the busiest
// plane's work: for the scan, its SLC-ESP senses at tR each and its
// distance waves at the in-plane compute each — a page the batch's
// queries share is sensed once and computed once per query (page-major)
// — and for the tail its TLC senses at tTLC each.
func reconcilePlanes(t *testing.T, name string, cfg ssd.Config, dep reis.DeployConfig, cmd reis.HostCommand) {
	t.Helper()
	s, err := deploy(cfg, 1, reis.AllOptions(), dep)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dev := s.Engine.SSD.Dev
	counts := func(f func(*flash.Plane) int64) []int64 {
		n := make([]int64, cfg.Geo.Planes())
		for p := range n {
			n[p] = f(dev.Plane(p))
		}
		return n
	}
	slc := func(p *flash.Plane) int64 { return p.Senses(flash.ModeSLCESP) }
	tlc := func(p *flash.Plane) int64 { return p.Senses(flash.ModeTLC) }
	dist := func(p *flash.Plane) int64 { return p.DistWaves() }
	slc0, tlc0, dist0 := counts(slc), counts(tlc), counts(dist)
	resp, err := s.Submit(cmd)
	if err != nil {
		t.Fatal(err)
	}
	slc1, tlc1, dist1 := counts(slc), counts(tlc), counts(dist)

	// The tail's rows alone price its plane charge; the whole rows add
	// the scan's.
	tails := make([]reis.QueryStats, len(resp.QueryStats))
	var scanPages, tailPages int64
	for i, q := range resp.QueryStats {
		tails[i] = reis.QueryStats{RerankPages: q.RerankPages, RerankWaves: q.RerankWaves, DocPages: q.DocPages}
		scanPages += int64(q.CoarsePages + q.FinePages)
		tailPages += int64(q.RerankPages + q.DocPages)
	}
	tail := s.Engine.BatchLatency(s.DB, tails, reis.UnitScale()).PlaneBusy
	scan := s.Engine.BatchLatency(s.DB, resp.QueryStats, reis.UnitScale()).PlaneBusy - tail

	p := cfg.Flash
	tR, tTLC := p.ReadLatency(flash.ModeSLCESP), p.ReadLatency(flash.ModeTLC)
	compute := p.LatchXOR + p.BitCountPage + p.PassFailCheck
	var senses int64
	for pl := range slc1 {
		senses += slc1[pl] - slc0[pl]
	}
	for _, row := range []struct {
		name     string
		work     func(pl int) (time.Duration, int64) // the plane's time, and the pages the rows charge it for
		pages    int64
		charged  time.Duration
		unitWork string
	}{
		{"scan", func(pl int) (time.Duration, int64) {
			waves := dist1[pl] - dist0[pl]
			return time.Duration(slc1[pl]-slc0[pl])*tR + time.Duration(waves)*compute, waves
		}, scanPages, scan, "distance waves"},
		{"tail", func(pl int) (time.Duration, int64) {
			n := tlc1[pl] - tlc0[pl]
			return time.Duration(n) * tTLC, n
		}, tailPages, tail, "TLC senses"},
	} {
		var busiest time.Duration
		var sum int64
		used := 0
		for pl := range slc1 {
			d, n := row.work(pl)
			busiest, sum = max(busiest, d), sum+n
			if n > 0 {
				used++
			}
		}
		if sum != row.pages {
			t.Fatalf("%s %s: the rows charge %d pages, the planes ran %d %s", name, row.name, row.pages, sum, row.unitWork)
		}
		r := float64(busiest) / float64(row.charged)
		t.Logf("%s %s: %d %s on %d of %d planes; busiest plane %v, charged %v (ratio %.2f)",
			name, row.name, sum, row.unitWork, used, len(slc1), busiest, row.charged, r)
		if r > 1.5 || r < 1/1.5 {
			t.Errorf("%s %s: busiest plane is %.2fx the model's plane charge, bound 1.5", name, row.name, r)
		}
	}
	t.Logf("%s scan: %d SLC-ESP senses for the rows' %d pages", name, senses, scanPages)
}

func maxOverMean(v []int64) float64 {
	var m, sum int64
	for _, x := range v {
		m = max(m, x)
		sum += x
	}
	return float64(m) * float64(len(v)) / float64(sum)
}

// TestIBCChargeNeverAboveFullBroadcast: for the rows the rig prices, at
// every scale the sweeps use, the broadcast charged is at most the one
// full broadcast the model charged every scanning query before it read
// the device's loads (DiesPerChannel latches with MPIBC, one per plane
// without) — so no query got dearer — and at paper scale it is at least
// the device's own count.
func TestIBCChargeNeverAboveFullBroadcast(t *testing.T) {
	w := loadWorkload("NQ", testScale)
	noMP := reis.AllOptions()
	noMP.MPIBC = false
	for _, opts := range []reis.Options{reis.AllOptions(), noMP} {
		for s, err := range setups(w, opts, paperSSDs, 1, 2) {
			if err != nil {
				t.Fatal(err)
			}
			geo := s.devices()[0].SSD.Cfg.Geo
			full := geo.DiesPerChannel
			if !opts.MPIBC {
				full *= geo.PlanesPerDie
			}
			perLoad := s.latchTime()
			for _, cmd := range []reis.HostCommand{
				{Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: w.Data.Queries, K: 10, Opt: reis.SearchOptions{NProbe: 1}},
				{Opcode: reis.OpcodeIVFSearch, DBID: 1, Queries: w.Data.Queries, K: 10, Opt: reis.SearchOptions{NProbe: 8, Prune: true}},
				{Opcode: reis.OpcodeSearch, DBID: 1, Queries: w.Data.Queries[:4], K: 10},
			} {
				resp, err := s.Submit(cmd)
				if err != nil {
					t.Fatal(err)
				}
				for qi, st := range resp.QueryStats {
					for _, sc := range []reis.Scale{reis.UnitScale(), w.IVF, w.BF, {Fine: 1.5, Coarse: 1.5}, {Fine: 1e9, Coarse: 1e9}} {
						ibc := s.price(st, resp.ShardStats(qi), sc).IBC
						if ibc > time.Duration(full)*perLoad || ibc < perLoad {
							t.Fatalf("%s x%d mpibc=%v op %#x query %d scale %+v: IBC %v outside [one load %v, full broadcast %v]",
								s.Cfg.Name, s.Devices, opts.MPIBC, cmd.Opcode, qi, sc, ibc, perLoad, time.Duration(full)*perLoad)
						}
						if sc.Fine > 1 && ibc < time.Duration(st.IBCLoads)*perLoad {
							t.Fatalf("%s x%d query %d scale %+v: IBC %v below the %d loads the device made",
								s.Cfg.Name, s.Devices, qi, sc, ibc, st.IBCLoads)
						}
					}
				}
			}
		}
	}
}

// TestRunFig9MPIBCNeverSlower: the ablation's +MPIBC column prices the
// broadcast from the dies a query loads instead of every die, where +PL
// pays one load per plane it scans; on no row may adding MPIBC slow the
// stack down, and on every row the stacks keep their order.
func TestRunFig9MPIBCNeverSlower(t *testing.T) {
	rows, err := RunFig9(testScale, []float64{0.98, 0.90})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(paperSSDs) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Full < r.DFPL {
			t.Errorf("%s recall %.2f: +MPIBC %.3f slower than +PL %.3f", r.SSD, r.Recall, r.Full, r.DFPL)
		}
		if r.NoOpt <= 0 || r.DF < r.NoOpt || r.DFPL < r.DF {
			t.Errorf("%s recall %.2f: stacks out of order: %+v", r.SSD, r.Recall, r)
		}
	}
}
