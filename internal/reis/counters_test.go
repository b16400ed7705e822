package reis

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"reis/internal/flash"
)

// scanCounterGolden is the device-event digest (digestDevices) of each
// case of TestScanCounterDigest, keyed "<case> n=<devices> mpibc=<on>".
var scanCounterGolden = map[string]string{
	"ivf8 n=1 mpibc=true":     "50dba5e6112a5080",
	"flat8 n=1 mpibc=true":    "af35f6cd277005f0",
	"lone n=1 mpibc=true":     "257be690fbc87e7c",
	"pruned8 n=1 mpibc=true":  "e14ad125960c5546",
	"ivf8 n=1 mpibc=false":    "eb573dd12d6de377",
	"flat8 n=1 mpibc=false":   "3cc9019377ac9814",
	"lone n=1 mpibc=false":    "7ed8f5d790f74510",
	"pruned8 n=1 mpibc=false": "bd811c5be85bb492",
	"ivf8 n=2 mpibc=true":     "89fffbda5a4b061d",
	"flat8 n=2 mpibc=true":    "de0fe43e2236ac26",
	"lone n=2 mpibc=true":     "a5b6f781c5bfd8a9",
	"pruned8 n=2 mpibc=true":  "88d1e57008ebedf5",
	"ivf8 n=2 mpibc=false":    "e1828a0c62acaa3b",
	"flat8 n=2 mpibc=false":   "a8a4a8e35179af07",
	"lone n=2 mpibc=false":    "cb8445d142c7b8e1",
	"pruned8 n=2 mpibc=false": "f91fda62b72860ad",
}

// digestDevices folds every flash.Stats counter of every device — walked
// by reflection, so a counter added later is covered without touching
// the test — and each plane's SLC-ESP senses and distance waves into one
// FNV-64a digest. dump lists the same values by name, for a failure.
func digestDevices(devs []*device) (digest string, dump string) {
	h := fnv.New64a()
	var b strings.Builder
	put := func(name string, v int64) {
		fmt.Fprintf(h, "%s=%d;", name, v)
		fmt.Fprintf(&b, " %s=%d", name, v)
	}
	for s, d := range devs {
		v := reflect.ValueOf(&d.SSD.Dev.Stats).Elem()
		for i := range v.NumField() {
			f, name := v.Field(i), fmt.Sprintf("d%d.%s", s, v.Type().Field(i).Name)
			switch f.Kind() {
			case reflect.Struct:
				put(name, f.Addr().Interface().(*atomic.Int64).Load())
			case reflect.Array, reflect.Slice:
				for j := range f.Len() {
					put(fmt.Sprintf("%s[%d]", name, j), f.Index(j).Addr().Interface().(*atomic.Int64).Load())
				}
			}
		}
		for p := range d.SSD.Cfg.Geo.Planes() {
			pl := d.SSD.Dev.Plane(p)
			put(fmt.Sprintf("d%d.p%d.senses", s, p), pl.Senses(flash.ModeSLCESP))
			put(fmt.Sprintf("d%d.p%d.waves", s, p), pl.DistWaves())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), b.String()
}

// TestScanCounterDigest pins what the device does for a command, not
// only what it reports: every flash.Stats counter and each plane's
// sense and distance-wave counts, for an 8-query IVF batch (a page-major
// coarse round, then query-major fine rounds), an 8-query flat batch
// (page-major), a lone query and a pruned IVF batch, with MPIBC on and
// off, on one device and on two. TestPlaneReconciliation bounds the
// plane counts within a ratio of the model; this holds them exactly, so
// a change to how a scan round is planned or run that moves any device
// event shows here.
func TestScanCounterDigest(t *testing.T) {
	cases := []struct {
		name      string
		cmd       HostCommand
		pageMajor bool // some device runs a shared round page-major
	}{
		{"ivf8", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, Opt: SearchOptions{NProbe: 4}}, true},
		{"flat8", HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries[:8], K: 10}, true},
		{"lone", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[8:9], K: 10, Opt: SearchOptions{NProbe: 8}}, false},
		{"pruned8", HostCommand{Opcode: OpcodeIVFSearch, DBID: 2, Queries: testData.Queries[:8], K: 10, Opt: SearchOptions{NProbe: 8, Prune: true}}, true},
	}
	var observed []string
	for _, n := range []int{1, 2} {
		for _, mpibc := range []bool{true, false} {
			opts := AllOptions()
			opts.MPIBC = mpibc
			var h submitter
			var core *hostCore
			if n == 1 {
				e := newEngine(t, opts)
				h, core = e, &e.hostCore
			} else {
				sh, err := NewSharded(testCfg(), n, 64<<20, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sh.Close() })
				h, core = sh, &sh.hostCore
			}
			deployBoth(t, h.Submit)
			for _, c := range cases {
				key := fmt.Sprintf("%s n=%d mpibc=%v", c.name, n, mpibc)
				for _, d := range core.devs {
					d.SSD.Dev.ResetStats()
				}
				resp := mustSubmit(t, h, c.cmd)
				entry, err := core.hostDB(c.cmd.DBID)
				if err != nil {
					t.Fatal(err)
				}
				var saved int64
				for s, d := range core.devs {
					rows := resp.QueryStats
					if resp.PerShard != nil {
						rows = resp.PerShard[s]
					}
					saved += pageMajorSaved(d, entry.locals[s], rows)
				}
				if (saved > 0) != c.pageMajor {
					t.Errorf("%s: page-major saved %d senses, want page-major %v", key, saved, c.pageMajor)
				}
				got, dump := digestDevices(core.devs)
				observed = append(observed, fmt.Sprintf("\t%q: %q,", key, got))
				if want := scanCounterGolden[key]; got != want {
					t.Errorf("%s: device counters digest %s, want %s (page-major saved %d senses)\n%s", key, got, want, saved, dump)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("observed digests:\n%s", strings.Join(observed, "\n"))
	}
}
