package reis

import (
	"encoding/binary"
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
	"ivf8 n=1 mpibc=true":     "556935718748db5d",
	"flat8 n=1 mpibc=true":    "dea613df4fd222d9",
	"lone n=1 mpibc=true":     "d58353754260efa4",
	"pruned8 n=1 mpibc=true":  "42624539521150a0",
	"ivf8 n=1 mpibc=false":    "3f4ca92a37dca290",
	"flat8 n=1 mpibc=false":   "eead3ffc20e92138",
	"lone n=1 mpibc=false":    "0cfa32c502cbfb15",
	"pruned8 n=1 mpibc=false": "c5aec56e809863b8",
	"ivf8 n=2 mpibc=true":     "d000556800ceaf8a",
	"flat8 n=2 mpibc=true":    "bfaafe046f445ae4",
	"lone n=2 mpibc=true":     "2fbec450ea351f3b",
	"pruned8 n=2 mpibc=true":  "9bcb59223d1903ed",
	"ivf8 n=2 mpibc=false":    "9233cfba81ac83a1",
	"flat8 n=2 mpibc=false":   "41dedb72af9302bd",
	"lone n=2 mpibc=false":    "b55b7d4f0f8b1790",
	"pruned8 n=2 mpibc=false": "f57a89464e4b2674",
}

// digestDevices folds every flash.Stats counter of every device — walked
// by reflection, so a counter added later is covered without touching
// the test — and each plane's SLC-ESP senses and distance waves into one
// FNV-64a digest. The digest hashes the values alone, in declaration
// order, each read through its field's address: renaming or unexporting
// a counter moves no digest, and a changed count does. dump lists the
// same values by name, for a failure.
func digestDevices(devs []*device) (digest string, dump string) {
	h := fnv.New64a()
	var b strings.Builder
	var word [8]byte
	put := func(name string, v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
		fmt.Fprintf(&b, " %s=%d", name, v)
	}
	counter := reflect.TypeFor[atomic.Int64]()
	load := func(f reflect.Value) int64 {
		if f.Type() != counter {
			panic(fmt.Sprintf("digestDevices: flash.Stats holds a %v, not an atomic.Int64", f.Type()))
		}
		return (*atomic.Int64)(f.Addr().UnsafePointer()).Load()
	}
	for s, d := range devs {
		v := reflect.ValueOf(&d.SSD.Dev.Stats).Elem()
		for i := range v.NumField() {
			f, name := v.Field(i), fmt.Sprintf("d%d.%s", s, v.Type().Field(i).Name)
			switch f.Kind() {
			case reflect.Array, reflect.Slice:
				for j := range f.Len() {
					put(fmt.Sprintf("%s[%d]", name, j), load(f.Index(j)))
				}
			default:
				put(name, load(f))
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
