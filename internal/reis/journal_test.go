package reis

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"reis/internal/dataset"
	"reis/internal/vecmath"
)

// journalHost is the surface the recovery tests drive: command
// submission plus the mutation journal, satisfied by *Engine and
// *ShardedEngine.
type journalHost interface {
	submitter
	JournalBytes() []byte
	ReplayJournal([]byte) error
	Close() error
}

// newJournalHost builds a host of the given shard count on the GC test
// layout (multi-row compactions, so recovery crosses remapped rows): a
// plain Engine for 1, a ShardedEngine otherwise.
func newJournalHost(t *testing.T, shards int) journalHost {
	t.Helper()
	if shards == 1 {
		e, err := New(gcTestCfg(), 64<<20, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return newShardedJournalHost(t, shards)
}

// newShardedJournalHost builds a ShardedEngine of any member count —
// one included, the topology newJournalHost(t, 1) does not produce.
func newShardedJournalHost(t *testing.T, shards int) journalHost {
	t.Helper()
	sh, err := NewSharded(gcTestCfg(), shards, 64<<20, AllOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// mutDeployCmd reconstructs runMutScript's deploy command: recovery is
// a fresh deploy plus a journal replay, so the deploy itself is never
// journaled and the oracle re-issues it.
func mutDeployCmd(c *mutCorpus, ivf bool) HostCommand {
	deploy := &DeployConfig{ID: 1, Vectors: c.base, Docs: c.baseDocs, DocSlotBytes: 256}
	op := OpcodeDBDeploy
	if ivf {
		op = OpcodeIVFDeploy
		deploy.Centroids = c.cents
		deploy.Assign = c.assign[:len(c.base)]
	}
	return HostCommand{Opcode: op, Deploy: deploy}
}

func mutSearchCmd(ivf bool) HostCommand {
	if ivf {
		return HostCommand{Opcode: OpcodeIVFSearch, DBID: 1, Queries: testData.Queries, K: 10, Opt: SearchOptions{NProbe: 4}}
	}
	return HostCommand{Opcode: OpcodeSearch, DBID: 1, Queries: testData.Queries, K: 10}
}

// TestCrashRecoveryAtEveryJournalPrefix is the crash-consistency
// oracle: killing the engine after ANY whole-record journal prefix and
// reopening (fresh deploy + replay of that prefix) yields a state
// whose search results are bit-identical to the original engine's
// results at that point in history — for the empty prefix through the
// full journal, on single-device and sharded topologies — and the
// reopened engine's re-journaled bytes equal the replayed prefix
// exactly (recovery is idempotent under repeated crashes).
func TestCrashRecoveryAtEveryJournalPrefix(t *testing.T) {
	c := newMutCorpus()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newJournalHost(t, shards)
			t.Cleanup(func() { h.Close() })
			resps := runMutScript(t, h, c, true, 0.9)
			jl := append([]byte{}, h.JournalBytes()...)
			offs, err := journalOffsets(jl)
			if err != nil {
				t.Fatal(err)
			}
			if len(offs) != 5 {
				t.Fatalf("journal has %d records, want 4 (append, delete, append, compact)", len(offs)-1)
			}
			// Search responses after each mutation prefix: the deploy-only
			// state, then after append/delete/append/compact.
			want := [][][]DocResult{
				resps[1].Results, resps[3].Results, resps[5].Results,
				resps[7].Results, resps[9].Results,
			}
			for k, off := range offs {
				b := newJournalHost(t, shards)
				if _, err := b.Submit(mutDeployCmd(c, true)); err != nil {
					t.Fatal(err)
				}
				if err := b.ReplayJournal(jl[:off]); err != nil {
					t.Fatalf("prefix %d (%d bytes): %v", k, off, err)
				}
				got, err := b.Submit(mutSearchCmd(true))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Results, want[k]) {
					t.Fatalf("prefix %d: reopened search differs from the original history", k)
				}
				if !bytes.Equal(b.JournalBytes(), jl[:off]) {
					t.Fatalf("prefix %d: re-journaled bytes differ from the replayed prefix", k)
				}
				b.Close()
			}
		})
	}
}

// TestJournalReplayAcrossTopologies: a journal captured on one
// topology deterministically rebuilds the same state on another —
// single-device history replayed onto 2- and 4-shard routers (and a
// sharded history's journal is byte-identical to the single-device
// journal in the first place).
func TestJournalReplayAcrossTopologies(t *testing.T) {
	c := newMutCorpus()
	single := newJournalHost(t, 1)
	t.Cleanup(func() { single.Close() })
	resps := runMutScript(t, single, c, true, 0.9)
	jl := single.JournalBytes()
	want := resps[len(resps)-1].Results

	for _, shards := range []int{1, 2} {
		sharded := newShardedJournalHost(t, shards)
		t.Cleanup(func() { sharded.Close() })
		runMutScript(t, sharded, c, true, 0.9)
		if !bytes.Equal(sharded.JournalBytes(), jl) {
			t.Fatalf("shards=%d: journal bytes differ from the single-device journal for the same history", shards)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		b := newShardedJournalHost(t, shards)
		if _, err := b.Submit(mutDeployCmd(c, true)); err != nil {
			t.Fatal(err)
		}
		if err := b.ReplayJournal(jl); err != nil {
			t.Fatal(err)
		}
		got, err := b.Submit(mutSearchCmd(true))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("shards=%d: replayed state differs from the single-device original", shards)
		}
		b.Close()
	}
}

// frameOpcode is the opcode of the record framed at offset off of a
// journal: the byte after the frame's version and length.
func frameOpcode(jl []byte, off int) uint8 { return jl[off+5] }

// TestJournalCorruptionDetected: a journal truncated mid-frame, written
// in another format version, carrying an unknown opcode under a valid
// checksum, or with any single bit of a frame flipped is rejected by
// both the offset scan and replay, instead of silently rebuilding a
// wrong state. The flips cover a bit of every byte of the first
// append's frame and every bit of its header — its codes, INT8 copies
// and documents decode whatever they hold, so only the checksum tells — and
// one bit in the middle of every other frame.
func TestJournalCorruptionDetected(t *testing.T) {
	c := newMutCorpus()
	h := newJournalHost(t, 1)
	t.Cleanup(func() { h.Close() })
	runMutScript(t, h, c, true, 0.9)
	jl := append([]byte{}, h.JournalBytes()...)
	offs, err := journalOffsets(jl)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() journalHost {
		b := newJournalHost(t, 1)
		t.Cleanup(func() { b.Close() })
		if _, err := b.Submit(mutDeployCmd(c, true)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	rejected := func(what string, bad []byte, replay bool) {
		t.Helper()
		if _, err := journalOffsets(bad); err == nil {
			t.Fatalf("offset scan accepted %s", what)
		}
		if replay {
			if err := fresh().ReplayJournal(bad); err == nil {
				t.Fatalf("replay accepted %s", what)
			}
		}
	}
	rejected("a mid-frame truncation", jl[:offs[1]-1], true)
	bad := append([]byte{}, jl...)
	bad[0] = journalVersion + 1
	rejected("another format version", bad, true)

	// An unknown opcode under a valid checksum: the record itself is
	// refused.
	var j journal
	j.open()
	j.u8(0xFF)
	j.uvarint(1)
	j.seal()
	rejected("an unknown opcode", j.bytes(), true)

	first := -1
	for i := range offs[:len(offs)-1] {
		if frameOpcode(jl, offs[i]) == OpcodeAppend {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("the script journaled no append")
	}
	flip := func(data []byte, bit int) []byte {
		bad := append([]byte{}, data...)
		bad[bit/8] ^= 1 << uint(bit%8)
		return bad
	}
	frame := append([]byte{}, jl[offs[first]:offs[first+1]]...)
	for i := range frame {
		// Every bit of the header and one bit of every other byte.
		for b := range 8 {
			if i >= 16 && b != i%8 {
				continue
			}
			frame[i] ^= 1 << uint(b)
			if _, err := journalOffsets(frame); err == nil {
				t.Fatalf("offset scan accepted bit %d of byte %d of the first append's frame flipped", b, i)
			}
			frame[i] ^= 1 << uint(b)
		}
	}
	// Replay too refuses a flip inside the append's binary codes, bytes
	// that decode into a different corpus.
	rejected("a flipped code bit", flip(jl, (offs[first]+5+8)*8+3), true)
	for i := range offs[:len(offs)-1] {
		rejected(fmt.Sprintf("a flipped bit in frame %d", i), flip(jl, (offs[i]+offs[i+1])/2*8+5), false)
	}
}

// FuzzCrashRecovery is the crash-recovery state-machine fuzzer: a byte
// string decodes into an interleaved append/delete/compact sequence
// executed on a single-device engine; the resulting journal is then
// cut at whole-record crash points and replayed — onto a fresh
// single-device engine AND a fresh 2-shard router — and every reopened
// state must answer searches identically across the two topologies,
// re-journal exactly the replayed prefix, and (for the full journal)
// match the original engine's final results. The journal with one bit
// flipped, at a position the input picks, must be refused.
//
// CI replays the seed corpus (testdata/fuzz/FuzzCrashRecovery) on
// every push; the nightly workflow fuzzes it for 10 minutes.
func FuzzCrashRecovery(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{1, 0, 2, 0, 1, 1, 5, 2, 2, 0, 3, 1, 8})
	f.Add([]byte{0, 0, 0, 1, 3, 1, 7, 2, 1, 0, 2, 1, 40, 2, 3})
	f.Add([]byte{1, 2, 3, 1, 11, 0, 1, 1, 2, 2, 1, 0, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 40 {
			t.Skip()
		}
		w := fuzzWorldGet()
		ivf := data[0]%2 == 1
		ops := data[1:]

		refCfg := refOf(fuzzCfg(), 2)
		orig, err := New(refCfg, 0, AllOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer orig.Close()

		deploy := &DeployConfig{ID: 1, Vectors: w.base.Vectors, Docs: w.base.Docs, DocSlotBytes: 64}
		op := OpcodeDBDeploy
		searchOp, nprobe := OpcodeSearch, 0
		if ivf {
			op = OpcodeIVFDeploy
			deploy.Centroids = w.cents
			deploy.Assign = w.assign[:len(w.base.Vectors)]
			searchOp, nprobe = OpcodeIVFSearch, 3
		}
		deployCmd := HostCommand{Opcode: op, Deploy: deploy}
		searchCmd := HostCommand{Opcode: searchOp, DBID: 1, Queries: w.base.Queries, K: 5, Opt: SearchOptions{NProbe: nprobe}}
		if _, err := orig.Submit(deployCmd); err != nil {
			t.Fatal(err)
		}

		liveIDs := make([]int, len(w.base.Vectors))
		for i := range liveIDs {
			liveIDs[i] = i
		}
		poolAt := 0
		for i := 0; i+1 < len(ops); i += 2 {
			b, arg := ops[i], int(ops[i+1])
			switch b % 3 {
			case 0: // append 1-3 items from the pool (cycling)
				n := 1 + arg%3
				vecs := make([][]float32, n)
				docs := make([][]byte, n)
				var assign []int
				for j := 0; j < n; j++ {
					k := (poolAt + j) % len(w.pool)
					vecs[j] = w.pool[k]
					docs[j] = w.poolDoc[k]
					if ivf {
						assign = append(assign, w.assign[len(w.base.Vectors)+k])
					}
				}
				poolAt += n
				resp, err := orig.Submit(HostCommand{Opcode: OpcodeAppend, DBID: 1,
					Append: &AppendConfig{Vectors: vecs, Docs: docs, Assign: assign}})
				if err != nil {
					continue // region full: not journaled, state unchanged
				}
				liveIDs = append(liveIDs, resp.AppendedIDs...)
			case 1: // delete one live id (deterministic pick)
				if len(liveIDs) == 0 {
					continue
				}
				k := arg % len(liveIDs)
				if _, err := orig.Submit(HostCommand{Opcode: OpcodeDelete, DBID: 1,
					Del: &DeleteConfig{IDs: []int{liveIDs[k]}}}); err != nil {
					t.Fatal(err)
				}
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
			case 2: // compact
				thr := []float64{0, 0.25, 0.9, 1}[arg%4]
				if _, err := orig.Submit(HostCommand{Opcode: OpcodeCompact, DBID: 1,
					Compact: &CompactConfig{MinLiveRatio: thr}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		final, err := orig.Submit(searchCmd)
		if err != nil {
			t.Fatal(err)
		}
		jl := orig.JournalBytes()
		offs, err := journalOffsets(jl)
		if err != nil {
			t.Fatal(err)
		}
		// A flipped bit anywhere — at a position the input picks — is
		// refused by the offset scan and by replay.
		if len(jl) > 0 {
			var pick uint64
			for _, b := range data {
				pick = pick*31 + uint64(b)
			}
			bit := int(pick % uint64(len(jl)*8))
			bad := append([]byte{}, jl...)
			bad[bit/8] ^= 1 << uint(bit%8)
			if _, err := journalOffsets(bad); err == nil {
				t.Fatalf("offset scan accepted bit %d flipped", bit)
			}
			h, err := New(refCfg, 0, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Submit(deployCmd); err != nil {
				t.Fatal(err)
			}
			if err := h.ReplayJournal(bad); err == nil {
				t.Fatalf("replay accepted bit %d flipped", bit)
			}
			h.Close()
		}
		// Sample crash points (always including the empty and the full
		// prefix) to bound per-input cost.
		step := 1
		if len(offs) > 6 {
			step = len(offs) / 5
		}
		for k := 0; k < len(offs); k += step {
			if k+step >= len(offs) {
				k = len(offs) - 1 // the full journal is always a crash point
			}
			off := offs[k]
			single, err := New(refCfg, 0, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewSharded(fuzzCfg(), 2, 0, AllOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []journalHost{single, sharded} {
				if _, err := h.Submit(deployCmd); err != nil {
					t.Fatal(err)
				}
				if err := h.ReplayJournal(jl[:off]); err != nil {
					t.Fatalf("prefix %d: %v", k, err)
				}
				if !bytes.Equal(h.JournalBytes(), jl[:off]) {
					t.Fatalf("prefix %d: re-journaled bytes differ from the replayed prefix", k)
				}
			}
			a, err := single.Submit(searchCmd)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sharded.Submit(searchCmd)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Results, b.Results) {
				t.Fatalf("prefix %d: reopened single and sharded states diverge", k)
			}
			if off == offs[len(offs)-1] && !reflect.DeepEqual(a.Results, final.Results) {
				t.Fatalf("full-journal reopen differs from the original engine's final state")
			}
			single.Close()
			sharded.Close()
		}
	})
}

// FuzzJournalFrames logs a sequence of append, delete and compact
// records that a byte string decodes into — with sizes from a few bytes
// to past two journal chunks — into one journal, and checks that the
// chunked log is the plain frame sequence: it equals the concatenation
// of each record logged alone into a fresh journal, journalOffsets finds
// exactly the frame ends, and every frame decodes back into its command.
//
// An input is a run of records, each a kind byte and its operands:
//
//	kind%3 == 0: append  n%4 dim flags docLen:u24 (an encoded record of
//	             n items, codes of 8·⌈dim/64⌉ bytes and INT8 copies of
//	             dim bytes; flags bit 0: cluster assignments, bit 1:
//	             tags; docLen mod 3 chunks)
//	kind%3 == 1: delete  nids%16 stride
//	kind%3 == 2: compact ratio (ratio/255)
//
// and the database id is kind/3 × 100.
func FuzzJournalFrames(f *testing.F) {
	// oneAppend is an append of one 1-dim item (an 8-byte code and a
	// 1-byte INT8 copy) and one docLen-byte document, on database 0: for
	// a document of 16 KiB up to 2 MiB its frame is docLen + 27 bytes.
	oneAppend := func(docLen int) []byte {
		return []byte{0, 1, 1, 0, byte(docLen), byte(docLen >> 8), byte(docLen >> 16)}
	}
	compact := []byte{2, 128}
	f.Add(append(oneAppend(journalChunk-27), compact...))    // ends exactly on a chunk boundary
	f.Add(append(oneAppend(journalChunk-26), compact...))    // crosses it by one byte
	f.Add(append(oneAppend(2*journalChunk+977), compact...)) // longer than two chunks
	f.Add([]byte{4, 5, 3, 0, 3, 3, 64, 0, 0, 8, 200, 1, 2, 0, 0xFF, 0xFF, 1, 11, 0, 0})
	f.Add([]byte{3, 3, 255, 3, 9, 0, 0, 6, 2, 129, 1, 0, 0, 0}) // 255- and 129-dim appends: 32- and 24-byte codes
	f.Fuzz(func(t *testing.T, data []byte) {
		var cmds []HostCommand
		var j journal
		var want []byte
		for r := 0; r < len(data) && len(want) < 4<<20; {
			kind := data[r]
			arg := func(i int) int {
				if r+i < len(data) {
					return int(data[r+i])
				}
				return 0
			}
			cmd := HostCommand{DBID: int(kind/3) * 100}
			var log func(j *journal)
			switch kind % 3 {
			case 0:
				n, dim, flags := arg(1)%4, arg(2), arg(3)
				docLen := (arg(4) | arg(5)<<8 | arg(6)<<16) % (3 * journalChunk)
				rec := &appendRecord{
					dim:   dim,
					codes: make([]byte, n*vecmath.WordsPerVector(dim)*8),
					int8s: make([]byte, n*dim),
					docs:  make([][]byte, n),
				}
				for k := range rec.codes {
					rec.codes[k] = byte(len(cmds)*31 + k*7)
				}
				for k := range rec.int8s {
					rec.int8s[k] = byte(len(cmds)*17 - k*3)
				}
				for i := range n {
					rec.docs[i] = make([]byte, docLen)
					for k := range rec.docs[i] {
						rec.docs[i][k] = byte(k + i)
					}
				}
				if flags&1 != 0 && n > 0 {
					rec.assign = make([]int, n)
					for i := range rec.assign {
						rec.assign[i] = (i + 1) * 150
					}
				}
				if flags&2 != 0 {
					rec.tags = make([]byte, n)
					for i := range rec.tags {
						rec.tags[i] = byte(flags + i)
					}
				}
				cmd.Opcode, cmd.Append = OpcodeAppend, &AppendConfig{rec: rec}
				log = func(j *journal) { j.logAppend(cmd.DBID, rec) }
				r += 7
			case 1:
				ids := make([]int, arg(1)%16)
				for i := range ids {
					ids[i] = i * arg(2) * 997
				}
				cmd.Opcode, cmd.Del = OpcodeDelete, &DeleteConfig{IDs: ids}
				log = func(j *journal) { j.logDelete(cmd.DBID, ids) }
				r += 3
			case 2:
				cmd.Opcode, cmd.Compact = OpcodeCompact, &CompactConfig{MinLiveRatio: float64(arg(1)) / 255}
				log = func(j *journal) { j.logCompact(cmd.DBID, cmd.Compact.MinLiveRatio) }
				r += 2
			}
			cmds = append(cmds, cmd)
			log(&j)
			var alone journal
			log(&alone)
			want = append(want, alone.bytes()...)
		}

		jl := j.bytes()
		if !bytes.Equal(jl, want) {
			t.Fatalf("the chunked log of %d records (%d bytes) differs from its frames logged alone (%d bytes)", len(cmds), len(jl), len(want))
		}
		if j.size() != len(jl) {
			t.Fatalf("size %d, log %d bytes", j.size(), len(jl))
		}
		offs, err := journalOffsets(jl)
		if err != nil {
			t.Fatal(err)
		}
		rd := journalReader{data: jl}
		for i, cmd := range cmds {
			got, err := rd.next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if i+1 >= len(offs) || offs[i+1] != rd.pos {
				t.Fatalf("frame %d ends at %d, offsets %v", i, rd.pos, offs)
			}
			if !reflect.DeepEqual(got, cmd) {
				t.Fatalf("frame %d decodes to %+v, logged %+v", i, got, cmd)
			}
		}
		if len(offs) != len(cmds)+1 {
			t.Fatalf("%d offsets for %d frames", len(offs), len(cmds))
		}
	})
}

// churnSize is a corpus of churn_mixed's entry size — 256 dimensions
// and 512-byte documents — for the journal's frame, replay and benchmark
// cases: the first churnSizeBase rows are deployed and the rest appended
// in churnSizeBurst-item bursts, cycling, under the generator topic as
// cluster (the topics' means are the centroids).
var churnSize = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Generate(dataset.Config{
		Name: "reis-journal", N: churnSizeBase + 256, Dim: 256, Clusters: 8, Queries: 8, K: 10,
		DocBytes: 512, Seed: 57,
	})
})

const churnSizeBase, churnSizeBurst = 2048, 16

// churnSizeDeploy is the IVF deploy of the churn-size corpus' base rows.
func churnSizeDeploy() HostCommand {
	d := churnSize()
	cents := make([][]float32, 8)
	for c := range cents {
		cents[c] = make([]float32, d.Dim)
	}
	for i, v := range d.Vectors[:churnSizeBase] {
		for k, x := range v {
			cents[d.ClusterOf[i]][k] += x
		}
	}
	return HostCommand{Opcode: OpcodeIVFDeploy, Deploy: &DeployConfig{
		ID: 1, Vectors: d.Vectors[:churnSizeBase], Docs: d.Docs[:churnSizeBase], DocSlotBytes: 512,
		Centroids: cents, Assign: d.ClusterOf[:churnSizeBase],
	}}
}

// churnSizeAppend is round r's append: the next burst of pool rows,
// filed under two clusters as one ingested text's chunks would be.
func churnSizeAppend(r int) HostCommand {
	d := churnSize()
	cfg := &AppendConfig{}
	for k := range churnSizeBurst {
		i := churnSizeBase + (r*churnSizeBurst+k)%(len(d.Vectors)-churnSizeBase)
		cfg.Vectors = append(cfg.Vectors, d.Vectors[i])
		cfg.Docs = append(cfg.Docs, d.Docs[i])
		cfg.Assign = append(cfg.Assign, (r+k%2)%8)
	}
	return HostCommand{Opcode: OpcodeAppend, DBID: 1, Append: cfg}
}

// newChurnSizeHost is a deployed single-device host for the churn-size
// corpus on churn_mixed's device shape — two-page blocks, 200 %
// overprovisioning — with the append headroom of 160 churn rounds.
func newChurnSizeHost(tb testing.TB) *Engine {
	tb.Helper()
	cfg := testCfg()
	cfg.Geo.PagesPerBlock = 2
	cfg.Geo.BlocksPerPlane = 256
	cfg.OverprovisionPct = 200
	e, err := New(cfg, 0, AllOptions())
	if err != nil {
		tb.Fatal(err)
	}
	mustSubmit(tb, e, churnSizeDeploy())
	return e
}

// runChurnRounds applies churn_mixed's rounds to h: append a burst,
// delete the burst of two rounds back, and every eighth round compact at
// live ratio 0.5.
func runChurnRounds(tb testing.TB, h submitter, rounds int) {
	tb.Helper()
	ids := map[int][]int{}
	for r := range rounds {
		ids[r] = mustSubmit(tb, h, churnSizeAppend(r)).AppendedIDs
		if old, ok := ids[r-2]; ok {
			mustSubmit(tb, h, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: old}})
			delete(ids, r-2)
		}
		if r%8 == 7 {
			mustSubmit(tb, h, HostCommand{Opcode: OpcodeCompact, DBID: 1, Compact: &CompactConfig{MinLiveRatio: 0.5}})
		}
	}
}

// TestJournalFramesTheEncodedAppend: a churn-size append (16 items of 256
// dimensions with 512-byte documents) frames to exactly its header plus
// n × (32 + 256 + 2 + 512) bytes — each item's packed binary code, INT8
// copy, document length and document, and no float32 vector.
func TestJournalFramesTheEncodedAppend(t *testing.T) {
	e := newChurnSizeHost(t)
	t.Cleanup(func() { e.Close() })
	cmd := churnSizeAppend(0)
	mustSubmit(t, e, cmd)
	// version, length, opcode, database id, n, dim (two varint bytes),
	// nassign, one byte per cluster below 128, the tag flag, checksum.
	header := 1 + 4 + 1 + 1 + 1 + 2 + 1 + churnSizeBurst + 1 + 4
	if got, want := len(e.JournalBytes()), header+churnSizeBurst*(32+256+2+512); got != want {
		t.Fatalf("a churn-size append frames to %d bytes, want %d", got, want)
	}
}

// TestReplayRefusesRecordOfAnotherDim: a journal of a dim-256 database —
// a delete, then an append — replayed onto a dim-128 deploy is refused
// with errQueryDims, the sentinel a live append of the wrong dim gets,
// before anything is applied: the delete, which alone would apply, is
// not, and the host's search results and journal stay as they were.
func TestReplayRefusesRecordOfAnotherDim(t *testing.T) {
	src := newChurnSizeHost(t)
	t.Cleanup(func() { src.Close() })
	mustSubmit(t, src, HostCommand{Opcode: OpcodeDelete, DBID: 1, Del: &DeleteConfig{IDs: []int{3}}})
	mustSubmit(t, src, churnSizeAppend(0))
	jl := src.JournalBytes()

	h := newJournalHost(t, 1)
	t.Cleanup(func() { h.Close() })
	runMutScript(t, h, newMutCorpus(), true, 0.9)
	before := mustSubmit(t, h, mutSearchCmd(true)).Results
	journal := h.JournalBytes()
	err := h.ReplayJournal(jl)
	if !errors.Is(err, errQueryDims) {
		t.Fatalf("replaying a dim-256 journal onto a dim-128 database: %v, want errQueryDims", err)
	}
	if got := mustSubmit(t, h, mutSearchCmd(true)).Results; !reflect.DeepEqual(got, before) {
		t.Fatal("a refused replay changed the search results")
	}
	if !bytes.Equal(h.JournalBytes(), journal) {
		t.Fatal("a refused replay changed the journal")
	}
}

// BenchmarkJournal times the journal layer on churn_mixed's shapes.
// append logs one churn-size append frame per op into a log restarted
// every 1,024 frames, so B/op is the log's growth per frame; replay
// replays a 160-round churn journal onto a fresh deploy per op (the
// deploy untimed). Both report the frame size in B/frame.
func BenchmarkJournal(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		e := newChurnSizeHost(b)
		defer e.Close()
		db, err := e.hostDB(1)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := encodeAppend(db.lay, churnSizeAppend(0).Append)
		if err != nil {
			b.Fatal(err)
		}
		var j journal
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%1024 == 0 {
				j = journal{frame: j.frame}
			}
			j.logAppend(1, rec)
		}
		b.ReportMetric(float64(len(j.frame)), "B/frame")
	})
	b.Run("replay", func(b *testing.B) {
		const rounds = 160
		src := newChurnSizeHost(b)
		runChurnRounds(b, src, rounds)
		jl := src.JournalBytes()
		src.Close()
		offs, err := journalOffsets(jl)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			e := newChurnSizeHost(b)
			b.StartTimer()
			if err := e.ReplayJournal(jl); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(len(jl))/float64(len(offs)-1), "B/frame")
	})
}

// TestJournalAllocatesWhatItKeeps: logging 1,000 appends of a
// churn_mixed round's size (16 encoded entries of 256 dimensions — a
// 32-byte binary code and a 256-byte INT8 copy each — and a 512-byte
// document, about 12.6 KiB a frame) allocates no more than the log
// holds, plus its last chunk's unused room, a chunk of slack and the
// scratch frame. A log that regrows one slice copies itself on every
// regrowth and allocates several times its length.
func TestJournalAllocatesWhatItKeeps(t *testing.T) {
	const n, dim, docBytes, appends = 16, 256, 512, 1000
	rec := &appendRecord{dim: dim, codes: make([]byte, n*dim/8), int8s: make([]byte, n*dim), docs: make([][]byte, n), assign: make([]int, n)}
	for k := range rec.codes {
		rec.codes[k] = byte(k * 7)
	}
	for k := range rec.int8s {
		rec.int8s[k] = byte(k * 3)
	}
	for i := range n {
		rec.docs[i] = bytes.Repeat([]byte{byte(i)}, docBytes)
		rec.assign[i] = i
	}
	var j journal
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range appends {
		j.logAppend(1, rec)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(j.size() + 2*journalChunk + cap(j.frame))
	t.Logf("%d appends: %d-byte log, %d bytes allocated (limit %d)", appends, j.size(), got, limit)
	if got > limit {
		t.Fatalf("logging %d appends allocated %d bytes for a %d-byte log, limit %d", appends, got, j.size(), limit)
	}
}
