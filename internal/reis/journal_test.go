package reis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
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
// append's frame and every bit of its header — its vectors and
// documents decode whatever they hold, so only the checksum tells — and
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
	j.seal(j.open())
	j.buf = append(j.buf[:5], 0xFF, 1)
	binary.LittleEndian.PutUint32(j.buf[1:], 2)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(j.buf, journalCRC))
	rejected("an unknown opcode", j.buf, true)

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
	// Replay too refuses a flip inside the append's vectors, the bytes
	// that decode into a different corpus.
	rejected("a flipped vector bit", flip(jl, (offs[first]+5+8)*8+3), true)
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
