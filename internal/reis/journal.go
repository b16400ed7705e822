package reis

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"reis/internal/vecmath"
)

// The mutation journal is the durability half of online mutability: an
// append-only byte log of every committed mutation command, written
// under the host's execution lock in exactly the order the commands
// were applied. Deploys are not journaled — recovery re-deploys from
// the (immutable) deploy configuration, then replays the journal, and
// the determinism of the mutation path guarantees the rebuilt state is
// bit-identical to the pre-crash one. Because background GC holds back
// later mutations on a database until its compaction flight completes
// (queue.go), journal order equals application order even with the
// collector interleaving searches.
//
// Record format (all integers little-endian, uvarint = unsigned
// varint as in encoding/binary):
//
//	frame   := version:u8 len:u32 record[len] crc:u32
//	record  := opcode:u8 dbid:uvarint body
//	append  := n:uvarint dim:uvarint codes[n*w] int8s[n*dim]
//	           { doclen:uvarint docbytes }*n
//	           nassign:uvarint { cluster:uvarint }*nassign
//	           tags:u8 { tag:u8 }*n        (tags=1 iff the items are tagged)
//	delete  := nids:uvarint { id:uvarint }*nids
//	compact := minLiveRatio:f64bits
//
// An append carries its encoded record (appendRecord), the bytes the
// device stores and nothing else: item i's packed binary code, w =
// 8·⌈dim/64⌉ bytes, and its INT8 rerank copy, dim bytes, each run of
// items back to back, then the documents, cluster assignments and tags.
// No float32 vector is logged: the device never keeps one (DESIGN.md,
// "database layout"), and replay programs the logged bytes through the
// same apply path as the live append, so it is bit-exact by
// construction. Replay refuses a record whose dim or widths are not its
// database's before it applies anything (ReplayJournal).
//
// version is journalVersion, and crc the CRC-32C (Castagnoli) of the
// frame's version, len and record bytes, so a replay refuses a frame of
// another format and a frame any bit of which flipped — a record that
// decodes is not enough, since a flipped bit inside an append's codes,
// INT8 copies or documents still decodes, into a different corpus. Any
// prefix of the log that ends on a frame boundary is a valid journal —
// the crash-recovery oracle cuts at every boundary (see journalOffsets)
// and replays the prefix on a fresh deploy.
//
// Version 2 replaced version 1, whose appends carried the float32
// vectors instead (two thirds of a 256-dim append's frame). No version-1
// decoder is kept: the host keeps its journal in memory and this module
// persists none (the fuzz corpora are op scripts, not logs), and the
// version byte refuses a version-1 frame with an error that names both
// versions.
//
// The log is kept in chunks of journalChunk bytes, every one full but
// the last, so it grows without copying what it holds; a frame may span
// two chunks or more. A frame is built in a scratch buffer the journal
// reuses, because its length patch and checksum need it contiguous, and
// the sealed frame is then copied onto the chunks.
type journal struct {
	chunks [][]byte
	frame  []byte
}

// journalVersion is the frame format this package writes and replays.
const journalVersion = 2

// journalChunk is the size of a journal chunk.
const journalChunk = 64 << 10

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// open starts a frame in the scratch buffer: the version and a length
// seal fills in.
func (j *journal) open() {
	j.frame = append(j.frame[:0], journalVersion, 0, 0, 0, 0)
}

// seal closes the open frame — its record's length, then the checksum
// of everything before it — and appends it to the log.
func (j *journal) seal() {
	binary.LittleEndian.PutUint32(j.frame[1:], uint32(len(j.frame)-5))
	j.frame = binary.LittleEndian.AppendUint32(j.frame, crc32.Checksum(j.frame, journalCRC))
	for p := j.frame; len(p) > 0; {
		last := len(j.chunks) - 1
		if last < 0 || len(j.chunks[last]) == journalChunk {
			j.chunks = append(j.chunks, make([]byte, 0, journalChunk))
			last++
		}
		c := j.chunks[last]
		n := min(len(p), journalChunk-len(c))
		j.chunks[last], p = append(c, p[:n]...), p[n:]
	}
}

// size is the log's length in bytes.
func (j *journal) size() int {
	if len(j.chunks) == 0 {
		return 0
	}
	return (len(j.chunks)-1)*journalChunk + len(j.chunks[len(j.chunks)-1])
}

// bytes returns the log in one exact-size allocation.
func (j *journal) bytes() []byte {
	out := make([]byte, 0, j.size())
	for _, c := range j.chunks {
		out = append(out, c...)
	}
	return out
}

func (j *journal) u8(v uint8)       { j.frame = append(j.frame, v) }
func (j *journal) uvarint(v uint64) { j.frame = binary.AppendUvarint(j.frame, v) }
func (j *journal) f64(v float64) {
	j.frame = binary.LittleEndian.AppendUint64(j.frame, math.Float64bits(v))
}

// logAppend records one committed append, in the encoded form it was
// applied in. The caller holds the host's execution lock.
func (j *journal) logAppend(dbID int, rec *appendRecord) {
	n := len(rec.docs)
	// Reserve the whole frame up front — version, length, opcode, tag
	// byte and checksum, at most 4 + n + nassign varints, the codes, INT8
	// copies, documents and tags: a scratch grown value by value would
	// allocate several times its size the first time an append is larger
	// than any before it.
	size := 11 + (4+n+len(rec.assign))*binary.MaxVarintLen64 + len(rec.codes) + len(rec.int8s) + len(rec.tags)
	for _, d := range rec.docs {
		size += len(d)
	}
	j.open()
	defer j.seal()
	j.frame = slices.Grow(j.frame, size)
	j.u8(OpcodeAppend)
	j.uvarint(uint64(dbID))
	j.uvarint(uint64(n))
	j.uvarint(uint64(rec.dim))
	j.frame = append(j.frame, rec.codes...)
	j.frame = append(j.frame, rec.int8s...)
	for _, d := range rec.docs {
		j.uvarint(uint64(len(d)))
		j.frame = append(j.frame, d...)
	}
	j.uvarint(uint64(len(rec.assign)))
	for _, c := range rec.assign {
		j.uvarint(uint64(c))
	}
	if rec.tags != nil {
		j.u8(1)
		j.frame = append(j.frame, rec.tags...)
	} else {
		j.u8(0)
	}
}

func (j *journal) logDelete(dbID int, ids []int) {
	j.open()
	defer j.seal()
	j.u8(OpcodeDelete)
	j.uvarint(uint64(dbID))
	j.uvarint(uint64(len(ids)))
	for _, id := range ids {
		j.uvarint(uint64(id))
	}
}

func (j *journal) logCompact(dbID int, minLiveRatio float64) {
	j.open()
	defer j.seal()
	j.u8(OpcodeCompact)
	j.uvarint(uint64(dbID))
	j.f64(minLiveRatio)
}

// journalReader decodes records back into host commands.
type journalReader struct {
	data []byte
	pos  int
}

func (r *journalReader) u8() (uint8, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("reis: truncated journal record at offset %d", r.pos)
	}
	v := r.data[r.pos]
	r.pos++
	return v, nil
}

func (r *journalReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("reis: bad journal varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *journalReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("reis: truncated journal record at offset %d (need %d bytes)", r.pos, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// next checks the frame starting at the reader's position and decodes
// its record. The returned command aliases the journal bytes (an
// append's codes, INT8 copies, documents and tags); the mutation path
// copies what it stores.
func (r *journalReader) next() (HostCommand, error) {
	start := r.pos
	version, err := r.u8()
	if err != nil {
		return HostCommand{}, err
	}
	if version != journalVersion {
		return HostCommand{}, fmt.Errorf("reis: journal frame at offset %d has format version %d, want %d", start, version, journalVersion)
	}
	n, err := r.bytes(4)
	if err != nil {
		return HostCommand{}, err
	}
	if _, err := r.bytes(int(binary.LittleEndian.Uint32(n))); err != nil {
		return HostCommand{}, err
	}
	end := r.pos
	sum, err := r.bytes(4)
	if err != nil {
		return HostCommand{}, err
	}
	if crc32.Checksum(r.data[start:end], journalCRC) != binary.LittleEndian.Uint32(sum) {
		return HostCommand{}, fmt.Errorf("reis: journal frame at offset %d fails its checksum", start)
	}
	rec := journalReader{data: r.data[:end], pos: start + 5}
	cmd, err := rec.record()
	if err == nil && rec.pos != end {
		err = fmt.Errorf("reis: journal record at offset %d ends %d bytes before its frame", start+5, end-rec.pos)
	}
	return cmd, err
}

// record decodes the record starting at the reader's position.
func (r *journalReader) record() (HostCommand, error) {
	op, err := r.u8()
	if err != nil {
		return HostCommand{}, err
	}
	dbID, err := r.uvarint()
	if err != nil {
		return HostCommand{}, err
	}
	cmd := HostCommand{Opcode: op, DBID: int(dbID)}
	switch op {
	case OpcodeAppend:
		rec, err := r.appendRecord()
		if err != nil {
			return HostCommand{}, err
		}
		cmd.Append = &AppendConfig{rec: rec}
	case OpcodeDelete:
		nids, err := r.uvarint()
		if err != nil {
			return HostCommand{}, err
		}
		ids := make([]int, nids)
		for i := range ids {
			id, err := r.uvarint()
			if err != nil {
				return HostCommand{}, err
			}
			ids[i] = int(id)
		}
		cmd.Del = &DeleteConfig{IDs: ids}
	case OpcodeCompact:
		raw, err := r.bytes(8)
		if err != nil {
			return HostCommand{}, err
		}
		cmd.Compact = &CompactConfig{MinLiveRatio: math.Float64frombits(binary.LittleEndian.Uint64(raw))}
	default:
		return HostCommand{}, fmt.Errorf("reis: unknown journal opcode %#x at offset %d", op, r.pos-1)
	}
	return cmd, nil
}

// appendRecord decodes an append's body. The record aliases the journal
// bytes; mutAppend copies what it stores.
func (r *journalReader) appendRecord() (*appendRecord, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	dim, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every item holds at least a byte (its document length) and, with
	// n > 0, dim bytes of INT8 copy: larger counts overrun the frame,
	// and bounding them keeps the widths below from overflowing.
	if rem := uint64(len(r.data) - r.pos); n > rem || dim > math.MaxInt32 || (n > 0 && dim > rem) {
		return nil, fmt.Errorf("reis: journal append of %d items of dim %d overruns its frame at offset %d", n, dim, r.pos)
	}
	rec := &appendRecord{dim: int(dim), docs: make([][]byte, n)}
	if rec.codes, err = r.bytes(int(n) * vecmath.WordsPerVector(rec.dim) * 8); err != nil {
		return nil, err
	}
	if rec.int8s, err = r.bytes(int(n) * rec.dim); err != nil {
		return nil, err
	}
	for i := range rec.docs {
		dl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if rec.docs[i], err = r.bytes(int(dl)); err != nil {
			return nil, err
		}
	}
	nassign, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nassign > uint64(len(r.data)-r.pos) {
		return nil, fmt.Errorf("reis: journal append of %d assignments overruns its frame at offset %d", nassign, r.pos)
	}
	if nassign > 0 {
		rec.assign = make([]int, nassign)
		for i := range rec.assign {
			c, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			rec.assign[i] = int(c)
		}
	}
	tagged, err := r.u8()
	if err != nil {
		return nil, err
	}
	if tagged != 0 {
		if rec.tags, err = r.bytes(int(n)); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// journalOffsets returns every valid prefix length of a journal: 0,
// then the end offset of each frame. The crash-recovery tests cut the
// log at each of these and replay the prefix.
func journalOffsets(data []byte) ([]int, error) {
	offs := []int{0}
	r := &journalReader{data: data}
	for r.pos < len(data) {
		if _, err := r.next(); err != nil {
			return nil, err
		}
		offs = append(offs, r.pos)
	}
	return offs, nil
}
