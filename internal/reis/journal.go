package reis

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
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
//	append  := n:uvarint dim:uvarint vec[n*dim]:f32bits
//	           { doclen:uvarint docbytes }*n
//	           nassign:uvarint { cluster:uvarint }*nassign
//	           tags:u8 { tag:u8 }*n        (tags=1 iff MetaTags present)
//	delete  := nids:uvarint { id:uvarint }*nids
//	compact := minLiveRatio:f64bits
//
// version is journalVersion, and crc the CRC-32C (Castagnoli) of the
// frame's version, len and record bytes, so a replay refuses a frame of
// another format and a frame any bit of which flipped — a record that
// decodes is not enough, since a flipped bit inside an append's vectors
// or documents still decodes, into a different corpus. Any prefix of the
// log that ends on a frame boundary is a valid journal — the
// crash-recovery oracle cuts at every boundary (see journalOffsets) and
// replays the prefix on a fresh deploy.
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
const journalVersion = 1

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
func (j *journal) f32(v float32) {
	j.frame = binary.LittleEndian.AppendUint32(j.frame, math.Float32bits(v))
}
func (j *journal) f64(v float64) {
	j.frame = binary.LittleEndian.AppendUint64(j.frame, math.Float64bits(v))
}

// logCmd records one committed mutation command. The caller holds the
// host's execution lock and has already applied the command.
func (j *journal) logCmd(cmd *HostCommand) {
	switch cmd.Opcode {
	case OpcodeAppend:
		j.logAppend(cmd.DBID, cmd.Append)
	case OpcodeDelete:
		j.logDelete(cmd.DBID, cmd.Del.IDs)
	case OpcodeCompact:
		j.logCompact(cmd.DBID, cmd.Compact.MinLiveRatio)
	}
}

func (j *journal) logAppend(dbID int, cfg *AppendConfig) {
	n := len(cfg.Vectors)
	dim := 0
	if n > 0 {
		dim = len(cfg.Vectors[0])
	}
	// Reserve the whole frame up front — version, length, opcode, tag
	// byte and checksum, at most 4 + n + nassign varints, the vectors,
	// documents and tags: a scratch grown value by value would allocate
	// several times its size the first time an append is larger than any
	// before it.
	size := 11 + (4+len(cfg.Docs)+len(cfg.Assign))*binary.MaxVarintLen64 + n*dim*4 + len(cfg.MetaTags)
	for _, d := range cfg.Docs {
		size += len(d)
	}
	j.open()
	defer j.seal()
	j.frame = slices.Grow(j.frame, size)
	j.u8(OpcodeAppend)
	j.uvarint(uint64(dbID))
	j.uvarint(uint64(n))
	j.uvarint(uint64(dim))
	for _, v := range cfg.Vectors {
		for _, x := range v {
			j.f32(x)
		}
	}
	for _, d := range cfg.Docs {
		j.uvarint(uint64(len(d)))
		j.frame = append(j.frame, d...)
	}
	j.uvarint(uint64(len(cfg.Assign)))
	for _, c := range cfg.Assign {
		j.uvarint(uint64(c))
	}
	if cfg.MetaTags != nil {
		j.u8(1)
		j.frame = append(j.frame, cfg.MetaTags...)
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
// its record. The returned command aliases the journal bytes (documents,
// tags); the mutation path copies what it stores.
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
		n, err := r.uvarint()
		if err != nil {
			return HostCommand{}, err
		}
		dim, err := r.uvarint()
		if err != nil {
			return HostCommand{}, err
		}
		cfg := &AppendConfig{Vectors: make([][]float32, n), Docs: make([][]byte, n)}
		for i := range cfg.Vectors {
			raw, err := r.bytes(int(dim) * 4)
			if err != nil {
				return HostCommand{}, err
			}
			v := make([]float32, dim)
			for d := range v {
				v[d] = math.Float32frombits(binary.LittleEndian.Uint32(raw[d*4:]))
			}
			cfg.Vectors[i] = v
		}
		for i := range cfg.Docs {
			dl, err := r.uvarint()
			if err != nil {
				return HostCommand{}, err
			}
			if cfg.Docs[i], err = r.bytes(int(dl)); err != nil {
				return HostCommand{}, err
			}
		}
		nassign, err := r.uvarint()
		if err != nil {
			return HostCommand{}, err
		}
		if nassign > 0 {
			cfg.Assign = make([]int, nassign)
			for i := range cfg.Assign {
				c, err := r.uvarint()
				if err != nil {
					return HostCommand{}, err
				}
				cfg.Assign[i] = int(c)
			}
		}
		tagged, err := r.u8()
		if err != nil {
			return HostCommand{}, err
		}
		if tagged != 0 {
			if cfg.MetaTags, err = r.bytes(int(n)); err != nil {
				return HostCommand{}, err
			}
		}
		cmd.Append = cfg
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
