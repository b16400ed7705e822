// Package vecmath implements the vector kernels used by every retrieval
// component in this repository: float32 distance computations for exact
// search, binary quantization with Hamming distance for the in-storage
// ANNS engine (Sec 4.3 of the REIS paper), and INT8 quantization with
// integer squared distances for the reranking step (Sec 4.3.2).
//
// Embeddings are represented in three precisions:
//
//   - []float32  — full precision, used by host baselines and ground truth
//   - []uint64   — binary quantized (1 bit/dim, packed), used in-plane
//   - []int8     — INT8 quantized, used for reranking
//
// Binary quantization follows the standard sign rule (bit i is 1 iff
// component i > 0), giving the 32x compression the paper cites.
package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// WordsPerVector returns the number of uint64 words needed to store a
// binary-quantized vector of dim dimensions.
func WordsPerVector(dim int) int { return (dim + 63) / 64 }

// L2Squared returns the squared Euclidean distance between a and b,
// summing the terms in index order. Each term is rounded to float32
// before it is added (the explicit conversion forbids a fused
// multiply-add), so every summation order in this package adds the same
// terms. It panics if the lengths differ.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L2Squared dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum float32
	for i := range a {
		d := a[i] - b[i]
		sum += float32(d * d)
	}
	return sum
}

// L2Margin returns γ = (n+2)u/(1−(n+2)u), u = 2⁻²⁴: the relative error
// bound (Higham, "Accuracy and Stability of Numerical Algorithms", Lemma
// 3.1) on a float32 squared distance over n dimensions, summed in any
// order, against the exact one: each term carries the rounding of one
// subtraction and one product, and a sum of n non-negative terms at most
// n−1 roundings. A term that underflows is off by at most 2⁻¹⁵⁰ more,
// which the callers cover with an absolute n·2⁻¹⁴⁹. It returns +Inf once
// (n+2)u reaches 1/4, where the bound is useless.
func L2Margin(n int) float64 {
	nu := float64(n+2) * 0x1p-24
	if nu >= 0.25 {
		return math.Inf(1)
	}
	return nu / (1 - nu)
}

// l2CheckEvery is how many dimensions L2SquaredBelow sums between two
// comparisons against its bound.
const l2CheckEvery = 16

// L2SquaredBelow is L2Squared for a caller that only wants distances
// below bound. It returns L2Squared's exact bits and true when that
// distance is below bound, and false when it is not (it is >= bound, or
// NaN), with a partial sum that callers must not read as the distance.
//
// It rejects on four interleaved partial sums of the same float32 terms
// (independent add chains, not one serial one), checked every
// l2CheckEvery dimensions, and gives a candidate it cannot reject the
// serial sum. Rejection is proved, not guessed: both orders add the
// same non-negative terms, so each lies within a factor 1±γ of their
// exact sum T (γ = L2Margin(n) covers the n−1 additions), the partial
// sum P of a prefix is at most (1+γ)T and the serial sum S at least
// (1−γ)T. P ≥ bound·(1+γ)/(1−γ) therefore implies S ≥ bound; the
// comparison runs in float64 against bound·(1+4γ), which is larger. A
// partial sum that overflowed proves nothing and is never used to
// reject. It panics if the lengths differ.
func L2SquaredBelow(a, b []float32, bound float32) (float32, bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L2SquaredBelow dimension mismatch %d != %d", len(a), len(b)))
	}
	reject := float64(bound) * (1 + 4*L2Margin(len(a)))
	var s0, s1, s2, s3 float32
	for lo := 0; lo+l2CheckEvery <= len(a); lo += l2CheckEvery {
		as := (*[l2CheckEvery]float32)(a[lo:])
		bs := (*[l2CheckEvery]float32)(b[lo:])
		for j := 0; j < l2CheckEvery; j += 4 {
			d0, d1, d2, d3 := as[j]-bs[j], as[j+1]-bs[j+1], as[j+2]-bs[j+2], as[j+3]-bs[j+3]
			s0 += float32(d0 * d0)
			s1 += float32(d1 * d1)
			s2 += float32(d2 * d2)
			s3 += float32(d3 * d3)
		}
		if p := (s0 + s1) + (s2 + s3); float64(p) >= reject {
			if p > math.MaxFloat32 {
				break
			}
			return p, false
		}
	}
	sum := L2Squared(a, b)
	return sum, sum < bound
}

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum float32
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// norm returns the Euclidean norm of v.
func norm(v []float32) float32 {
	var sum float32
	for _, x := range v {
		sum += x * x
	}
	return float32(math.Sqrt(float64(sum)))
}

// Normalize scales v in place to unit norm. A zero vector is left
// unchanged.
func Normalize(v []float32) {
	n := norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// BinaryQuantize packs the sign bits of v into dst (bit i set iff
// v[i] > 0) and returns dst. If dst is nil or too short a new slice is
// allocated. The trailing bits of the final word are zero.
func BinaryQuantize(v []float32, dst []uint64) []uint64 {
	words := WordsPerVector(len(v))
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for w := range dst {
		// Shift each word's bits in from its last dimension down, so no
		// shift count varies.
		chunk := v[w*64 : min(w*64+64, len(v))]
		var word uint64
		for j := len(chunk) - 1; j >= 0; j-- {
			word = word<<1 | positiveBit(chunk[j])
		}
		dst[w] = word
	}
	return dst
}

// positiveBit is 1 if x > 0 and 0 otherwise (NaN and ±0 included),
// without a branch: x > 0 exactly when its bits minus one, as an
// unsigned number, lie below those of +Inf (0x7F800000), so the
// subtraction below borrows into bit 63.
func positiveBit(x float32) uint64 {
	return (uint64(math.Float32bits(x)-1) - 0x7F800000) >> 63
}

// Hamming returns the Hamming distance between two packed binary
// vectors. This is the operation REIS performs with the in-plane XOR
// between latches plus the fail-bit counter.
// It panics if the lengths differ.
func Hamming(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Hamming length mismatch %d != %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// xorBytes writes a XOR b into dst word-wise (8 bytes at a time with a
// byte tail). All three slices must have the same length; dst may alias
// a or b.
func xorBytes(dst, a, b []byte) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("vecmath: xorBytes length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// popCountBytes returns the number of set bits in b, word-wise.
func popCountBytes(b []byte) int {
	n := 0
	i := 0
	for ; i+8 <= len(b); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(b); i++ {
		n += bits.OnesCount8(b[i])
	}
	return n
}

// XorPopCountSlots is the page-granular GEN_DIST command over two whole
// latches: it computes dst = a XOR b over the whole buffers (one
// latch-to-latch XOR) and, in the same pass, runs the fail-bit counter
// over each of the nSlots slots of slotBytes bytes starting at
// slot firstSlot, writing the per-slot popcounts into dists[0:nSlots].
// Buffer lengths must match, the counted range must lie inside the
// buffers, and dists must hold nSlots values; dst may alias a or b.
// XorPopCountPattern computes the same distances without the latch
// bytes; this form is its fuzzer's reference.
func XorPopCountSlots(dst, a, b []byte, slotBytes, firstSlot, nSlots int, dists []int) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("vecmath: XorPopCountSlots length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	lo := firstSlot * slotBytes
	hi := lo + nSlots*slotBytes
	if slotBytes <= 0 || firstSlot < 0 || nSlots < 0 || hi > len(a) || len(dists) < nSlots {
		panic(fmt.Sprintf("vecmath: XorPopCountSlots bad range slot=%d n=%d slotBytes=%d len=%d dists=%d",
			firstSlot, nSlots, slotBytes, len(a), len(dists)))
	}
	xorBytes(dst[:lo], a[:lo], b[:lo])
	for s := 0; s < nSlots; s++ {
		o, e := lo+s*slotBytes, lo+(s+1)*slotBytes
		n := 0
		i := o
		for ; i+8 <= e; i += 8 {
			w := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
			binary.LittleEndian.PutUint64(dst[i:], w)
			n += bits.OnesCount64(w)
		}
		for ; i < e; i++ {
			dst[i] = a[i] ^ b[i]
			n += bits.OnesCount8(dst[i])
		}
		dists[s] = n
	}
	xorBytes(dst[hi:], a[hi:], b[hi:])
}

// XorPopCountPattern is the page kernel of the page-granular GEN_DIST
// command when the cache latch holds a broadcast pattern: for each of
// the nSlots slots of slotBytes bytes starting at slot firstSlot, it
// writes popcount(slot XOR pattern) into dists, where pattern is
// zero-padded to the slot width — the fail-bit count over the slot after
// a latch XOR with slot-aligned copies of pattern. Only the requested
// slots are read and nothing is written but dists. pattern must not be
// longer than a slot, the range must lie inside page, and dists must
// hold nSlots values.
//
// The pattern is walked in the outer loop and the slots in the inner
// one, so four pattern words stay in registers across every slot.
func XorPopCountPattern(page, pattern []byte, slotBytes, firstSlot, nSlots int, dists []int) {
	lo := firstSlot * slotBytes
	hi := lo + nSlots*slotBytes
	if slotBytes <= 0 || len(pattern) > slotBytes || firstSlot < 0 || nSlots < 0 || hi > len(page) || len(dists) < nSlots {
		panic(fmt.Sprintf("vecmath: XorPopCountPattern bad range slot=%d n=%d slotBytes=%d pattern=%d len=%d dists=%d",
			firstSlot, nSlots, slotBytes, len(pattern), len(page), len(dists)))
	}
	region := page[lo:hi]
	dists = dists[:nSlots]
	clear(dists)
	i := 0
	for ; i+32 <= len(pattern); i += 32 {
		p := pattern[i : i+32]
		p0, p1 := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
		p2, p3 := binary.LittleEndian.Uint64(p[16:]), binary.LittleEndian.Uint64(p[24:])
		for s := range dists {
			b := region[s*slotBytes+i : s*slotBytes+i+32]
			dists[s] += bits.OnesCount64(binary.LittleEndian.Uint64(b)^p0) +
				bits.OnesCount64(binary.LittleEndian.Uint64(b[8:])^p1) +
				bits.OnesCount64(binary.LittleEndian.Uint64(b[16:])^p2) +
				bits.OnesCount64(binary.LittleEndian.Uint64(b[24:])^p3)
		}
	}
	for ; i+8 <= len(pattern); i += 8 {
		p := binary.LittleEndian.Uint64(pattern[i:])
		for s := range dists {
			dists[s] += bits.OnesCount64(binary.LittleEndian.Uint64(region[s*slotBytes+i:]) ^ p)
		}
	}
	for ; i < len(pattern); i++ {
		p := pattern[i]
		for s := range dists {
			dists[s] += bits.OnesCount8(region[s*slotBytes+i] ^ p)
		}
	}
	if i < slotBytes { // the pattern's zero padding: the slot's own bits
		for s := range dists {
			dists[s] += popCountBytes(region[s*slotBytes+i : (s+1)*slotBytes])
		}
	}
}

// Int8Params hold the affine quantization parameters used to convert a
// float32 embedding to INT8 and to interpret INT8 distances. A single
// symmetric scale is used per dataset, matching the rerank scheme the
// paper adopts from Cohere-style INT8 embeddings.
type Int8Params struct {
	// Scale maps int8 value q back to float via q * Scale.
	Scale float32
}

// ComputeInt8Params derives a symmetric scale covering the maximum
// absolute component over the sample of vectors.
func ComputeInt8Params(sample [][]float32) Int8Params {
	var maxAbs float32
	for _, v := range sample {
		for _, x := range v {
			a := math.Float32frombits(math.Float32bits(x) &^ (1 << 31)) // |x|, NaN stays NaN
			if a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	return Int8Params{Scale: maxAbs / 127}
}

// Int8Quantize converts v to INT8 under p, writing into dst (allocated
// if nil or too short) and returning it. Values are clamped to
// [-127, 127].
func (p Int8Params) Int8Quantize(v []float32, dst []int8) []int8 {
	if cap(dst) < len(v) {
		dst = make([]int8, len(v))
	}
	dst = dst[:len(v)]
	inv := 1 / p.Scale
	for i, x := range v {
		q := math.Round(float64(x * inv))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return dst
}

// L2SquaredInt8 returns the squared Euclidean distance between two INT8
// vectors as an int32.
func L2SquaredInt8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L2SquaredInt8 dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum int32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		sum += d * d
	}
	return sum
}

// L2SquaredInt8Bytes is L2SquaredInt8 with b given in its packed form
// (PackInt8Bytes): the rerank's distance, read straight off the flash
// record with no unpack pass. The result is identical.
func L2SquaredInt8Bytes(a []int8, b []byte) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L2SquaredInt8Bytes dimension mismatch %d != %d", len(a), len(b)))
	}
	var sum int32
	for i := range a {
		d := int32(a[i]) - int32(int8(b[i]))
		sum += d * d
	}
	return sum
}

// PackBinaryBytes serializes a packed binary vector into bytes in
// little-endian word order; this is the on-flash layout of the binary
// embedding region.
func PackBinaryBytes(v []uint64, dst []byte) []byte {
	need := len(v) * 8
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	for i, w := range v {
		off := i * 8
		dst[off+0] = byte(w)
		dst[off+1] = byte(w >> 8)
		dst[off+2] = byte(w >> 16)
		dst[off+3] = byte(w >> 24)
		dst[off+4] = byte(w >> 32)
		dst[off+5] = byte(w >> 40)
		dst[off+6] = byte(w >> 48)
		dst[off+7] = byte(w >> 56)
	}
	return dst
}

// UnpackBinaryBytes deserializes bytes produced by PackBinaryBytes.
// len(b) must be a multiple of 8.
func UnpackBinaryBytes(b []byte, dst []uint64) []uint64 {
	if len(b)%8 != 0 {
		panic("vecmath: UnpackBinaryBytes length not a multiple of 8")
	}
	words := len(b) / 8
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for i := range dst {
		off := i * 8
		dst[i] = uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 |
			uint64(b[off+3])<<24 | uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
			uint64(b[off+6])<<48 | uint64(b[off+7])<<56
	}
	return dst
}

// PackInt8Bytes serializes an INT8 vector (two's complement bytes).
func PackInt8Bytes(v []int8, dst []byte) []byte {
	if cap(dst) < len(v) {
		dst = make([]byte, len(v))
	}
	dst = dst[:len(v)]
	for i, x := range v {
		dst[i] = byte(x)
	}
	return dst
}
