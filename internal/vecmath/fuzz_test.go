package vecmath

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// FuzzXorPopCountSlots checks the two-latch page kernel against a naive
// per-byte reference: the whole-buffer XOR must equal a ^ b everywhere,
// every requested slot's fail-bit count must equal the byte-wise Hamming
// distance of that slot, and aliasing dst over a must not change either. The committed
// seed corpus (testdata/fuzz) covers word-aligned and ragged slot
// sizes, zero-slot calls and full-page scans.
func FuzzXorPopCountSlots(f *testing.F) {
	f.Add([]byte("pages of packed binary embeddings"), []byte("query broadcast into the latches"), 8, 0, 3)
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55, 0x0F, 0xF0, 0x99, 0x66, 0x01}, []byte{0x00, 0xFF, 0x55, 0xAA, 0xF0, 0x0F, 0x66, 0x99, 0x80}, 3, 1, 2)
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6}, 1, 0, 0)
	f.Add(bytes.Repeat([]byte{0xC3}, 64), bytes.Repeat([]byte{0x3C}, 64), 16, 2, 1)
	f.Fuzz(func(t *testing.T, a, b []byte, slotBytes, firstSlot, nSlots int) {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		sb := 1 + abs(slotBytes)%17 // 1..17: word-aligned and ragged tails
		maxSlots := n / sb
		fs, ns := 0, 0
		if maxSlots > 0 {
			fs = abs(firstSlot) % maxSlots
			ns = abs(nSlots) % (maxSlots - fs + 1)
		}
		dst := make([]byte, n)
		dists := make([]int, ns)
		XorPopCountSlots(dst, a, b, sb, fs, ns, dists)

		for i := range dst {
			if dst[i] != a[i]^b[i] {
				t.Fatalf("dst[%d] = %#x, want %#x (slotBytes=%d first=%d n=%d)",
					i, dst[i], a[i]^b[i], sb, fs, ns)
			}
		}
		for s := 0; s < ns; s++ {
			want := 0
			for i := (fs + s) * sb; i < (fs+s+1)*sb; i++ {
				want += bits.OnesCount8(a[i] ^ b[i])
			}
			if dists[s] != want {
				t.Fatalf("slot %d dist = %d, want %d (slotBytes=%d first=%d n=%d)",
					s, dists[s], want, sb, fs, ns)
			}
		}

		// Aliasing: dst may be a itself (the in-place latch XOR).
		alias := append([]byte(nil), a...)
		dists2 := make([]int, ns)
		XorPopCountSlots(alias, alias, b, sb, fs, ns, dists2)
		if !bytes.Equal(alias, dst) {
			t.Fatalf("aliased XOR differs from out-of-place result")
		}
		for s := range dists2 {
			if dists2[s] != dists[s] {
				t.Fatalf("aliased slot %d dist = %d, want %d", s, dists2[s], dists[s])
			}
		}
	})
}

// FuzzXorPopCountPattern checks the pattern kernel behind GEN_DIST_PAGE
// against XorPopCountSlots run on the pattern replicated into every slot
// (zero-padded): the same distance for every requested slot, over any
// slot range of the page, with patterns shorter than the slot and slot
// widths that are not a multiple of 8 — wider than the kernel's loaded
// pattern words too. The page must be left as it was.
func FuzzXorPopCountPattern(f *testing.F) {
	f.Add([]byte("pages of packed binary embeddings, a cluster per page"), []byte("query"), 8, 1, 4)
	f.Add(bytes.Repeat([]byte{0x5A, 0xC3, 0x0F}, 90), bytes.Repeat([]byte{0xFF}, 70), 70, 0, 3)
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55, 0x0F, 0xF0, 0x99}, []byte{}, 3, 1, 1)
	f.Add(bytes.Repeat([]byte{0x81}, 512), bytes.Repeat([]byte{0x7E}, 32), 32, 3, 0)
	f.Fuzz(func(t *testing.T, page, pattern []byte, slotBytes, firstSlot, nSlots int) {
		sb := 1 + abs(slotBytes)%97 // 1..97: ragged, word-aligned, past 64 bytes
		pattern = pattern[:min(len(pattern), sb)]
		maxSlots := len(page) / sb
		fs, ns := 0, 0
		if maxSlots > 0 {
			fs = abs(firstSlot) % maxSlots
			ns = abs(nSlots) % (maxSlots - fs + 1)
		}
		rep := make([]byte, len(page))
		for off := 0; off+sb <= len(page); off += sb {
			copy(rep[off:], pattern)
		}
		want := make([]int, ns)
		XorPopCountSlots(make([]byte, len(page)), page, rep, sb, fs, ns, want)

		before := bytes.Clone(page)
		got := make([]int, ns)
		XorPopCountPattern(page, pattern, sb, fs, ns, got)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("slot %d dist = %d, replicated pattern gives %d (slotBytes=%d pattern=%d first=%d n=%d)",
					fs+s, got[s], want[s], sb, len(pattern), fs, ns)
			}
		}
		if !bytes.Equal(page, before) {
			t.Fatal("the kernel wrote to the page")
		}
	})
}

// FuzzL2SquaredBelow checks the early-abandoning distance against
// L2Squared: below the bound it must return L2Squared's exact bits, and
// when it reports the bound reached, L2Squared must not be below the
// bound either (it is >= bound, or NaN). a and b are read as
// little-endian float32 bits, so ragged dimensions, ±0, denormals,
// infinities and NaNs all occur. pick moves the bound onto the exact
// distance, one float either side of it, or a partial sum, so the
// boundary comparisons are exercised and not only far-off bounds. The
// committed seed corpus (testdata/fuzz) covers ragged dims, signed
// zeros and a bound equal to the distance.
//
// The margin seeds put the bound one float either side of the serial
// sum at dims 15, 16, 17, 256 and 1024 on vectors whose serial and
// interleaved sums differ: a leading term of 1 absorbs every later
// 2⁻²⁶ in the serial sum, while the other partial sums collect them, so
// the interleaved sum lies above the bound just over the serial one. A
// kernel that rejected on the interleaved sum without the rounding
// margin fails them. Others cancel heavily (large, nearly equal
// components) or carry subnormal, huge, infinite and NaN terms.
func FuzzL2SquaredBelow(f *testing.F) {
	f.Add(floatBytes(1, 2, 3, 4, 5), floatBytes(0.5, -2, 3.25, 0, 9), float32(10), uint8(0))
	f.Add(floatBytes(0, float32(math.Copysign(0, -1)), 0), floatBytes(float32(math.Copysign(0, -1)), 0, 0), float32(0), uint8(1))
	f.Add(bytes.Repeat(floatBytes(0.25, -0.75, 1.5), 23), bytes.Repeat(floatBytes(-0.5, 0.125, 1), 23), float32(1), uint8(4))
	f.Add(floatBytes(3e19, 1), floatBytes(-3e19, 0), float32(math.Inf(1)), uint8(0))
	f.Add(floatBytes(float32(math.NaN()), 1), floatBytes(0, 1), float32(5), uint8(0))
	for _, n := range []int{15, 16, 17, 256, 1024} {
		absorb := make([]float32, n)
		absorb[0] = 1
		for i := 1; i < n; i++ {
			absorb[i] = 0x1p-13 // its square, 2⁻²⁶, is under half an ulp of 1
		}
		cancel, near := make([]float32, n), make([]float32, n)
		for i := range cancel {
			cancel[i] = 1e6 + float32(i%7)*0.0625
			near[i] = math.Nextafter32(cancel[i], float32(i%3)-1)
		}
		for _, pick := range []uint8{2, 3} { // one float above, one below
			f.Add(floatBytes(absorb...), floatBytes(make([]float32, n)...), float32(0), pick)
			f.Add(floatBytes(cancel...), floatBytes(near...), float32(0), pick)
		}
	}
	tiny, huge := make([]float32, 64), make([]float32, 64)
	for i := range tiny {
		tiny[i] = float32(i) * 0x1p-70 // squares underflow to subnormals or zero
		huge[i] = float32(i%5) * 4e18  // squares near the top of the range; the sum overflows
	}
	f.Add(floatBytes(tiny...), floatBytes(make([]float32, 64)...), float32(0), uint8(2))
	f.Add(floatBytes(tiny...), floatBytes(make([]float32, 64)...), float32(0), uint8(3))
	f.Add(floatBytes(huge...), floatBytes(make([]float32, 64)...), float32(0), uint8(3))
	f.Add(floatBytes(huge...), floatBytes(make([]float32, 64)...), float32(math.MaxFloat32), uint8(0))
	inf := slices.Clone(huge)
	inf[40] = float32(math.Inf(-1))
	f.Add(floatBytes(inf...), floatBytes(make([]float32, 64)...), float32(math.MaxFloat32), uint8(0))
	nan := slices.Clone(tiny)
	nan[33] = float32(math.NaN())
	f.Add(floatBytes(nan...), floatBytes(make([]float32, 64)...), float32(1), uint8(0))
	f.Fuzz(func(t *testing.T, ab, bb []byte, bound float32, pick uint8) {
		n := min(len(ab), len(bb)) / 4
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(ab[4*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(bb[4*i:]))
		}
		full := L2Squared(a, b)
		switch pick % 5 {
		case 1:
			bound = full
		case 2:
			bound = math.Nextafter32(full, float32(math.Inf(1)))
		case 3:
			bound = math.Nextafter32(full, float32(math.Inf(-1)))
		case 4:
			bound = L2Squared(a[:n/2], b[:n/2])
		}
		sum, below := L2SquaredBelow(a, b, bound)
		if below {
			if math.Float32bits(sum) != math.Float32bits(full) || !(full < bound) {
				t.Fatalf("below bound %v: sum %v (%#x), L2Squared %v (%#x), dim %d",
					bound, sum, math.Float32bits(sum), full, math.Float32bits(full), n)
			}
		} else if full < bound {
			t.Fatalf("abandoned at %v against bound %v, but L2Squared %v is below it, dim %d",
				sum, bound, full, n)
		}
	})
}

// floatBytes encodes vs as little-endian float32 bits.
func floatBytes(vs ...float32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
