package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"reis/internal/xrand"
)

func randVec(r *xrand.RNG, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestL2SquaredBasic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L2Squared(a, b); got != 25 {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
}

func TestL2SquaredZeroForIdentical(t *testing.T) {
	r := xrand.New(1)
	v := randVec(r, 128)
	if got := L2Squared(v, v); got != 0 {
		t.Fatalf("L2Squared(v,v) = %v, want 0", got)
	}
}

func TestL2SquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	L2Squared([]float32{1}, []float32{1, 2})
}

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotSymmetry(t *testing.T) {
	r := xrand.New(2)
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed) ^ r.Uint64())
		a, b := randVec(rr, 64), randVec(rr, 64)
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormAndNormalize(t *testing.T) {
	v := []float32{3, 4}
	if got := norm(v); got != 5 {
		t.Fatalf("norm = %v, want 5", got)
	}
	Normalize(v)
	if n := norm(v); math.Abs(float64(n)-1) > 1e-6 {
		t.Fatalf("norm after Normalize = %v, want 1", n)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []float32{0, 0, 0}
	Normalize(v) // must not produce NaN
	for _, x := range v {
		if x != 0 {
			t.Fatalf("zero vector changed: %v", v)
		}
	}
}

func TestBinaryQuantizeSigns(t *testing.T) {
	v := []float32{1, -1, 0.5, 0, -0.1, 2}
	q := BinaryQuantize(v, nil)
	want := uint64(0b100101) // bits 0,2,5 set (positive components)
	if q[0] != want {
		t.Fatalf("BinaryQuantize = %b, want %b", q[0], want)
	}

	// Every special value and random bit patterns, over a ragged length
	// and into a dirty buffer: bit i is set iff v[i] > 0.
	special := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000), // ±NaN
		math.Float32frombits(0x7F800001), math.Float32frombits(0xFF800001),
	}
	r := xrand.New(12)
	v = append([]float32(nil), special...)
	for len(v) < 135 {
		v = append(v, math.Float32frombits(uint32(r.Uint64())))
	}
	dirty := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	q = BinaryQuantize(v, dirty)
	for i, x := range v {
		if got := q[i>>6]>>(i&63)&1 == 1; got != (x > 0) {
			t.Fatalf("v[%d] = %v (%#08x): bit %v, want %v", i, x, math.Float32bits(x), got, x > 0)
		}
	}
	if q[2]>>(135-128) != 0 {
		t.Fatalf("trailing bits not zero: %b", q[2])
	}
}

func TestBinaryQuantizeTrailingBitsZero(t *testing.T) {
	v := make([]float32, 70)
	for i := range v {
		v[i] = 1
	}
	q := BinaryQuantize(v, nil)
	if len(q) != 2 {
		t.Fatalf("words = %d, want 2", len(q))
	}
	if q[1]>>6 != 0 {
		t.Fatalf("trailing bits not zero: %b", q[1])
	}
}

func TestBinaryQuantizeReusesBuffer(t *testing.T) {
	buf := make([]uint64, 4)
	v := []float32{1, -1}
	q := BinaryQuantize(v, buf)
	if &q[0] != &buf[0] {
		t.Fatal("buffer was not reused")
	}
}

func TestHammingSelfZero(t *testing.T) {
	r := xrand.New(3)
	q := BinaryQuantize(randVec(r, 256), nil)
	if d := Hamming(q, q); d != 0 {
		t.Fatalf("Hamming(q,q) = %d", d)
	}
}

func TestHammingKnown(t *testing.T) {
	a := []uint64{0b1010, 0xffffffffffffffff}
	b := []uint64{0b0110, 0x0}
	if d := Hamming(a, b); d != 2+64 {
		t.Fatalf("Hamming = %d, want 66", d)
	}
}

func TestHammingTriangleInequality(t *testing.T) {
	r := xrand.New(4)
	for trial := 0; trial < 50; trial++ {
		a := BinaryQuantize(randVec(r, 192), nil)
		b := BinaryQuantize(randVec(r, 192), nil)
		c := BinaryQuantize(randVec(r, 192), nil)
		if Hamming(a, c) > Hamming(a, b)+Hamming(b, c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestHammingSymmetric(t *testing.T) {
	r := xrand.New(5)
	a := BinaryQuantize(randVec(r, 128), nil)
	b := BinaryQuantize(randVec(r, 128), nil)
	if Hamming(a, b) != Hamming(b, a) {
		t.Fatal("Hamming not symmetric")
	}
}

func TestHammingApproximatesAngle(t *testing.T) {
	// For unit vectors the expected normalized Hamming distance is
	// theta/pi; check that closer float vectors get smaller Hamming
	// distance on average. This is the property that makes BQ viable
	// for ANNS (Sec 4.3 of the paper).
	r := xrand.New(6)
	const dim = 1024
	base := randVec(r, dim)
	Normalize(base)
	near := make([]float32, dim)
	far := randVec(r, dim)
	for i := range near {
		near[i] = base[i] + 0.1*float32(r.NormFloat64())
	}
	qb := BinaryQuantize(base, nil)
	qn := BinaryQuantize(near, nil)
	qf := BinaryQuantize(far, nil)
	if Hamming(qb, qn) >= Hamming(qb, qf) {
		t.Fatalf("near Hamming %d >= far Hamming %d", Hamming(qb, qn), Hamming(qb, qf))
	}
}

func TestInt8QuantizeRoundTripError(t *testing.T) {
	r := xrand.New(7)
	v := randVec(r, 512)
	p := ComputeInt8Params([][]float32{v})
	q := p.Int8Quantize(v, nil)
	for i := range v {
		back := float32(q[i]) * p.Scale
		if math.Abs(float64(back-v[i])) > float64(p.Scale)/2+1e-6 {
			t.Fatalf("component %d: %v -> %d -> %v exceeds half-step error", i, v[i], q[i], back)
		}
	}
}

func TestInt8QuantizeClamps(t *testing.T) {
	p := Int8Params{Scale: 0.01}
	q := p.Int8Quantize([]float32{100, -100}, nil)
	if q[0] != 127 || q[1] != -127 {
		t.Fatalf("clamp failed: %v", q)
	}
}

func TestComputeInt8ParamsZeroSample(t *testing.T) {
	p := ComputeInt8Params([][]float32{{0, 0}})
	if p.Scale <= 0 {
		t.Fatalf("scale = %v, want > 0", p.Scale)
	}
	// −0 is no larger than 0 and NaN never compares larger: both leave
	// the scale to the other components.
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	for _, c := range []struct {
		sample [][]float32
		want   float32
	}{
		{[][]float32{{negZero, nan}}, float32(1) / 127},
		{[][]float32{{nan, -3}, {2, float32(math.Copysign(math.NaN(), -1))}}, float32(3) / 127},
		{[][]float32{{float32(math.Inf(-1)), 1}}, float32(math.Inf(1))},
	} {
		if got := ComputeInt8Params(c.sample).Scale; got != c.want {
			t.Fatalf("ComputeInt8Params(%v).Scale = %v, want %v", c.sample, got, c.want)
		}
	}
}

func TestL2SquaredInt8(t *testing.T) {
	a := []int8{0, 10}
	b := []int8{3, 6}
	if got := L2SquaredInt8(a, b); got != 9+16 {
		t.Fatalf("L2SquaredInt8 = %d, want 25", got)
	}
}

func TestInt8DotPreservesOrdering(t *testing.T) {
	// Quantized distances should preserve the ranking of clearly
	// separated candidates — the property reranking relies on.
	r := xrand.New(8)
	q := randVec(r, 1024)
	Normalize(q)
	near := make([]float32, len(q))
	copy(near, q)
	far := randVec(r, 1024)
	Normalize(far)
	p := ComputeInt8Params([][]float32{q, near, far})
	qq := p.Int8Quantize(q, nil)
	qn := p.Int8Quantize(near, nil)
	qf := p.Int8Quantize(far, nil)
	if L2SquaredInt8(qq, qn) >= L2SquaredInt8(qq, qf) {
		t.Fatal("INT8 L2 did not preserve ordering of near vs far")
	}
}

func TestBinaryBytesRoundTrip(t *testing.T) {
	f := func(a, b, c uint64) bool {
		v := []uint64{a, b, c}
		bts := PackBinaryBytes(v, nil)
		back := UnpackBinaryBytes(bts, nil)
		return back[0] == a && back[1] == b && back[2] == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInt8BytesRoundTrip: the packed form keeps every value, two's
// complement, and the distance over packed bytes equals L2SquaredInt8
// over the unpacked vector, extreme values included.
func TestInt8BytesRoundTrip(t *testing.T) {
	v := []int8{-128, -1, 0, 1, 127}
	bts := PackInt8Bytes(v, nil)
	for i := range v {
		if int8(bts[i]) != v[i] {
			t.Fatalf("packed byte %d reads %d, want %d", i, int8(bts[i]), v[i])
		}
	}
	for _, q := range [][]int8{{127, 127, 127, 127, 127}, {-128, -128, -128, -128, -128}, {3, -7, 0, 100, -100}} {
		if got, want := L2SquaredInt8Bytes(q, bts), L2SquaredInt8(q, v); got != want {
			t.Fatalf("L2SquaredInt8Bytes(%v) = %d, L2SquaredInt8 = %d", q, got, want)
		}
	}
}

func TestUnpackBinaryBytesPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	UnpackBinaryBytes(make([]byte, 7), nil)
}

func TestWordsPerVector(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 1024: 16}
	for dim, want := range cases {
		if got := WordsPerVector(dim); got != want {
			t.Errorf("WordsPerVector(%d) = %d, want %d", dim, got, want)
		}
	}
}

func BenchmarkL2Squared1024(b *testing.B) {
	r := xrand.New(9)
	x, y := randVec(r, 1024), randVec(r, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = L2Squared(x, y)
	}
}

func BenchmarkHamming1024(b *testing.B) {
	r := xrand.New(10)
	x := BinaryQuantize(randVec(r, 1024), nil)
	y := BinaryQuantize(randVec(r, 1024), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Hamming(x, y)
	}
}

func BenchmarkBinaryQuantize1024(b *testing.B) {
	v := randVec(xrand.New(11), 1024)
	dst := make([]uint64, WordsPerVector(len(v)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BinaryQuantize(v, dst)
	}
}
