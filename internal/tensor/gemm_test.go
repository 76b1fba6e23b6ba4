package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randTensorOf[T Float](rng *rand.Rand, shape ...int) *TensorOf[T] {
	t := NewOf[T](shape...)
	for i := range t.Data() {
		t.Data()[i] = T(rng.NormFloat64())
	}
	return t
}

// stridedOperands is gemm's operand setup: the logical m, n, k and the
// two strided packSrcs for op(a)·op(b).
func stridedOperands[T Float](a, b *TensorOf[T], transA, transB bool) (m, n, k int, pa, pb packSrc[T]) {
	pa, pb = packSrc[T]{d: a.data}, packSrc[T]{d: b.data}
	if transA {
		k, m = a.Dim(0), a.Dim(1)
		pa.rs, pa.cs = 1, m
	} else {
		m, k = a.Dim(0), a.Dim(1)
		pa.rs, pa.cs = k, 1
	}
	if transB {
		n = b.Dim(0)
		pb.rs, pb.cs = 1, k
	} else {
		n = b.Dim(1)
		pb.rs, pb.cs = n, 1
	}
	return m, n, k, pa, pb
}

// withLanes runs f with the lane pool resized to n, restoring the previous
// capacity afterwards.
func withLanes(t *testing.T, n int, f func()) {
	t.Helper()
	old := MaxLanes()
	SetMaxLanes(n)
	defer SetMaxLanes(old)
	f()
}

func TestEnsureShape(t *testing.T) {
	a := New(3, 4)
	a.Fill(5)
	if got := EnsureShape(a, 3, 4); got != a {
		t.Fatal("EnsureShape must reuse an exact-shape tensor")
	}
	if a.Data()[0] != 5 {
		t.Fatal("EnsureShape must preserve reused contents")
	}
	b := EnsureShape(a, 4, 3)
	if b != a {
		t.Fatal("EnsureShape must reshape in place on a shape change that fits")
	}
	if b.Dim(0) != 4 || b.Dim(1) != 3 || b.Data()[0] != 0 {
		t.Fatal("EnsureShape reallocation must be zeroed with the new shape")
	}
	// A smaller shape, then the larger one again, keep the storage; one
	// past its capacity gets a fresh tensor and leaves t alone.
	b.Fill(5)
	if c := EnsureShape(EnsureShape(b, 1, 5), 2, 6); c != a || c.Len() != 12 || slices.ContainsFunc(c.Data(), func(v float64) bool { return v != 0 }) {
		t.Fatal("EnsureShape must reuse and zero the storage of a larger shape it held")
	}
	if d := EnsureShape(a, 13); d == a || d.Len() != 13 || a.Len() != 12 {
		t.Fatal("EnsureShape must allocate past the capacity and leave t unchanged")
	}
	if got := EnsureShape[float64](nil, 2, 2); got == nil || got.Len() != 4 {
		t.Fatal("EnsureShape must allocate for nil input")
	}
}

// TestGemmScratchSizedByCall pins the packing scratch's sizing rule: a
// scratch starts empty; a call grows its A block to
// ⌈min(gemmMC, m)/mr⌉·mr·min(gemmKC, k) elements (none when A is read in
// place) and its B panel to ⌈min(gemmNC, n)/nr⌉·nr·min(gemmKC, k); and a
// smaller call after a larger one keeps what the larger one grew.
func TestGemmScratchSizedByCall(t *testing.T) {
	t.Run("f64", testGemmScratchSizedByCall[float64])
	t.Run("f32", testGemmScratchSizedByCall[float32])
}

func testGemmScratchSizedByCall[T Float](t *testing.T) {
	mr, nr := microTile[T]()
	up := func(x, q int) int { return (x + q - 1) / q * q }
	s := new(gemmScratch[T])
	var wantA, wantB int
	for _, c := range []struct {
		name    string
		m, n, k int
		packA   bool
	}{
		{"LeNet-S conv1 forward at batch 20", 20 * 16 * 16, 6, 25, false},
		{"LeNet-S dense forward at batch 100", 100, 48, 48, true},
		{"one element", 1, 1, 1, true},
		{"multi-panel", 150, 600, 500, true},
		{"LeNet-S conv1 forward again", 20 * 16 * 16, 6, 25, false},
	} {
		s.fit(c.m, c.n, c.k, mr, nr, c.packA)
		if c.packA {
			wantA = max(wantA, up(min(gemmMC, c.m), mr)*min(gemmKC, c.k))
		}
		wantB = max(wantB, up(min(gemmNC, c.n), nr)*min(gemmKC, c.k))
		if cap(s.ap) != wantA || cap(s.bp) != wantB {
			t.Fatalf("%s: scratch holds %d + %d elements, want %d + %d", c.name, cap(s.ap), cap(s.bp), wantA, wantB)
		}
		if c.name == "LeNet-S conv1 forward at batch 20" && (cap(s.ap) != 0 || cap(s.bp) != 25*8) {
			t.Fatalf("%s: scratch holds %d + %d elements, want no A block and a 25×8 B panel", c.name, cap(s.ap), cap(s.bp))
		}
	}
	if wantA != gemmMC*gemmKC || wantB != gemmKC*gemmNC {
		t.Fatalf("the multi-panel call grew the scratch to %d + %d elements, not to the full blocks", wantA, wantB)
	}
}

// Benchmark shapes are the dominant real GEMMs of the paper's two models
// at batch 20 (im2col-lowered): VGG6's block-3 conv (m=N·7·7, k=720, n=96)
// and LeNet's conv2 (m=N·8·8, k=500, n=40). Naive vs blocked on the same
// shape measures the single-thread kernel speedup; lanes are pinned to 0
// so the comparison is serial.
func benchGEMMShapeOf[T Float](b *testing.B, m, k, n int, naive bool) {
	rng := rand.New(rand.NewSource(1))
	a := randTensorOf[T](rng, m, k)
	bt := randTensorOf[T](rng, n, k)
	dst := NewOf[T](m, n)
	old := MaxLanes()
	SetMaxLanes(0)
	defer SetMaxLanes(old)
	var z T
	b.SetBytes(int64(elemSize(z) * (m*k + n*k + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			naiveMatMulTransBInto(dst, a, bt)
		} else {
			MatMulTransBInto(dst, a, bt)
		}
	}
}

func elemSize[T Float](T) int {
	if isF32[T]() {
		return 4
	}
	return 8
}

func benchGEMMShape(b *testing.B, m, k, n int, naive bool) {
	benchGEMMShapeOf[float64](b, m, k, n, naive)
}

func BenchmarkGEMMNaiveVGG6Conv(b *testing.B)   { benchGEMMShape(b, 980, 720, 96, true) }
func BenchmarkGEMMBlockedVGG6Conv(b *testing.B) { benchGEMMShape(b, 980, 720, 96, false) }
func BenchmarkGEMMNaiveLeNetConv(b *testing.B)  { benchGEMMShape(b, 1280, 500, 40, true) }
func BenchmarkGEMMBlockedLeNetConv(b *testing.B) {
	benchGEMMShape(b, 1280, 500, 40, false)
}
func BenchmarkGEMMNaiveVGG6Dense(b *testing.B)   { benchGEMMShape(b, 20, 4704, 1120, true) }
func BenchmarkGEMMBlockedVGG6Dense(b *testing.B) { benchGEMMShape(b, 20, 4704, 1120, false) }

// float32 counterparts of the blocked benchmarks (≥1.5× over f64 when
// recorded, see EXPERIMENTS.md).
func BenchmarkGEMMBlockedF32VGG6Conv(b *testing.B) {
	benchGEMMShapeOf[float32](b, 980, 720, 96, false)
}
func BenchmarkGEMMBlockedF32LeNetConv(b *testing.B) {
	benchGEMMShapeOf[float32](b, 1280, 500, 40, false)
}
func BenchmarkGEMMBlockedF32VGG6Dense(b *testing.B) {
	benchGEMMShapeOf[float32](b, 20, 4704, 1120, false)
}

// The kernel parity matrix: every micro-kernel this host and build can
// run — the 256-bit assembly where the host has it, the Go twins, and
// microKernel / microKernelInd with the dispatch cleared (dispatch_test.go)
// — × {packed, indirect} × {f32, f64}, against refTile, over depths that
// straddle nothing, one step, odd counts and the KC panel edge, on
// operands that start at odd element offsets and carry NaNs with distinct
// payloads, ±Inf, −0 and subnormals beside the ordinary values.

// refTile is the reference every kernel must reproduce: an mr×ldb tile
// whose element (r, j) is the sum over strictly ascending l of a(r,l) ·
// b[l·ldb+j], one rounding per multiply and one per add, from +0.
func refTile[T Float](mr, ldb, kc int, a func(r, l int) T, b []T) []T {
	c := make([]T, mr*ldb)
	for l := 0; l < kc; l++ {
		for r := 0; r < mr; r++ {
			for j := 0; j < ldb; j++ {
				c[r*ldb+j] += T(a(r, l) * b[l*ldb+j])
			}
		}
	}
	return c
}

// bits64 is v's bit pattern widened to 64 bits (float32 widens exactly,
// NaN payloads included), so one comparison serves both element types.
func bits64[T Float](v T) uint64 { return math.Float64bits(float64(v)) }

// sameValue reports bit equality, except that any NaN matches any NaN:
// which payload survives a NaN·NaN or NaN+NaN is the instruction
// encoding's choice, and compiled Go code does not pin its operand order.
func sameValue[T Float](a, b T) bool {
	return bits64(a) == bits64(b) || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// specials returns the values the parity matrix salts its operands with.
func specials[T Float]() []T {
	nan := func(payload uint32) T {
		if isF32[T]() {
			return T(math.Float32frombits(0x7fc00000 | payload))
		}
		return T(math.Float64frombits(0x7ff8000000000000 | uint64(payload)))
	}
	tiny := T(math.SmallestNonzeroFloat64) // subnormal at float64
	if isF32[T]() {
		tiny = T(math.SmallestNonzeroFloat32)
	}
	negZero := T(math.Copysign(0, -1))
	return []T{nan(1), nan(2), nan(0x155), T(math.Inf(1)), T(math.Inf(-1)), negZero, tiny, -tiny * 3, 0}
}

// salted returns n normal draws with roughly one element in nine
// replaced by a special value, every special used at least once when n
// allows.
func salted[T Float](rng *rand.Rand, n int) []T {
	d := randTensorOf[T](rng, n).data
	sp := specials[T]()
	for i := range sp {
		if n > 0 {
			d[rng.Intn(n)] = sp[i]
		}
	}
	for i := range d {
		if rng.Intn(9) == 0 {
			d[i] = sp[rng.Intn(len(sp))]
		}
	}
	return d
}

// microImpl is one row of the parity matrix: a packed and an indirect
// kernel for an mr×nr tile, and the dispatch state they run under.
type microImpl[T Float] struct {
	name   string
	avx    bool
	mr, nr int
	// likeTwin rows must match the twin row (the one above) bit for bit,
	// NaN payloads included: they are the same compiled code.
	likeTwin bool
	packed   func(kc int, ap, bp []T, acc *[gemmAccLen]T)
	ind      func(kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T)
}

// microImpls lists the assembly kernels where the host runs them, the Go
// twins, and what microKernel and microKernelInd run with the dispatch
// cleared — on an amd64 host without AVX, under purego and on every other
// architecture: the twins, and no assembly kernel, whose payloads differ
// on these operands.
func microImpls[T Float]() []microImpl[T] {
	var impls []microImpl[T]
	if useAVX {
		mr, nr := microTile[T]()
		impls = append(impls, microImpl[T]{kernelSetName(true), true, mr, nr, false, microKernel[T], microKernelInd[T]})
	}
	twin, mr := micro4x4[T], gemmMR
	if isF32[T]() {
		twin, mr = micro8x4[T], f32MR
	}
	return append(impls,
		microImpl[T]{kernelSetName(false), false, mr, 4, false, twin, microInd[T]},
		microImpl[T]{"dispatch cleared", false, mr, 4, true, microKernel[T], microKernelInd[T]})
}

// kernelParityDepths are the kc values of the matrix.
var kernelParityDepths = []int{0, 1, 2, 3, 7, 25, 256, 257}

// testKernelParity runs one column of the matrix (packed or indirect)
// at element type T. Every kernel computes the same logical mr×8 tile —
// a 4-wide kernel in two column halves — so results compare element for
// element across tile shapes: every row against refTile up to NaN
// payload, and bit for bit, payloads included, the assembly's packed
// kernel against its indirect one and the cleared dispatch against the
// twins. The assembly and the twins are not held to each other's
// payloads: compiled Go pins NaN-ness only (mergeTile), and the second
// assembly set that comparison used to have on its other side is gone.
func testKernelParity[T Float](t *testing.T, indirect bool) {
	const ldb = gemmMaxNR
	rng := rand.New(rand.NewSource(71))
	impls := microImpls[T]()
	mr := impls[0].mr
	for _, kc := range kernelParityDepths {
		for _, skew := range []int{0, 1, 3} {
			// One spare step keeps &ap[0] valid at kc = 0.
			x := salted[T](rng, 4096)[skew:]
			b := salted[T](rng, ldb*(kc+1)+skew)[skew:]
			rowOff := make([]int, mr)
			for r := range rowOff {
				rowOff[r] = rng.Intn(len(x) / 2)
			}
			depthOff := make([]int, kc)
			for l := range depthOff {
				depthOff[l] = rng.Intn(len(x) / 2)
			}
			a := func(r, l int) T { return x[rowOff[r]+depthOff[l]] }
			want := refTile(mr, ldb, kc, a, b)
			var twinGot []T
			for _, im := range impls {
				if im.mr != mr {
					t.Fatalf("%s: mr = %d, others %d", im.name, im.mr, mr)
				}
				run := func(ind bool) []T {
					got := make([]T, mr*ldb)
					withKernels(im.avx, func() {
						for j0 := 0; j0 < ldb; j0 += im.nr {
							bp := make([]T, im.nr*(kc+1)+skew)[skew:]
							for l := 0; l < kc; l++ {
								copy(bp[l*im.nr:][:im.nr], b[l*ldb+j0:])
							}
							var acc [gemmAccLen]T
							for i := range acc {
								acc[i] = 9 // the tile must be overwritten, not accumulated into
							}
							if ind {
								im.ind(kc, x, rowOff, depthOff, bp, &acc)
							} else {
								ap := make([]T, mr*(kc+1)+skew)[skew:]
								for l := 0; l < kc; l++ {
									for r := 0; r < mr; r++ {
										ap[l*mr+r] = a(r, l)
									}
								}
								im.packed(kc, ap, bp, &acc)
							}
							for r := 0; r < mr; r++ {
								copy(got[r*ldb+j0:][:im.nr], acc[r*im.nr:])
							}
						}
					})
					return got
				}
				got := run(indirect)
				for i := range want {
					if !sameValue(got[i], want[i]) {
						t.Fatalf("%s kc=%d skew=%d: c[%d] = %v (%#x), reference %v (%#x)",
							im.name, kc, skew, i, got[i], bits64(got[i]), want[i], bits64(want[i]))
					}
				}
				if im.avx && indirect {
					// The pack-free path's bit-identity argument at kernel
					// level: same values, same instructions, same bits.
					for i, p := range run(false) {
						if bits64(got[i]) != bits64(p) {
							t.Fatalf("%s kc=%d skew=%d: c[%d] indirect %#x, packed %#x", im.name, kc, skew, i, bits64(got[i]), bits64(p))
						}
					}
				}
				if !im.likeTwin {
					twinGot = got
					continue
				}
				for i := range got {
					if bits64(got[i]) != bits64(twinGot[i]) {
						t.Fatalf("%s kc=%d skew=%d: c[%d] = %#x, the twin %#x", im.name, kc, skew, i, bits64(got[i]), bits64(twinGot[i]))
					}
				}
			}
		}
	}
}

// TestMicroKernelMatchesTwin is the packed column of the parity matrix.
// On an AVX host that is the 256-bit assembly and the Go twins against
// one reference; under the purego tag (and on other architectures) the
// twins are all there is.
func TestMicroKernelMatchesTwin(t *testing.T) { conformEntry(t) }

// TestMicroKernelIndMatchesTwin is the indirect column: the same kernels
// reading a[r][l] = x[rowOff[r]+depthOff[l]] in place — offsets repeat
// and run backwards, which the convolution tables never do — against
// the reference and against the packed kernel fed the gathered panel.
func TestMicroKernelIndMatchesTwin(t *testing.T) { conformEntry(t) }
