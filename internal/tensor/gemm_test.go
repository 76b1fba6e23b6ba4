package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	return randTensorOf[float64](rng, shape...)
}

func randTensorOf[T Float](rng *rand.Rand, shape ...int) *TensorOf[T] {
	t := NewOf[T](shape...)
	for i := range t.Data() {
		t.Data()[i] = T(rng.NormFloat64())
	}
	return t
}

// blockedInto forces the blocked kernel (bypassing the small-shape naive
// fast path) with the same stride setup as gemm, so property tests can
// exercise packing/micro-kernel logic on tiny shapes too.
func blockedInto[T Float](dst, a, b *TensorOf[T], transA, transB bool, e epi[T]) {
	m, n, k, pa, pb := stridedOperands(a, b, transA, transB)
	gemmBlockedOps(matView[T]{d: dst.data, ld: n}, pa, pb, m, n, k, e)
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

// maxAbsDiff returns the largest elementwise |a−b|.
func maxAbsDiff[T Float](a, b *TensorOf[T]) float64 {
	worst := 0.0
	for i, v := range a.Data() {
		if d := math.Abs(float64(v) - float64(b.Data()[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// testBlockedMatchesNaive sweeps all three layouts over every (m, k, n)
// combination from a size set covering 1×1, sub-tile, exactly one tile,
// and one-past-a-tile ragged edges, comparing the blocked kernel
// (forced, even below the small cutoff) against the retained naive
// references. The tolerance comes from the element type: ≈1e-12 at
// float64, ≈1e-4 at float32.
func testBlockedMatchesNaive[T Float](t *testing.T) {
	sizes := []int{1, 3, 5, 17, 64, 65}
	eps := Eps[T]()
	rng := rand.New(rand.NewSource(42))
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				// Plain A·B.
				a := randTensorOf[T](rng, m, k)
				b := randTensorOf[T](rng, k, n)
				want, got := NewOf[T](m, n), NewOf[T](m, n)
				naiveMatMulInto(want, a, b)
				blockedInto(got, a, b, false, false, epi[T]{})
				if d := maxAbsDiff(want, got); d > eps {
					t.Fatalf("A·B m=%d k=%d n=%d: max diff %g", m, k, n, d)
				}
				// Aᵀ·B with A stored (k, m).
				at := randTensorOf[T](rng, k, m)
				naiveMatMulTransAInto(want, at, b)
				blockedInto(got, at, b, true, false, epi[T]{})
				if d := maxAbsDiff(want, got); d > eps {
					t.Fatalf("Aᵀ·B m=%d k=%d n=%d: max diff %g", m, k, n, d)
				}
				// A·Bᵀ with B stored (n, k).
				bt := randTensorOf[T](rng, n, k)
				naiveMatMulTransBInto(want, a, bt)
				blockedInto(got, a, bt, false, true, epi[T]{})
				if d := maxAbsDiff(want, got); d > eps {
					t.Fatalf("A·Bᵀ m=%d k=%d n=%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

func TestBlockedMatchesNaiveProperty(t *testing.T) {
	t.Run("f64", testBlockedMatchesNaive[float64])
	t.Run("f32", testBlockedMatchesNaive[float32])
}

// TestBlockedMatchesNaiveMultiPanel covers shapes that span several MC/NC
// grid cells and several KC k-panels, where the blocked kernel's partial-
// sum tree differs from the naive running sum — agreement must hold to
// accumulated-roundoff tolerance (100× the single-panel tolerance for
// the element type).
func testBlockedMultiPanel[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eps := 100 * Eps[T]()
	m, k, n := 150, 600, 500 // rc=2, cc=3, three k-panels
	a := randTensorOf[T](rng, m, k)
	b := randTensorOf[T](rng, k, n)
	want, got := NewOf[T](m, n), NewOf[T](m, n)
	naiveMatMulInto(want, a, b)
	MatMulInto(got, a, b)
	if d := maxAbsDiff(want, got); d > eps {
		t.Fatalf("multi-panel A·B: max diff %g", d)
	}
	at := randTensorOf[T](rng, k, m)
	naiveMatMulTransAInto(want, at, b)
	MatMulTransAInto(got, at, b)
	if d := maxAbsDiff(want, got); d > eps {
		t.Fatalf("multi-panel Aᵀ·B: max diff %g", d)
	}
	bt := randTensorOf[T](rng, n, k)
	naiveMatMulTransBInto(want, a, bt)
	MatMulTransBInto(got, a, bt)
	if d := maxAbsDiff(want, got); d > eps {
		t.Fatalf("multi-panel A·Bᵀ: max diff %g", d)
	}
}

func TestBlockedMatchesNaiveMultiPanel(t *testing.T) {
	t.Run("f64", testBlockedMultiPanel[float64])
	t.Run("f32", testBlockedMultiPanel[float32])
}

// TestGEMMEpilogueBias checks the fused bias epilogue on both dispatch
// paths (naive small-shape and blocked) against an explicit reference.
func TestGEMMEpilogueBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{5, 7, 9}, {100, 80, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		bt := randTensor(rng, n, k)
		bias := randTensor(rng, n)
		want := New(m, n)
		naiveMatMulTransBInto(want, a, bt)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want.Data()[i*n+j] += bias.Data()[j]
			}
		}
		got := New(m, n)
		MatMulTransBBiasInto(got, a, bt, bias)
		if d := maxAbsDiff(want, got); d > 1e-10 {
			t.Fatalf("bias epilogue m=%d k=%d n=%d: max diff %g", m, k, n, d)
		}
	}
}

// TestGEMMEpilogueBiasReLU checks the fused bias+ReLU epilogue, including
// the backward mask, on both dispatch paths.
func TestGEMMEpilogueBiasReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{5, 7, 9}, {100, 80, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		bt := randTensor(rng, n, k)
		bias := randTensor(rng, n)
		pre := New(m, n)
		naiveMatMulTransBInto(pre, a, bt)
		got := New(m, n)
		mask := make([]bool, m*n)
		MatMulTransBBiasReLUInto(got, a, bt, bias, mask)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := pre.Data()[i*n+j] + bias.Data()[j]
				wantMask := v > 0
				if !wantMask {
					v = 0
				}
				idx := i*n + j
				if math.Abs(got.Data()[idx]-v) > 1e-10 {
					t.Fatalf("relu epilogue value (%d,%d): got %g want %g", i, j, got.Data()[idx], v)
				}
				if mask[idx] != wantMask {
					t.Fatalf("relu mask (%d,%d): got %v want %v", i, j, mask[idx], wantMask)
				}
			}
		}
	}
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

// TestGEMMBitIdenticalAcrossLanes verifies the kernel's core determinism
// claim: on a shape spanning multiple grid cells and k-panels (so the
// parallel path genuinely fans out), results are bit-identical for every
// lane count, mirroring the federated engines' bit-identical-history
// guarantee in internal/fl/parallel_test.go.
func TestGEMMBitIdenticalAcrossLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 260, 300, 250 // rc=3, cc=2 cells; two k-panels; mnk ≫ parallel cutoff
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	at := randTensor(rng, k, m)
	bt := randTensor(rng, n, k)
	bias := randTensor(rng, n)
	mask := make([]bool, m*n)

	type op struct {
		name string
		run  func(dst *Tensor)
	}
	ops := []op{
		{"MatMulInto", func(dst *Tensor) { MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", func(dst *Tensor) { MatMulTransAInto(dst, at, b) }},
		{"MatMulTransBInto", func(dst *Tensor) { MatMulTransBInto(dst, a, bt) }},
		{"MatMulTransBBiasReLUInto", func(dst *Tensor) { MatMulTransBBiasReLUInto(dst, a, bt, bias, mask) }},
	}
	for _, o := range ops {
		ref := New(m, n)
		withLanes(t, 0, func() { o.run(ref) })
		for _, lanes := range []int{1, 2, 3, 8} {
			got := New(m, n)
			withLanes(t, lanes, func() { o.run(got) })
			for i, v := range got.Data() {
				if math.Float64bits(v) != math.Float64bits(ref.Data()[i]) {
					t.Fatalf("%s: lanes=%d differs from serial at %d: %x vs %x",
						o.name, lanes, i, math.Float64bits(v), math.Float64bits(ref.Data()[i]))
				}
			}
		}
	}
}

// TestGEMMBitIdenticalAcrossLanesF32 is the float32 instantiation of the
// lane-determinism claim, exercising the SIMD micro-kernel through the
// parallel dispatch path.
func TestGEMMBitIdenticalAcrossLanesF32(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, k, n := 260, 300, 250
	a := randTensorOf[float32](rng, m, k)
	b := randTensorOf[float32](rng, k, n)
	at := randTensorOf[float32](rng, k, m)
	bt := randTensorOf[float32](rng, n, k)
	bias := randTensorOf[float32](rng, n)
	mask := make([]bool, m*n)

	type op struct {
		name string
		run  func(dst *TensorOf[float32])
	}
	ops := []op{
		{"MatMulInto", func(dst *TensorOf[float32]) { MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", func(dst *TensorOf[float32]) { MatMulTransAInto(dst, at, b) }},
		{"MatMulTransBInto", func(dst *TensorOf[float32]) { MatMulTransBInto(dst, a, bt) }},
		{"MatMulTransBBiasReLUInto", func(dst *TensorOf[float32]) { MatMulTransBBiasReLUInto(dst, a, bt, bias, mask) }},
	}
	for _, o := range ops {
		ref := NewOf[float32](m, n)
		withLanes(t, 0, func() { o.run(ref) })
		for _, lanes := range []int{1, 2, 3, 8} {
			got := NewOf[float32](m, n)
			withLanes(t, lanes, func() { o.run(got) })
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(ref.Data()[i]) {
					t.Fatalf("%s: lanes=%d differs from serial at %d: %x vs %x",
						o.name, lanes, i, math.Float32bits(v), math.Float32bits(ref.Data()[i]))
				}
			}
		}
	}
}

// TestGEMMKZeroAndEmpty pins the degenerate-shape contract: k=0 zeroes the
// output (then applies the epilogue), m=0 or n=0 is a no-op.
func TestGEMMKZeroAndEmpty(t *testing.T) {
	a := New(3, 0)
	b := New(0, 4)
	dst := New(3, 4)
	dst.Fill(99)
	MatMulInto(dst, a, b)
	for _, v := range dst.Data() {
		if v != 0 {
			t.Fatalf("k=0 must zero dst, got %v", v)
		}
	}
	bias := From([]float64{1, 2, 3, 4}, 4)
	bt := New(4, 0)
	MatMulTransBBiasInto(dst, a, bt, bias)
	for i, v := range dst.Data() {
		if v != bias.Data()[i%4] {
			t.Fatalf("k=0 bias epilogue: dst[%d]=%v", i, v)
		}
	}
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
	if b == a {
		t.Fatal("EnsureShape must reallocate on shape change")
	}
	if b.Dim(0) != 4 || b.Dim(1) != 3 || b.Data()[0] != 0 {
		t.Fatal("EnsureShape reallocation must be zeroed with the new shape")
	}
	if got := EnsureShape[float64](nil, 2, 2); got == nil || got.Len() != 4 {
		t.Fatal("EnsureShape must allocate for nil input")
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

// TestMicroKernelMatchesTwin runs the production micro-kernels against
// their portable twins on the same random packed panels, directly —
// below any packing or merging. On amd64 that is SSE2 assembly against
// scalar Go; under the purego tag (and on other architectures) both sides
// are the twin, and the test only pins the fully-overwritten accumulator
// contract.
func TestMicroKernelMatchesTwin(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testMicroKernelMatchesTwin(t, 4, micro4x4[float64]) })
	t.Run("f32", func(t *testing.T) { testMicroKernelMatchesTwin(t, 8, micro8x4[float32]) })
}

func testMicroKernelMatchesTwin[T Float](t *testing.T, mr int, twin func(int, []T, []T, *[gemmAccLen]T)) {
	rng := rand.New(rand.NewSource(71))
	for _, kc := range []int{0, 1, 7, 25, 150, 256} {
		// One spare step keeps &ap[0] valid at kc = 0.
		ap := randTensorOf[T](rng, mr*(kc+1)).data
		bp := randTensorOf[T](rng, 4*(kc+1)).data
		var got, want [gemmAccLen]T
		for i := range got {
			got[i], want[i] = 9, 9
		}
		microKernel(kc, ap, bp, &got)
		twin(kc, ap, bp, &want)
		for i := range want[:mr*4] {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("kc=%d: acc[%d] = %v, twin %v", kc, i, got[i], want[i])
			}
		}
	}
}

// TestMicroKernelIndMatchesTwin runs the indirect micro-kernels against
// their portable twin on random offset tables, and both against the
// packed kernel fed the gathered panel a[r][l] = x[rowOff[r]+depthOff[l]]
// — the pack-free path's whole bit-identity argument at kernel level. kc
// straddles the KC panel depth; offsets repeat and run backwards, which
// the convolution tables never do.
func TestMicroKernelIndMatchesTwin(t *testing.T) {
	t.Run("f64", testMicroKernelIndMatchesTwin[float64])
	t.Run("f32", testMicroKernelIndMatchesTwin[float32])
}

func testMicroKernelIndMatchesTwin[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	mr, _ := microTile[T]()
	x := randTensorOf[T](rng, 4096).data
	for _, kc := range []int{0, 1, 255, 256, 257, 300} {
		rowOff := make([]int, mr)
		for r := range rowOff {
			rowOff[r] = rng.Intn(len(x) / 2)
		}
		depthOff := make([]int, kc)
		ap := make([]T, mr*(kc+1))
		for l := range depthOff {
			depthOff[l] = rng.Intn(len(x) / 2)
			for r, ro := range rowOff {
				ap[l*mr+r] = x[ro+depthOff[l]]
			}
		}
		bp := randTensorOf[T](rng, 4*(kc+1)).data
		var got, twin, packed [gemmAccLen]T
		for i := range got {
			got[i], twin[i], packed[i] = 9, 9, 9
		}
		microKernelInd(kc, x, rowOff, depthOff, bp, &got)
		microInd(kc, x, rowOff, depthOff, bp, &twin)
		microKernel(kc, ap, bp, &packed)
		for i := range got[:mr*4] {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(twin[i])) ||
				math.Float64bits(float64(got[i])) != math.Float64bits(float64(packed[i])) {
				t.Fatalf("kc=%d: acc[%d] = %v, twin %v, packed kernel %v", kc, i, got[i], twin[i], packed[i])
			}
		}
	}
}
