package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad shape %v", x.Shape())
	}
}

func TestFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	From([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout broken: got %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := From([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on volume mismatch")
		}
	}()
	x.Reshape(4, 2)
}

func TestScaleAddApplySum(t *testing.T) {
	x := From([]float64{1, 2, 3}, 3)
	x.Scale(2)
	y := From([]float64{1, 1, 1}, 3)
	x.AddScaled(3, y)
	want := []float64{5, 7, 9}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("element %d = %v, want %v", i, v, want[i])
		}
	}
	if s := x.Sum(); s != 21 {
		t.Fatalf("Sum = %v, want 21", s)
	}
	x.Scale(-1)
	if m := x.MaxAbs(); m != 9 {
		t.Fatalf("MaxAbs = %v, want 9", m)
	}
}

// The allocating forms of the three GEMM entry points, and an explicit
// transpose to check the transposed layouts against.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

func matMulTransA(a, b *Tensor) *Tensor {
	c := New(a.Dim(1), b.Dim(1))
	MatMulTransAInto(c, a, b)
	return c
}

func matMulTransB(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(0))
	MatMulTransBInto(c, a, b)
	return c
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Set(a.At(i, j), j, i)
		}
	}
	return t
}

func TestMatMulSmall(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := From([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := From([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		want := New(m, n)
		naiveMatMulInto(want, a, b)
		return Equal(matMul(a, b), want, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 130, 50)
	b := Randn(rng, 1, 50, 120)
	want := New(130, 120)
	naiveMatMulInto(want, a, b)
	if !Equal(matMul(a, b), want, 1e-9) {
		t.Fatal("parallel MatMul disagrees with naive result")
	}
}

func TestMatMulTransAB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 9, 13)
	b := Randn(rng, 1, 9, 7)
	got := matMulTransA(a, b)
	want := matMul(transpose(a), b)
	if !Equal(got, want, 1e-9) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
	c := Randn(rng, 1, 11, 13)
	got2 := matMulTransB(a, c) // (9×13)·(11×13)ᵀ = 9×11
	want2 := matMul(a, transpose(c))
	if !Equal(got2, want2, 1e-9) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatMulTransBParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 100, 33)
	b := Randn(rng, 1, 90, 33)
	got := matMulTransB(a, b)
	want := matMul(a, transpose(b))
	if !Equal(got, want, 1e-9) {
		t.Fatal("parallel MatMulTransB disagrees")
	}
}

// directConv performs a direct convolution for comparison with the
// im2col+matmul path.
func directConv(x, w *Tensor, stride, pad int) *Tensor {
	n, c, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, _, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(wid, kw, stride, pad)
	y := New(n, f, oh, ow)
	for img := 0; img < n; img++ {
		for fo := 0; fo < f; fo++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy < 0 || iy >= h || ix < 0 || ix >= wid {
									continue
								}
								s += x.At(img, ch, iy, ix) * w.At(fo, ch, ky, kx)
							}
						}
					}
					y.Set(s, img, fo, oy, ox)
				}
			}
		}
	}
	return y
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, c, h, w, f, k, stride, pad int }{
		{2, 1, 8, 8, 3, 3, 1, 1},
		{1, 3, 7, 7, 4, 5, 1, 2},
		{2, 2, 9, 9, 2, 3, 2, 1},
		{1, 1, 5, 5, 1, 5, 1, 0},
	} {
		x := Randn(rng, 1, tc.n, tc.c, tc.h, tc.w)
		w := Randn(rng, 1, tc.f, tc.c, tc.k, tc.k)
		cols := im2col(x, tc.k, tc.k, tc.stride, tc.pad)
		wm := w.Reshape(tc.f, tc.c*tc.k*tc.k)
		// (N*OH*OW, CKK) · (CKK, F) then permute to (N,F,OH,OW).
		ym := matMulTransB(cols, wm)
		oh := ConvOutSize(tc.h, tc.k, tc.stride, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.stride, tc.pad)
		y := New(tc.n, tc.f, oh, ow)
		for img := 0; img < tc.n; img++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := (img*oh+oy)*ow + ox
					for fo := 0; fo < tc.f; fo++ {
						y.Set(ym.At(row, fo), img, fo, oy, ox)
					}
				}
			}
		}
		want := directConv(x, w, tc.stride, tc.pad)
		if !Equal(y, want, 1e-9) {
			t.Fatalf("im2col conv mismatch for case %+v", tc)
		}
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <im2col(x), g> must equal <x, col2im(g)> — the defining property of
	// an adjoint pair, which is exactly what backprop relies on.
	rng := rand.New(rand.NewSource(13))
	n, c, h, w, k, stride, pad := 2, 2, 6, 6, 3, 1, 1
	x := Randn(rng, 1, n, c, h, w)
	cols := im2col(x, k, k, stride, pad)
	g := Randn(rng, 1, cols.Dim(0), cols.Dim(1))
	lhs := 0.0
	for i, v := range cols.Data() {
		lhs += v * g.Data()[i]
	}
	back := col2im(g, n, c, h, w, k, k, stride, pad)
	rhs := 0.0
	for i, v := range x.Data() {
		rhs += v * back.Data()[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(28, 5, 1, 0); got != 24 {
		t.Fatalf("ConvOutSize(28,5,1,0) = %d, want 24", got)
	}
	if got := ConvOutSize(28, 3, 1, 1); got != 28 {
		t.Fatalf("ConvOutSize(28,3,1,1) = %d, want 28", got)
	}
	if got := ConvOutSize(8, 2, 2, 0); got != 4 {
		t.Fatalf("ConvOutSize(8,2,2,0) = %d, want 4", got)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 8, 3, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2col(x, 3, 3, 1, 1)
	}
}
