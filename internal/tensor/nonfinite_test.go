package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestNonFiniteAtEveryShape: every GEMM entry point adds every product,
// so an exact zero of A — a stored 0, or a padding tap of a convolution
// input — against a +Inf of B is 0·Inf = NaN in the outputs whose sums
// hold that product, and in no other output, at a one-tile shape and at
// one of several tiles alike.
func TestNonFiniteAtEveryShape(t *testing.T) {
	t.Run("f64", testNonFiniteAtEveryShape[float64])
	t.Run("f32", testNonFiniteAtEveryShape[float32])
}

func testNonFiniteAtEveryShape[T Float](t *testing.T) {
	inf := T(math.Inf(1))
	rng := rand.New(rand.NewSource(61))
	// check fails unless out is NaN exactly at the flat indices nan names.
	check := func(what string, out *TensorOf[T], nan func(i int) bool) {
		t.Helper()
		for i, v := range out.Data() {
			if math.IsNaN(float64(v)) != nan(i) {
				t.Errorf("%s %v: element %d is %v", what, out.Shape(), i, v)
				return
			}
		}
	}
	first := func(i int) bool { return i == 0 }

	// m·n·k = 12 and 12,000.
	for _, d := range [][3]int{{2, 3, 2}, {20, 30, 20}} {
		m, k, n := d[0], d[1], d[2]
		a, at := randTensorOf[T](rng, m, k), randTensorOf[T](rng, k, m)
		b, bt := randTensorOf[T](rng, k, n), randTensorOf[T](rng, n, k)
		a.data[0], at.data[0] = 0, 0     // A(0, 0)
		b.data[0], bt.data[0] = inf, inf // B(0, 0)
		c := NewOf[T](m, n)
		MatMulInto(c, a, b)
		check("A·B", c, first)
		MatMulTransAInto(c, at, b)
		check("Aᵀ·B", c, first)
		MatMulTransBInto(c, a, bt)
		check("A·Bᵀ", c, first)
	}

	// 3×3 kernels. As m×n×k products the padded forward is 16×2×9 and
	// 128×4×27, the unpadded dW 9×2×4 and 27×4×72, dX 4×9×2 and 72×27×4.
	const k = 3
	for _, g := range []struct{ n, c, hw, f int }{{1, 1, 4, 2}, {2, 3, 8, 4}} {
		kdim, plane := g.c*k*k, g.hw*g.hw
		x := randTensorOf[T](rng, g.n, g.c, g.hw, g.hw)
		w := randTensorOf[T](rng, g.f, kdim)
		w.data[0] = inf // filter 0, channel 0, tap (0, 0)
		bias := randTensorOf[T](rng, g.f)
		// Tap (0, 0) of output (oy, ox) reads x at (oy−1, ox−1): a padding
		// zero along the top row and the left column.
		y := NewOf[T](g.n, g.f, g.hw, g.hw)
		ConvForwardInto(y, x, w, bias, k, k, 1, 1)
		check("padded conv forward", y, func(i int) bool {
			p := i % plane
			return i/plane%g.f == 0 && (p < g.hw || p%g.hw == 0)
		})

		// Position 0's gradient for filter 0 is 0; x(0, 0, 0, 0), which
		// only position 0 reads (at tap 0), is +Inf for dW, and so is
		// w(0, tap 0) for dX, whose tap-0 sum for position 0 lands in
		// dx(0, 0, 0, 0).
		o := g.hw - k + 1
		gm := randTensorOf[T](rng, g.n, g.f, o, o)
		gm.data[0] = 0
		xi := x.Clone()
		xi.data[0] = inf
		dw := NewOf[T](g.f, kdim)
		ConvGradWeightsInto(dw, gm, xi, k, k, 1, 0)
		check("conv dW", dw, first)
		dx := NewOf[T](g.n, g.c, g.hw, g.hw)
		ConvGradInputInto(dx, gm, w, k, k, 1, 0)
		check("conv dX", dx, first)
	}
}
