package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// convCase is a convolution geometry. convCases, rows of the
// conformance table, cover degenerate 1×1 kernels, edge padding
// (pad ≥ k/2 so whole patch rows are out of bounds), stride > 1, and
// multi-channel shapes of several register tiles.
type convCase struct {
	n, c, h, w, f, k, stride, pad int
}

var convCases = []convCase{
	{2, 1, 8, 8, 3, 3, 1, 1},
	{1, 3, 7, 7, 4, 5, 1, 2},
	{2, 2, 9, 9, 2, 3, 2, 1},
	{1, 1, 5, 5, 1, 5, 1, 0},
	{1, 2, 6, 6, 3, 1, 1, 0},   // 1×1 kernel
	{2, 1, 4, 4, 2, 1, 2, 0},   // 1×1 kernel, stride 2
	{1, 1, 3, 3, 2, 3, 1, 2},   // pad > (k-1)/2: fully-padded border rows
	{3, 4, 12, 12, 6, 3, 1, 1}, // dW's two KC panels of positions cut an image
	{2, 5, 10, 10, 8, 5, 2, 2},
}

// oracleConv runs the retained materialized path — im2col, the three
// plain GEMM entry points, col2im — exactly as the pre-implicit conv
// layer did, returning (ym+bias, dw, dx) for one (x, w, bias, gm).
func oracleConv[T Float](x, w, bias, gm *TensorOf[T], k, stride, pad int) (ym, dw, dx *TensorOf[T]) {
	cols := im2col(x, k, k, stride, pad)
	ym = NewOf[T](cols.Dim(0), w.Dim(0))
	MatMulTransBBiasInto(ym, cols, w, bias)
	dw = NewOf[T](w.Dim(0), w.Dim(1))
	MatMulTransAInto(dw, gm, cols)
	dcols := NewOf[T](cols.Dim(0), cols.Dim(1))
	MatMulInto(dcols, gm, w)
	dx = NewOf[T](x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3))
	col2imInto(dx, dcols, k, k, stride, pad)
	return ym, dw, dx
}

// Implicit-GEMM vs materialized-im2col layer benchmarks on the two
// recorded conv geometries (LeNet conv2 and VGG6 block-3 at batch 20).
// The im2col variants pre-allocate their cols/dcols workspaces outside
// the timer, exactly like the old conv layer did, so ns/op isolates the
// kernel and bytes/op isolates steady-state allocation traffic.
func benchConvShape[T Float](b *testing.B, implicit bool, n, c, h, wdt, f, k, stride, pad int) {
	rng := rand.New(rand.NewSource(1))
	x := randTensorOf[T](rng, n, c, h, wdt)
	w := randTensorOf[T](rng, f, c*k*k)
	bias := randTensorOf[T](rng, f)
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(wdt, k, stride, pad)
	m := n * oh * ow
	kdim := c * k * k
	gm := randTensorOf[T](rng, m, f)
	ym := NewOf[T](m, f)
	dw := NewOf[T](f, kdim)
	dx := NewOf[T](n, c, h, wdt)
	old := MaxLanes()
	SetMaxLanes(0)
	defer SetMaxLanes(old)
	if implicit {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ConvForwardInto(ym, x, w, bias, k, k, stride, pad)
			ConvGradWeightsInto(dw, gm, x, k, k, stride, pad)
			ConvGradInputInto(dx, gm, w, k, k, stride, pad)
		}
		return
	}
	cols := NewOf[T](m, kdim)
	dcols := NewOf[T](m, kdim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2colInto(cols, x, k, k, stride, pad)
		MatMulTransBBiasInto(ym, cols, w, bias)
		MatMulTransAInto(dw, gm, cols)
		MatMulInto(dcols, gm, w)
		col2imInto(dx, dcols, k, k, stride, pad)
	}
}

// LeNet conv2: (20, 20, 12, 12) input, 40 filters of 5×5 → GEMM 1280×500×40.
func BenchmarkConvIm2ColLeNetConv2(b *testing.B) {
	benchConvShape[float64](b, false, 20, 20, 12, 12, 40, 5, 1, 0)
}
func BenchmarkConvImplicitLeNetConv2(b *testing.B) {
	benchConvShape[float64](b, true, 20, 20, 12, 12, 40, 5, 1, 0)
}
func BenchmarkConvImplicitF32LeNetConv2(b *testing.B) {
	benchConvShape[float32](b, true, 20, 20, 12, 12, 40, 5, 1, 0)
}

// VGG6 block-3: (20, 80, 7, 7) input, 96 filters of 3×3 pad 1 → GEMM 980×720×96.
func BenchmarkConvIm2ColVGG6Block3(b *testing.B) {
	benchConvShape[float64](b, false, 20, 80, 7, 7, 96, 3, 1, 1)
}
func BenchmarkConvImplicitVGG6Block3(b *testing.B) {
	benchConvShape[float64](b, true, 20, 80, 7, 7, 96, 3, 1, 1)
}
func BenchmarkConvImplicitF32VGG6Block3(b *testing.B) {
	benchConvShape[float32](b, true, 20, 80, 7, 7, 96, 3, 1, 1)
}

// The shapes the benchmark jobs actually train: LeNet-S on 16×16 inputs
// at batch 20, and at float64 also at batch 5 (-n5), the one batch per
// client of round_churn. conv1 is (20,1,16,16) → 6 filters 5×5 pad 2 (GEMM
// 5120×25×6), conv2 is (20,6,8,8) → 12 filters 5×5 (GEMM 320×150×12).
// Forward (with the fused ReLU the network runs), weight gradient and
// input gradient are timed separately, through the (N,C,H,W) entry
// points nn uses, single-lane.
func benchLeNetSConv[T Float](b *testing.B, pass string, n, c, hw, f, pad int) {
	rng := rand.New(rand.NewSource(1))
	const k = 5
	x := randTensorOf[T](rng, n, c, hw, hw)
	w := randTensorOf[T](rng, f, c*k*k)
	bias := randTensorOf[T](rng, f)
	o := ConvOutSize(hw, k, 1, pad)
	g := randTensorOf[T](rng, n, f, o, o)
	y := NewOf[T](n, f, o, o)
	dw := NewOf[T](f, c*k*k)
	dx := NewOf[T](n, c, hw, hw)
	old := MaxLanes()
	SetMaxLanes(0)
	defer SetMaxLanes(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch pass {
		case "fwd":
			ConvForwardReLUInto(y, x, w, bias, k, k, 1, pad)
		case "dW":
			ConvGradWeightsInto(dw, g, x, k, k, 1, pad)
		case "dX":
			ConvGradInputInto(dx, g, w, k, k, 1, pad)
		}
	}
}

func BenchmarkConvLeNetS(b *testing.B) {
	for _, l := range []struct {
		name          string
		c, hw, f, pad int
	}{{"conv1", 1, 16, 6, 2}, {"conv2", 6, 8, 12, 0}} {
		b.Run(l.name, func(b *testing.B) {
			for _, pass := range []string{"fwd", "dW", "dX"} {
				b.Run(pass, func(b *testing.B) {
					b.Run("f64", func(b *testing.B) { benchLeNetSConv[float64](b, pass, 20, l.c, l.hw, l.f, l.pad) })
					b.Run("f32", func(b *testing.B) { benchLeNetSConv[float32](b, pass, 20, l.c, l.hw, l.f, l.pad) })
					// The round_churn geometry: one 5-sample batch per client.
					b.Run("f64-n5", func(b *testing.B) { benchLeNetSConv[float64](b, pass, 5, l.c, l.hw, l.f, l.pad) })
				})
			}
		})
	}
}

// packCases is the geometry grid of the offset-table and packer
// property test and of the conformance table's packCases and lane rows:
// stride 1 and 2, pad 0/1/2, output rows
// narrower than a register tile (ow = 4 < f32's mr = 8) and wider, ragged
// m and n tails against both register tiles in both the forward
// (m = positions) and the weight-gradient (m = taps) GEMM, and k long
// enough for several KC panels in both (kdim > 256, positions > 256).
var packCases = []convCase{
	{20, 1, 16, 16, 6, 5, 1, 2},  // LeNet-S conv1
	{20, 6, 8, 8, 12, 5, 1, 0},   // LeNet-S conv2: ow = 4
	{3, 2, 9, 7, 5, 3, 1, 1},     // ragged everything, ow = 7
	{2, 3, 11, 11, 7, 3, 2, 1},   // stride 2
	{2, 2, 10, 13, 3, 5, 2, 2},   // stride 2, pad 2, ow ≠ oh
	{2, 11, 8, 8, 9, 5, 1, 2},    // kdim = 275: two KC panels forward
	{5, 12, 6, 6, 10, 5, 1, 0},   // kdim = 300, ow = 2
	{1, 4, 5, 5, 6, 1, 1, 0},     // 1×1 kernel: every lane run is one column
	{2, 1, 6, 6, 4, 3, 1, 2},     // pad = k-1: whole kernel rows in the padding
	{7, 11, 21, 19, 10, 5, 2, 2}, // all at once: 770 positions × 275 taps × 10, above the fan-out cutoff
}

// testConvPackersMatchIm2col pins what the blocked kernel is handed in
// place of packed im2col panels. The separable offset tables must
// address exactly the materialized im2col matrix — element (i, l) is
// x[pos[i]+tap[l]], padding taps reading the zero border of a pooled
// buffer that was dirty beforehand, the tile slack aliasing the last
// valid row — and the gradient-view packers must fill their panels with
// exactly what packA and packB produce from the re-laid-out gradient.
func testConvPackersMatchIm2col[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	mr, nr := microTile[T]()
	for _, tc := range packCases {
		x := randTensorOf[T](rng, tc.n, tc.c, tc.h, tc.w)
		cols := im2col(x, tc.k, tc.k, tc.stride, tc.pad)
		g := makeConvGeom(x.shape, tc.k, tc.k, tc.stride, tc.pad)
		rows, kdim := g.rows(), g.cols()
		var s convScratch[T]
		for i := range s.grow(2 * x.Len()) {
			s.buf[i] = 7
		}
		xp, pos, tap := s.im2col(x.data, &g)
		if (tc.pad == 0) != (&xp[0] == &x.data[0]) {
			t.Fatalf("%+v: input copied iff padded violated", tc)
		}
		for i := 0; i < rows; i++ {
			for l := 0; l < kdim; l++ {
				if got, want := xp[pos[i]+tap[l]], cols.data[i*kdim+l]; math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("%+v: element (%d,%d): %v, im2col has %v", tc, i, l, got, want)
				}
			}
		}
		if len(pos) != rows+gemmMaxMR-1 || len(tap) != kdim+gemmMaxMR-1 {
			t.Fatalf("%+v: table lengths %d, %d", tc, len(pos), len(tap))
		}
		for i := range pos[rows:] {
			if pos[rows+i] != pos[rows-1] {
				t.Fatalf("%+v: position slack %d does not alias the last row", tc, i)
			}
		}
		for i := range tap[kdim:] {
			if tap[kdim+i] != tap[kdim-1] {
				t.Fatalf("%+v: tap slack %d does not alias the last row", tc, i)
			}
		}

		// Each block is packed into, and compared over, exactly the span
		// it owns — ⌈rows/w⌉·w by its depth — cut to that capacity, so a
		// packer writing past its span panics instead of going unseen.
		wantBuf := make([]T, max(gemmMC*gemmKC, gemmKC*gemmNC))
		gotBuf := make([]T, len(wantBuf))
		var want, got []T
		span := func(rows, w, depth int) {
			n := (rows + w - 1) / w * w * depth
			want, got = wantBuf[:n:n], gotBuf[:n:n]
			for i := range want {
				want[i], got[i] = T(7), T(7)
			}
		}
		check := func(what string, i0, p0, a, b int) {
			t.Helper()
			for i := range want {
				if math.Float64bits(float64(want[i])) != math.Float64bits(float64(got[i])) {
					t.Fatalf("%+v: %s block (%d,%d) %dx%d: panel differs at %d: %v vs %v",
						tc, what, i0, p0, a, b, i, got[i], want[i])
				}
			}
		}
		// Gradient views against the matmul-layout matrix they replace.
		grad := randTensorOf[T](rng, tc.n, tc.f, g.oh, g.ow)
		gm := NewOf[T](rows, tc.f)
		gv := convView(grad, &g, tc.f, "test")
		for i := 0; i < rows; i++ {
			for j := 0; j < tc.f; j++ {
				gm.data[i*tc.f+j] = grad.data[gv.off(i, j)]
			}
		}
		for _, i0 := range []int{0, 3, rows - 5} {
			mc, kc := min(gemmMC, rows-i0), tc.f
			span(mc, mr, kc)
			packA(want, gm.data, tc.f, 1, i0, 0, mc, kc, mr)
			packAPosChan(got, &gv, i0, 0, mc, kc, mr)
			check("A posChan", i0, 0, mc, kc)
		}
		for _, p0 := range []int{0, gemmKC, 5} {
			for _, j0 := range []int{0, 2} {
				if p0 >= rows {
					continue
				}
				kc, nc := min(gemmKC, rows-p0), tc.f-j0
				span(nc, nr, kc)
				packB(want, gm.data, tc.f, 1, p0, j0, kc, nc, nr)
				packBPosChan(got, &gv, p0, j0, kc, nc, nr)
				check("B posChan", p0, j0, kc, nc)
			}
		}
	}
}

func TestConvPackersMatchIm2col(t *testing.T) { conformEntry(t) }

// testPackPooledMatchesPosChan pins the packers of a gradient that exists
// only as its pooled form (PooledGrad) against the packers of the dense
// tensor it stands for: pool random activations (first maximum wins),
// unpool a salted gradient through the argmax, mask it where the
// activation is not positive, and every A and B block — ragged lanes,
// blocks that start or end inside a plane, inside a pooled row's band,
// across images — must hold the same bits either way; so must the
// column sums read off a packed B block against a pass down the dense
// columns. A plane narrower than the window pools to nothing: its
// panels are the all-zero dense gradient's.
func testPackPooledMatchesPosChan[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, tc := range []struct{ n, ch, oh, ow, size int }{
		{20, 6, 16, 16, 2}, {20, 12, 4, 4, 2}, {5, 5, 14, 14, 2}, {3, 7, 18, 18, 2},
		{3, 4, 15, 13, 2}, {4, 6, 12, 12, 3}, {2, 3, 9, 9, 1}, {7, 9, 7, 5, 2},
		{2, 3, 4, 1, 2},
	} {
		sp, ph, pw := tc.oh*tc.ow, tc.oh/tc.size, tc.ow/tc.size
		act := randTensorOf[T](rng, tc.n, tc.ch, tc.oh, tc.ow)
		g := From(salted[T](rng, tc.n*tc.ch*ph*pw), tc.n, tc.ch, ph, pw)
		y := NewOf[T](tc.n, tc.ch, ph, pw)
		argmax := make([]int, y.Len())
		dense := NewOf[T](tc.n, tc.ch, tc.oh, tc.ow)
		for q := range argmax {
			pl, oy, ox := q/(ph*pw), q/pw%ph, q%pw
			best := pl*sp + oy*tc.size*tc.ow + ox*tc.size
			for ky := 0; ky < tc.size; ky++ {
				for kx := 0; kx < tc.size; kx++ {
					if at := pl*sp + (oy*tc.size+ky)*tc.ow + ox*tc.size + kx; act.data[at] > act.data[best] {
						best = at
					}
				}
			}
			argmax[q], y.data[q] = best, act.data[best]
			if act.data[best] > 0 {
				dense.data[best] += g.data[q]
			}
		}
		gv := matView[T]{d: dense.data, sp: sp, ch: tc.ch}
		ps := packSrc[T]{d: g.data, kind: srcPooled, view: matView[T]{sp: sp, ch: tc.ch},
			y: y.data, argmax: argmax, ph: ph, pw: pw, band: tc.size * tc.ow}
		rows := tc.n * sp
		// Each block is packed into, and compared over, exactly the span
		// it owns — ⌈rows/w⌉·w by its depth — cut to that capacity, so a
		// packer writing past its span panics instead of going unseen.
		wantBuf, gotBuf := make([]T, gemmKC*gemmNC), make([]T, gemmKC*gemmNC)
		var want, got []T
		span := func(rows, w, depth int) {
			n := (rows + w - 1) / w * w * depth
			want, got = wantBuf[:n:n], gotBuf[:n:n]
			for i := range want {
				want[i], got[i] = 7, 7
			}
		}
		check := func(what string, i0, p0, a, b, w int) {
			t.Helper()
			for i := range want {
				if bits64(want[i]) != bits64(got[i]) {
					t.Fatalf("%+v: %s block (%d,%d) %dx%d, %d lanes: panel differs at %d: %v vs %v",
						tc, what, i0, p0, a, b, w, i, got[i], want[i])
				}
			}
		}
		for _, w := range []int{4, 8} {
			for _, i0 := range []int{0, 3, sp - 1, sp + tc.ow + 1, max(0, rows-gemmMC), rows - 5} {
				for _, p0 := range []int{0, 1} {
					mc, kc := min(gemmMC, rows-i0), tc.ch-p0
					span(mc, w, kc)
					packAPosChan(want, &gv, i0, p0, mc, kc, w)
					src := ps.fromRow(i0)
					src.packIntoA(got, 0, p0, mc, kc, w)
					check("A", i0, p0, mc, kc, w)
				}
			}
			for _, p0 := range []int{0, gemmKC, 5, sp + 3, max(0, rows-gemmKC+1)} {
				for _, j0 := range []int{0, 2} {
					if p0 >= rows || j0 >= tc.ch {
						continue
					}
					kc, nc := min(gemmKC, rows-p0), tc.ch-j0
					span(nc, w, kc)
					packBPosChan(want, &gv, p0, j0, kc, nc, w)
					ps.packIntoB(got, p0, j0, kc, nc, w)
					check("B", p0, j0, kc, nc, w)

					sums, ref := salted[T](rng, nc), make([]T, nc)
					copy(ref, sums)
					for j := range ref {
						for l := 0; l < kc; l++ {
							ref[j] += dense.data[gv.off(p0+l, j0+j)]
						}
					}
					addColumnSums(sums, got, kc, nc, w)
					for j := range ref {
						if !sameValue(sums[j], ref[j]) {
							t.Fatalf("%+v: column %d of B block (%d,%d): sum %v, want %v", tc, j, p0, j0, sums[j], ref[j])
						}
					}
				}
			}
		}
	}
}

func TestPackPooledMatchesPosChan(t *testing.T) {
	t.Run("f64", testPackPooledMatchesPosChan[float64])
	t.Run("f32", testPackPooledMatchesPosChan[float32])
}
