package tensor

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// The store-through parity matrix: every 256-bit kernel × {row-major,
// position-by-channel C} × {no epilogue, +bias, +bias→ReLU} × every
// count of valid columns × depths from none to past a KC panel, writing
// its first-panel tile into C itself, against the same kernel →
// accumulator → mergeTile on a copy of C. (Later panels have no
// store-through form: they accumulate through mergeTile on every kernel
// set.) Operands, bias and the C being overwritten carry NaNs with
// distinct payloads, ±Inf, ±0 and subnormals. The whole buffer must come
// out bit-identical — the tile's elements, and every element around
// them: the gaps between its rows, the columns past nrv, the
// neighbouring channel plane.
//
// One thing compiled Go does not pin is which payload survives NaN + NaN
// (the operand order of its ADDSD changes with build mode), so there
// mergeTile only has to produce a NaN, and the assembly is held to its
// documented order instead: the sum the first source of sum + bias
// (finishFirst).

// tileCase is one cell of the matrix.
type tileCase struct {
	indirect, trans bool
	bias, relu      bool
	nrv, kc         int
}

func (tc tileCase) String() string {
	return fmt.Sprintf("indirect=%v trans=%v bias=%v relu=%v nrv=%d kc=%d",
		tc.indirect, tc.trans, tc.bias, tc.relu, tc.nrv, tc.kc)
}

// storeTileDepths are the kc values of the matrix.
var storeTileDepths = []int{0, 1, 3, 12, 25, 257}

// forEachTileCase runs f over the matrix for an nr-wide tile.
func forEachTileCase(nr int, f func(tileCase)) {
	for _, indirect := range []bool{false, true} {
		for _, trans := range []bool{false, true} {
			for epilogue := 0; epilogue < 3; epilogue++ {
				for nrv := 1; nrv <= nr; nrv++ {
					for _, kc := range storeTileDepths {
						f(tileCase{indirect, trans, epilogue > 0, epilogue > 1, nrv, kc})
					}
				}
			}
		}
	}
}

// addFirst is a + b the way VADDP* adds: of two (quiet) NaNs the first
// source survives.
func addFirst[T Float](a, b T) T {
	if a != a && b != b {
		return a
	}
	return a + b
}

// finishFirst is one first-panel element of mergeTile with the operand
// order of the store-through tails.
func finishFirst[T Float](sum T, bias *T, relu bool) T {
	if bias != nil {
		sum = addFirst(sum, *bias)
	}
	if relu {
		sum = Select(sum > 0, sum, 0)
	}
	return sum
}

func testStoreTileMatchesMerge[T Float](t *testing.T) {
	if !useAVX {
		t.Skip("no store-through kernels on this host and build")
	}
	rng := rand.New(rand.NewSource(83))
	mr, nr := microTile[T]()
	forEachTileCase(nr, func(tc tileCase) {
		// The tile sits at column j of C, two rows (positions) in, with
		// slack all round: rows ld apart in a row-major C, columns sp
		// apart — one per channel plane — in a position-by-channel one.
		const j = 3
		ld, sp := j+nr+2, mr+5
		var rowOffs [gemmMaxMR]int
		cs, size := 1, (mr+4)*ld
		if tc.trans {
			cs, size = sp, (j+nr+1)*sp
		}
		for r := 0; r < mr; r++ {
			if tc.trans {
				rowOffs[r] = 2 + r
			} else {
				rowOffs[r] = (2 + r) * ld
			}
		}
		orig := salted[T](rng, size)
		bias := salted[T](rng, j+tc.nrv) // ends with the tile's last valid column

		// Operands, one spare step so &ap[0] is valid at kc = 0.
		x := salted[T](rng, 2048)
		rowOff, depthOff := make([]int, mr), make([]int, tc.kc)
		for r := range rowOff {
			rowOff[r] = rng.Intn(len(x) / 2)
		}
		for l := range depthOff {
			depthOff[l] = rng.Intn(len(x) / 2)
		}
		ap, bp := make([]T, mr*(tc.kc+1)), salted[T](rng, nr*(tc.kc+1))
		for l := 0; l < tc.kc; l++ {
			for r := 0; r < mr; r++ {
				ap[l*mr+r] = x[rowOff[r]+depthOff[l]]
			}
		}

		var fin *epi[T]
		to := tileDst[T]{ld: ld, nrv: tc.nrv}
		if tc.trans {
			to.ld, to.flags = sp, tileTrans
		}
		if tc.bias {
			fin = &epi[T]{bias: bias, relu: tc.relu}
			to.bias = &bias[j]
			if tc.relu {
				to.flags |= tileReLU
			}
		}

		want := append([]T(nil), orig...)
		var acc [gemmAccLen]T
		if tc.indirect {
			microKernelInd(tc.kc, x, rowOff, depthOff, bp, &acc)
		} else {
			microKernel(tc.kc, ap, bp, &acc)
		}
		mergeTile(want, rowOffs[:mr], cs, j, tc.nrv, nr, &acc, true, fin)

		got := append([]T(nil), orig...)
		to.c = &got[rowOffs[0]+j*cs]
		if tc.indirect {
			microKernelIndTo(tc.kc, x, rowOff, depthOff, bp, &to)
		} else {
			microKernelTo(tc.kc, ap, bp, &to)
		}

		pinned := append([]T(nil), orig...)
		for r := 0; r < mr; r++ {
			for c := 0; c < tc.nrv; c++ {
				o := rowOffs[r] + (j+c)*cs
				var b *T
				if tc.bias {
					b = &bias[j+c]
				}
				pinned[o] = finishFirst(acc[r*nr+c], b, tc.relu)
			}
		}
		for i := range got {
			if !sameValue(want[i], pinned[i]) {
				t.Fatalf("%v: C[%d]: mergeTile %v (%#x), its definition %v (%#x)", tc, i, want[i], bits64(want[i]), pinned[i], bits64(pinned[i]))
			}
			if bits64(got[i]) != bits64(pinned[i]) {
				t.Fatalf("%v: C[%d] = %v (%#x), mergeTile %v (%#x), before %v (%#x)",
					tc, i, got[i], bits64(got[i]), pinned[i], bits64(pinned[i]), orig[i], bits64(orig[i]))
			}
		}
	})
}

func TestStoreTileMatchesMerge(t *testing.T) {
	t.Run("f64", testStoreTileMatchesMerge[float64])
	t.Run("f32", testStoreTileMatchesMerge[float32])
}

// countGEMM runs f with the blocked core's counters switched on and
// returns the B panels packed and the tiles stored through.
func countGEMM(f func()) (packB, direct int) {
	gemmCount = new(struct{ packB, direct atomic.Int64 })
	defer func() { gemmCount = nil }()
	f()
	return int(gemmCount.packB.Load()), int(gemmCount.direct.Load())
}

// TestPackBOncePerColumnBlock pins the pack-once rule: a B panel depends
// on (p0, j0) alone, so with one k-panel a lane packs B once per column
// block however many row cells the block has — and again for every cell
// once the panels of a cell evict each other.
func TestPackBOncePerColumnBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, tc := range []struct{ m, n, k, want int }{
		{5 * gemmMC, 6, 25, 1},                          // a 20-image conv1 forward: five row cells, one pack
		{3*gemmMC + 7, 2*gemmNC + 5, gemmKC, 3},         // three column blocks
		{2 * gemmMC, gemmNC + 1, gemmKC + 1, 2 * 2 * 2}, // two k-panels: every cell packs both
	} {
		a, b := randTensorOf[float64](rng, tc.m, tc.k), randTensorOf[float64](rng, tc.k, tc.n)
		dst := New(tc.m, tc.n)
		var got int
		withLanes(t, 0, func() { got, _ = countGEMM(func() { MatMulInto(dst, a, b) }) })
		if got != tc.want {
			t.Errorf("m=%d n=%d k=%d: B packed %d times, want %d", tc.m, tc.n, tc.k, got, tc.want)
		}
	}
}

// lenetSTrainStep runs the GEMMs of one LeNet-S train step (16×16
// single-channel input, batch n) at the entry points nn calls, and
// returns how many register tiles they take: per m×n×k product one tile
// per mr rows, nr columns and KC panel.
func lenetSTrainStep[T Float](rng *rand.Rand, n int) (tiles int) {
	mr, nr := microTile[T]()
	gemm := func(m, n, k int) {
		tiles += ((m + mr - 1) / mr) * ((n + nr - 1) / nr) * ((k + gemmKC - 1) / gemmKC)
	}
	conv := func(c, hw, f, pad int, dX bool) {
		const k = 5
		x, w, bias := randTensorOf[T](rng, n, c, hw, hw), randTensorOf[T](rng, f, c*k*k), randTensorOf[T](rng, f)
		o := ConvOutSize(hw, k, 1, pad)
		y, g := NewOf[T](n, f, o, o), randTensorOf[T](rng, n, f, o, o)
		ConvForwardReLUInto(y, x, w, bias, k, k, 1, pad)
		gemm(n*o*o, f, c*k*k)
		ConvGradWeightsInto(NewOf[T](f, c*k*k), g, x, k, k, 1, pad)
		gemm(c*k*k, f, n*o*o)
		if dX {
			ConvGradInputInto(NewOf[T](n, c, hw, hw), g, w, k, k, 1, pad)
			chunk := convChunkElems / (c * k * k)
			for r0 := 0; r0 < n*o*o; r0 += chunk {
				gemm(min(chunk, n*o*o-r0), c*k*k, f)
			}
		}
	}
	dense := func(in, out int) {
		x, w, bias, g := randTensorOf[T](rng, n, in), randTensorOf[T](rng, out, in), randTensorOf[T](rng, out), randTensorOf[T](rng, n, out)
		MatMulTransBBiasReLUInto(NewOf[T](n, out), x, w, bias)
		gemm(n, out, in)
		MatMulTransAInto(NewOf[T](out, in), g, x)
		gemm(out, in, n)
		MatMulInto(NewOf[T](n, in), g, w)
		gemm(n, in, out)
	}
	conv(1, 16, 6, 2, false)
	conv(6, 8, 12, 0, true)
	dense(48, 48)
	dense(48, 10)
	return tiles
}

// TestLeNetSTilesStoreThrough pins that the fallback is the exception at
// the shapes the benchmark trains: at least nine tiles in ten of a
// LeNet-S step are written by the kernel at the round_churn batch (5),
// in both widths — the rest being ragged row tiles, tiles that straddle
// two images and the later k-panels of the weight gradients. Those
// panels grow with the batch (k = positions: 20 of them for conv1 at the
// evaluation batch, where nothing trains), so there the bar is 85 in a
// hundred. With the dispatch cleared — all a host without AVX or a build
// without the assembly has — no tile is: every one goes through the twins
// and mergeTile.
func TestLeNetSTilesStoreThrough(t *testing.T) {
	for _, avx := range kernelStates() {
		for _, tc := range []struct{ n, percent int }{{5, 90}, {20, 85}} {
			n := tc.n
			for _, f32 := range []bool{false, true} {
				var tiles int
				_, direct := countGEMM(func() {
					withKernels(avx, func() {
						rng := rand.New(rand.NewSource(97))
						if f32 {
							tiles = lenetSTrainStep[float32](rng, n)
						} else {
							tiles = lenetSTrainStep[float64](rng, n)
						}
					})
				})
				t.Logf("%s batch %d f32=%v: %d of %d tiles stored through", kernelSetName(avx), n, f32, direct, tiles)
				if avx && (direct*100 < tiles*tc.percent || direct > tiles) || !avx && direct != 0 {
					t.Errorf("%s batch %d f32=%v: %d of %d tiles stored through", kernelSetName(avx), n, f32, direct, tiles)
				}
			}
		}
	}
}
