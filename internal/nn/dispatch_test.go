package nn

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"fedsched/internal/tensor"
)

// tensorUseAVX is tensor's unexported micro-kernel dispatch switch (see
// internal/tensor/gemm_amd64.go): true where the 256-bit kernels run.
// There is deliberately no exported way to reach it; this test only ever
// clears it and puts it back.
//
//go:linkname tensorUseAVX fedsched/internal/tensor.useAVX
var tensorUseAVX bool

// trainLeNetSmall trains a fixed-seed LeNet-S for a few momentum-SGD
// steps — GEMMs of one and of many cells, both indirect convolution
// passes, the fused epilogues, pooling — and returns the losses and
// every weight.
func trainLeNetSmall[T tensor.Float]() (losses []float64, weights [][]T) {
	rng := rand.New(rand.NewSource(53))
	net := BuildNetwork[T](LeNetSmall(1, 16, 16, 10), rng)
	x := tensor.RandnOf[T](rng, 1, 20, 1, 16, 16)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt := NewSGDOf[T](0.05, 0.9, 1e-4)
	for step := 0; step < 5; step++ {
		losses = append(losses, net.TrainBatch(x, labels))
		opt.Step(net.Params())
	}
	for _, p := range net.Params() {
		weights = append(weights, append([]T(nil), p.W.Data()...))
	}
	return losses, weights
}

// testKernelSetsTrainAlike pins the dispatch contract where it matters:
// a training run is the same run, bit for bit, on the 256-bit kernels
// (8×8 float32 tile, tiles stored through) and on the Go twins every
// other host and build runs.
func testKernelSetsTrainAlike[T tensor.Float](t *testing.T) {
	if !tensorUseAVX {
		t.Skip("one kernel set on this host and build: nothing to compare")
	}
	lossAVX, wAVX := trainLeNetSmall[T]()
	tensorUseAVX = false
	defer func() { tensorUseAVX = true }()
	lossTwin, wTwin := trainLeNetSmall[T]()
	for i := range lossAVX {
		if math.Float64bits(lossAVX[i]) != math.Float64bits(lossTwin[i]) {
			t.Fatalf("step %d: loss %v on AVX, %v on the twins", i, lossAVX[i], lossTwin[i])
		}
	}
	for i := range wAVX {
		if at, ok := sameBits(wAVX[i], wTwin[i]); !ok {
			t.Fatalf("parameter %d differs at %d: %v on AVX, %v on the twins", i, at, wAVX[i][at], wTwin[i][at])
		}
	}
}

func TestKernelSetsTrainBitIdentical(t *testing.T) {
	t.Run("f64", testKernelSetsTrainAlike[float64])
	t.Run("f32", testKernelSetsTrainAlike[float32])
}

// testMaxPool2x2MatchesWindow is the differential test of the 2×2 /
// stride-2 fast path against the general window loop: values bit for bit
// and the recorded argmax, on odd and even planes, with ties, NaNs (a NaN
// never beats and is never beaten: strict >), infinities and signed
// zeros, recording and not.
func testMaxPool2x2MatchesWindow[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	nan, inf, negZero := T(math.NaN()), T(math.Inf(1)), T(math.Copysign(0, -1))
	odd := []T{nan, inf, -inf, negZero, 0, 1, 1, -1}
	for _, dim := range [][3]int{{1, 2, 2}, {3, 4, 4}, {2, 5, 7}, {4, 16, 16}, {1, 3, 2}, {2, 2, 9}} {
		planes, h, w := dim[0], dim[1], dim[2]
		oh, ow := (h-2)/2+1, (w-2)/2+1
		x := tensor.RandnOf[T](rng, 1, planes, h, w).Data()
		for i := range x {
			if rng.Intn(3) == 0 {
				x[i] = odd[rng.Intn(len(odd))]
			}
		}
		for _, train := range []bool{true, false} {
			want, got := make([]T, planes*oh*ow), make([]T, planes*oh*ow)
			var wantArg, gotArg []int
			if train {
				wantArg, gotArg = make([]int, len(want)), make([]int, len(got))
			}
			maxPoolWindow(want, wantArg, x, planes, h, w, oh, ow, 2, 2)
			maxPool2x2(got, gotArg, x, planes, h, w, oh, ow)
			if at, ok := sameBits(want, got); !ok {
				t.Fatalf("%v train=%v: output %d = %v, window loop %v", dim, train, at, got[at], want[at])
			}
			for i := range wantArg {
				if gotArg[i] != wantArg[i] {
					t.Fatalf("%v: argmax %d = %d, window loop %d", dim, i, gotArg[i], wantArg[i])
				}
			}
		}
	}
	// The layer takes the fast path exactly at (2, 2) and agrees with a
	// layer that cannot.
	x := tensor.RandnOf[T](rng, 1, 2, 3, 8, 8)
	fast, slow := NewMaxPool2DOf[T](2, 2), NewMaxPool2DOf[T](2, 2)
	yf := fast.Forward(x, true)
	slow.y = tensor.EnsureShape(slow.y, yf.Shape()...)
	slow.argmax = make([]int, yf.Len())
	maxPoolWindow(slow.y.Data(), slow.argmax, x.Data(), 6, 8, 8, 4, 4, 2, 2)
	if at, ok := sameBits(yf.Data(), slow.y.Data()); !ok {
		t.Fatalf("layer output differs at %d", at)
	}
	for i, a := range fast.argmax {
		if a != slow.argmax[i] {
			t.Fatalf("layer argmax %d = %d, window loop %d", i, a, slow.argmax[i])
		}
	}
}

func TestMaxPool2x2MatchesWindow(t *testing.T) {
	t.Run("f64", testMaxPool2x2MatchesWindow[float64])
	t.Run("f32", testMaxPool2x2MatchesWindow[float32])
}
