package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedsched/internal/tensor"
)

// blockCase is one Conv2D → ReLU → MaxPool2D block for the fused-backward
// property test: batch n, input (inC, hw, hw), outC filters of size k with
// padding pad, a pool×stride max-pool. inner puts a parameterized 1×1
// convolution in front, so the block's convolution is not the network's
// first parameterized layer and owes an input gradient; detour runs an
// inference pass at another batch size between the training forward and
// the backward pass, which writes nothing the backward pass reads. fused
// is whether NetworkOf.Backward may take the virtual-gradient path at
// all — it must on every such case, and on no other.
type blockCase struct {
	name                     string
	n, inC, hw, outC, k, pad int
	pool, stride             int
	inner, detour, fused     bool
}

// fusedExpected is the rule backwardConvBlock implements, written down
// once more: a pool whose stride is its window. An inference pass in
// between leaves the layer state alone, and the shape plays no part.
func fusedExpected(tc blockCase) bool {
	return tc.stride == tc.pool
}

var blockCases = []blockCase{
	{name: "LeNet-S conv1", n: 20, inC: 1, hw: 16, outC: 6, k: 5, pad: 2, pool: 2, stride: 2, fused: true},
	{name: "LeNet-S conv2", n: 20, inC: 6, hw: 8, outC: 12, k: 5, pool: 2, stride: 2, inner: true, fused: true},
	{name: "LeNet-S conv2 at batch 5", n: 5, inC: 6, hw: 8, outC: 12, k: 5, pool: 2, stride: 2, inner: true, fused: true},
	{name: "VGG6-S block", n: 4, inC: 8, hw: 16, outC: 16, k: 3, pad: 1, pool: 2, stride: 2, inner: true, fused: true},
	// 14×14 planes: a gemmKC panel holds 1.3 of them, so panels cut
	// through planes and an image straddles two panels.
	{name: "plane 196", n: 5, inC: 3, hw: 14, outC: 5, k: 3, pad: 1, pool: 2, stride: 2, inner: true, fused: true},
	// 18×18 planes: larger than a panel.
	{name: "plane 324", n: 3, inC: 2, hw: 18, outC: 7, k: 3, pad: 1, pool: 2, stride: 2, inner: true, fused: true},
	// An odd plane leaves a row and a column no window covers; 3×3
	// pools; one filter; kdim = 144 taps, two row cells of the dW GEMM.
	{name: "odd plane", n: 3, inC: 2, hw: 15, outC: 4, k: 3, pad: 1, pool: 2, stride: 2, inner: true, fused: true},
	{name: "pool 3", n: 4, inC: 2, hw: 12, outC: 6, k: 3, pad: 1, pool: 3, stride: 3, inner: true, fused: true},
	{name: "one filter", n: 6, inC: 3, hw: 12, outC: 1, k: 5, pad: 2, pool: 2, stride: 2, fused: true},
	{name: "two row cells", n: 3, inC: 16, hw: 10, outC: 9, k: 3, pad: 1, pool: 2, stride: 2, inner: true, fused: true},
	// Tiny GEMMs: a dW of volume 2·9·16 = 288 and one of 4·9·2·64 = 4608;
	// a last input-gradient chunk of 13 rows (2·150·13 = 3900) behind a
	// full one.
	{name: "one tiny image", n: 1, inC: 1, hw: 6, outC: 2, k: 3, pool: 2, stride: 2, fused: true},
	{name: "two small images", n: 2, inC: 1, hw: 8, outC: 4, k: 3, pad: 1, pool: 2, stride: 2, fused: true},
	{name: "short last dX chunk", n: 122, inC: 6, hw: 5, outC: 2, k: 5, pool: 1, stride: 1, inner: true, fused: true},
	// A pattern the peephole must leave to the layers, and one it takes
	// although an inference pass ran in between.
	{name: "overlapping pool", n: 4, inC: 2, hw: 12, outC: 6, k: 3, pad: 1, pool: 3, stride: 2, inner: true},
	{name: "inference detour", n: 4, inC: 2, hw: 12, outC: 6, k: 3, pad: 1, pool: 2, stride: 2, inner: true, detour: true, fused: true},
}

// saltGrad overwrites a share of g with the values a gradient is never
// supposed to hold and the kernels must still carry through alike.
func saltGrad[T tensor.Float](rng *rand.Rand, g []T) {
	specials := []T{T(math.Copysign(0, -1)), 0, T(math.Inf(1)), T(math.Inf(-1)), T(math.NaN())}
	for i := range g {
		if rng.Intn(16) == 0 {
			g[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameGrad reports the first index at which two gradients differ: bit for
// bit, except that compiled Go does not pin which NaN's payload survives
// an add of two (see tensor's mergeTile), so NaN answers NaN.
func sameGrad[T tensor.Float](a, b []T) (int, bool) {
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// testConvBlockBackward holds the fused block backward (NetworkOf.Backward
// on the pooled gradient, see backwardConvBlock) to its definition: the
// same layers driven one by one through their own Forward and Backward.
// dW, db and — for an inner block — dX must agree bit for bit. Filter 0
// is all ties (zero weights, positive bias: every window's first element
// wins) and filter 1 all ≤ 0 (the mask passes nothing); salted gradients
// carry −0, ±Inf and NaN.
func testConvBlockBackward[T tensor.Float](t *testing.T, tc blockCase, seed int64, salt bool) {
	build := func() (*NetworkOf[T], *Conv2DOf[T], *MaxPool2DOf[T]) {
		rng := rand.New(rand.NewSource(seed))
		var layers []LayerOf[T]
		if tc.inner {
			layers = append(layers, NewConv2DOf[T](rng, tc.inC, tc.inC, 1, 1, 0))
		}
		c := NewConv2DOf[T](rng, tc.inC, tc.outC, tc.k, 1, tc.pad)
		for f := 0; f < min(2, tc.outC-1); f++ {
			clear(c.w.W.Data()[f*tc.inC*tc.k*tc.k:][:tc.inC*tc.k*tc.k])
			c.b.W.Data()[f] = T(0.5 - float64(f))
		}
		p := NewMaxPool2DOf[T](tc.pool, tc.stride)
		return NewNetworkOf[T]("block", append(layers, c, NewReLUOf[T](), p)...), c, p
	}
	fusedNet, fc, fp := build()
	layerNet, lc, _ := build()
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.RandnOf[T](rng, 1, tc.n, tc.inC, tc.hw, tc.hw)

	y := fusedNet.Forward(x, true)
	grad := tensor.RandnOf[T](rng, 1, y.Shape()...)
	if salt {
		saltGrad(rng, grad.Data())
	}
	if tc.detour {
		fusedNet.Predict(tensor.RandnOf[T](rng, 1, tc.n+1, tc.inC, tc.hw, tc.hw))
	}
	fusedNet.Backward(grad.Clone())
	if ran := fp.dx == nil; ran != tc.fused {
		t.Fatalf("%s: virtual-gradient path ran: %v, want %v", tc.name, ran, tc.fused)
	}

	ly := x
	for _, l := range layerNet.Layers {
		ly = l.Forward(ly, true)
	}
	if at, ok := sameGrad(y.Data(), ly.Data()); !ok {
		t.Fatalf("%s: forward differs at %d", tc.name, at)
	}
	g := grad.Clone()
	for i := len(layerNet.Layers) - 1; i >= 0; i-- {
		g = layerNet.Layers[i].Backward(g)
	}
	pf, pl := fusedNet.Params(), layerNet.Params()
	for i := range pf {
		if at, ok := sameGrad(pf[i].Grad.Data(), pl[i].Grad.Data()); !ok {
			t.Fatalf("%s: %s gradient differs at %d: %v fused, %v layer by layer", tc.name, pf[i].Name, at,
				pf[i].Grad.Data()[at], pl[i].Grad.Data()[at])
		}
	}
	if tc.inner {
		if at, ok := sameGrad(fc.dx.Data(), lc.dx.Data()); !ok {
			t.Fatalf("%s: dX differs at %d: %v fused, %v layer by layer", tc.name, at, fc.dx.Data()[at], lc.dx.Data()[at])
		}
	}
}

// TestConvBlockBackward is the property table; `make purego` runs it on
// the Go twins.
func TestConvBlockBackward(t *testing.T) {
	for _, tc := range blockCases {
		if tc.fused != fusedExpected(tc) {
			t.Fatalf("%s: table says fused = %v", tc.name, tc.fused)
		}
		for _, salt := range []bool{false, true} {
			testConvBlockBackward[float64](t, tc, 71, salt)
			testConvBlockBackward[float32](t, tc, 71, salt)
		}
	}
}

// FuzzConvBlockBackward searches the block geometries the table samples:
// whatever NetworkOf.Backward decides to do with a Conv2D → ReLU →
// MaxPool2D block, the gradients are the layer-by-layer ones, in both
// precisions.
func FuzzConvBlockBackward(f *testing.F) {
	f.Add(uint8(19), uint8(0), uint8(12), uint8(5), uint8(2), uint8(2), uint8(1), uint8(1), false, int64(1)) // LeNet-S conv1
	f.Add(uint8(19), uint8(5), uint8(4), uint8(11), uint8(2), uint8(0), uint8(1), uint8(1), true, int64(2))  // LeNet-S conv2
	f.Add(uint8(3), uint8(7), uint8(12), uint8(15), uint8(1), uint8(1), uint8(1), uint8(1), true, int64(3))  // VGG6-S block
	f.Add(uint8(4), uint8(2), uint8(10), uint8(4), uint8(1), uint8(1), uint8(2), uint8(1), true, int64(4))   // overlapping pool
	f.Add(uint8(121), uint8(5), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), true, int64(5))  // short last dX chunk
	f.Add(uint8(2), uint8(1), uint8(14), uint8(6), uint8(1), uint8(1), uint8(1), uint8(1), true, int64(6))   // plane 324
	f.Add(uint8(2), uint8(15), uint8(6), uint8(8), uint8(1), uint8(1), uint8(1), uint8(1), true, int64(7))   // two row cells
	f.Add(uint8(0), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), false, int64(8))   // one tiny image
	f.Add(uint8(3), uint8(1), uint8(8), uint8(5), uint8(1), uint8(1), uint8(2), uint8(2), true, int64(9))    // pool 3
	f.Add(uint8(2), uint8(1), uint8(11), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), true, int64(10))  // odd plane
	f.Add(uint8(4), uint8(2), uint8(10), uint8(4), uint8(1), uint8(1), uint8(1), uint8(1), false, int64(11)) // plane 196, first
	f.Add(uint8(40), uint8(5), uint8(4), uint8(11), uint8(2), uint8(0), uint8(1), uint8(1), true, int64(12)) // pos = 656: a 2-row last chunk
	f.Fuzz(func(t *testing.T, n, inC, hw, outC, k, pad, pool, stride uint8, inner bool, seed int64) {
		tc := blockCase{
			name: "fuzz", n: 1 + int(n)%128, inC: 1 + int(inC)%16, hw: 4 + int(hw)%16, outC: 1 + int(outC)%16,
			k: 1 + 2*(int(k)%3), pad: int(pad) % 3, pool: 1 + int(pool)%3, stride: 1 + int(stride)%3, inner: inner,
		}
		oh := tc.hw + 2*tc.pad - tc.k + 1
		if oh < tc.pool || tc.n*tc.inC*tc.hw*tc.hw > 1<<16 {
			t.Skip("no pooled output, or more than the smoke budget wants")
		}
		tc.fused = fusedExpected(tc)
		testConvBlockBackward[float64](t, tc, seed, seed%2 == 0)
		testConvBlockBackward[float32](t, tc, seed, seed%2 == 0)
	})
}
