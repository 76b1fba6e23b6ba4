package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The tensor conformance table: every row is a named shape family —
// GEMM shapes or convolution geometries — and conform holds each of its
// instances, at float64 and at float32, to every check the size rule
// admits.
//
// A GEMM instance runs the five MatMul entry points — A·B, Aᵀ·B, A·Bᵀ,
// A·Bᵀ + bias, max(0, A·Bᵀ + bias) — and a convolution instance
// ConvForwardInto into both layouts, ConvForwardReLUInto into
// (N,C,H,W), and ConvGradWeightsInto and ConvGradInputInto from the
// gradient in both layouts. Every output is written over a sentinel.
// At the default kernel state:
//
//   - GEMM: naive_test.go's loop for the layout, + bias and the clamp
//     after it, within Eps[T]·⌈k/gemmKC⌉; the ReLU output is the clamp
//     of the bias output bit for bit.
//   - Convolution: the im2col oracle (oracleConv) bit for bit, each
//     layout and the clamp included; the forward pass within Eps[T]
//     times its products' summed magnitude of directConv, which adds
//     every product in float64.
//   - Convolution with finite inputs: the adjoint identities
//     ⟨x, dX(g)⟩ = ⟨dW(x, g), w⟩ = ⟨g, y − bias⟩ within Eps[T] times the
//     triple sum's summed magnitude.
//   - A planted 0·Inf (plant) is NaN exactly where nanAt says.
//   - Some GEMM of the instance fans out (fansOut): lanes 1 and 3 — and
//     2 and 8 on a lane row — give lanes 0's outputs bit for bit.
//
// At every other kernel state of the host (kernelStates) the instance
// runs at lanes 0, or, where it fans out, at lanes 3 — 1, 2, 3 and 8 on
// a lane row — and every output must be the default state's lanes-0
// one, up to NaN payload: the cells are cut and merged by the same code
// whichever kernels fill them (laneCounts).
//
// The top-level entry tests hold their rows at the default kernel
// state; TestKernelSetsByteIdentical holds every entry at every state.
// Each row runs under its entry test, the one whose fixture it was
// before the table existed, so `go test -run` still picks a family by
// that name; rows hold the entry as a function, so a misnamed one does
// not compile. An instance's outputs are computed once per (kernel state,
// lane count) and its checks pass once per kernel state per test binary
// (held): a later run of the same instance at the same state — under
// TestKernelSetsByteIdentical, or in another row — reports that pass.
// The default state's lanes-0 outputs are kept for the other states to
// be held to.

// instance is one point of a family: a GEMM shape (op(A) m×k, op(B)
// k×n) or a convolution geometry cv, the seed of its operands, the 0·Inf
// it plants in them, and whether it is a lane row.
type instance struct {
	m, k, n int
	cv      convCase
	seed    int64
	plant   plant
	wide    bool
}

// plant is where an instance puts a 0·Inf product.
type plant int

const (
	plantNone plant = iota
	plantGEMM       // A(0, 0) = 0, B(0, 0) = +Inf
	plantFwd        // w(0, tap 0) = +Inf against the padding
	plantGrad       // g(image 0, filter 0, position 0) = 0, x[0] = w[0] = +Inf
)

func (in instance) isConv() bool { return in.cv != convCase{} }

func (in instance) String() string {
	if !in.isConv() {
		return fmt.Sprintf("%dx%dx%d", in.m, in.k, in.n)
	}
	c := in.cv
	return fmt.Sprintf("%dx%dx%dx%d-f%d-k%d-s%d-p%d", c.n, c.c, c.h, c.w, c.f, c.k, c.stride, c.pad)
}

// family is one row of the table. entry is the test that runs it, at
// both precisions unless entry32 is the one that runs its float32 half.
type family struct {
	entry, entry32 func(*testing.T)
	name           string
	insts          []instance
}

// entryFor is the name of the entry that runs f at float32 when f32 is
// set, at float64 otherwise.
func (f family) entryFor(f32 bool) string {
	if f32 && f.entry32 != nil {
		return entryName(f.entry32)
	}
	return entryName(f.entry)
}

// entryName is an entry's function name without its package and its
// Test (or test) prefix: the name TestKernelSetsByteIdentical labels it
// by.
func entryName(entry func(*testing.T)) string {
	name := runtime.FuncForPC(reflect.ValueOf(entry).Pointer()).Name()
	name = name[strings.LastIndexByte(name, '.')+1:]
	return strings.TrimPrefix(strings.TrimPrefix(name, "Test"), "test")
}

// testFuzzConvGeomSeeds is the entry of the row that holds FuzzConvGeom's
// seed corpus. It runs nothing: `go test` runs those inputs through
// FuzzConvGeom, which shares the row's outputs and passes, so only
// TestKernelSetsByteIdentical runs the row as an entry.
func testFuzzConvGeomSeeds(*testing.T) {}

func gemmRow(entry func(*testing.T), name string, shapes ...[3]int) family {
	f := family{entry: entry, name: name}
	for _, s := range shapes {
		f.insts = append(f.insts, instance{m: s[0], k: s[1], n: s[2], seed: 1})
	}
	return f
}

func convRow(entry func(*testing.T), name string, cases ...convCase) family {
	f := family{entry: entry, name: name}
	for _, c := range cases {
		f.insts = append(f.insts, instance{cv: c, seed: 1})
	}
	return f
}

// with returns f with every instance planting p and, if wide, on the
// lane rows' lane counts.
func (f family) with(p plant, wide bool) family {
	for i := range f.insts {
		f.insts[i].plant, f.insts[i].wide = p, wide
	}
	return f
}

// families is the table.
func families() []family {
	var grid, random [][3]int
	sizes := []int{1, 3, 5, 17, 64, 65}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				grid = append(grid, [3]int{m, k, n})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 25 {
		random = append(random, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	laneCases := []convCase{{8, 20, 12, 12, 40, 5, 1, 0}, packCases[len(packCases)-1]}
	return []family{
		gemmRow(TestBlockedMatchesNaiveProperty, "grid", grid...),
		gemmRow(TestMatMulMatchesNaiveProperty, "random", random...),
		gemmRow(TestMatMulTransAB, "transposed", [3]int{13, 9, 7}, [3]int{9, 13, 11}),
		gemmRow(TestGEMMEpilogueBias, "tiles", [3]int{5, 7, 9}, [3]int{100, 80, 70}),
		gemmRow(TestMatMulTransBParallelPath, "cells", [3]int{100, 33, 90}),
		gemmRow(TestMatMulParallelPath, "cells", [3]int{130, 50, 120}),
		gemmRow(TestGEMMEpilogueBiasReLU, "three-panel", [3]int{37, 2*gemmKC + 19, 21}),
		gemmRow(TestBlockedMatchesNaiveMultiPanel, "multi-panel", [3]int{150, 600, 500}),
		{entry: TestGEMMBitIdenticalAcrossLanes, entry32: TestGEMMBitIdenticalAcrossLanesF32, name: "lanes",
			insts: []instance{{m: 260, k: 300, n: 250, seed: 1, wide: true}}},
		gemmRow(TestGEMMKZeroAndEmpty, "k=0", [3]int{3, 0, 4}),
		gemmRow(TestGEMMKZeroAndEmpty, "empty", [3]int{0, 5, 4}, [3]int{3, 5, 0}, [3]int{0, 0, 0}),
		gemmRow(TestNonFiniteAtEveryShape, "gemm", [3]int{2, 3, 2}, [3]int{20, 30, 20}).with(plantGEMM, false),

		convRow(TestIm2ColConvMatchesNaive, "convCases", convCases[:4]...),
		convRow(TestConvImplicitMatchesIm2ColOracle, "convCases", convCases[4:]...),
		convRow(TestConvFusedLayoutsMatchOracle, "packCases", packCases[:len(packCases)-1]...),
		convRow(TestConvGradInputChunkBoundaries, "chunks",
			convCase{1, 7, 9, 9, 3, 3, 1, 1},   // kdim = 63: one short chunk of 81 rows
			convCase{4, 6, 17, 17, 2, 5, 2, 2}, // kdim = 150, m = 324: several chunks, a ragged tail
		),
		convRow(TestConvImplicitBitIdenticalAcrossLanes, "lanes", laneCases...).with(plantNone, true),
		convRow(TestCol2ImAdjointProperty, "adjoint", convCase{2, 2, 6, 6, 3, 3, 1, 1}),
		convRow(testFuzzConvGeomSeeds, "seeds", fuzzSeedCases()...),
		// The padded forward pass reads a padding zero against the +Inf
		// weight along the top row and the left column; the unpadded
		// gradients meet 0·Inf in their first element.
		convRow(TestNonFiniteAtEveryShape, "conv-forward", convCase{1, 1, 4, 4, 2, 3, 1, 1}, convCase{2, 3, 8, 8, 4, 3, 1, 1}).with(plantFwd, false),
		convRow(TestNonFiniteAtEveryShape, "conv-gradients", convCase{1, 1, 4, 4, 2, 3, 1, 0}, convCase{2, 3, 8, 8, 4, 3, 1, 0}).with(plantGrad, false),
	}
}

// fuzzSeedCases is FuzzConvGeom's seed corpus as the geometries it folds to.
func fuzzSeedCases() []convCase {
	var cases []convCase
	for _, args := range convGeomSeeds() {
		if tc, ok := convCaseFromFuzz(args); ok {
			cases = append(cases, tc)
		}
	}
	return cases
}

// properties are the implementation-property tests held at every
// kernel state beside the table: their checks depend on the state (the
// register tile, the kernels the parity matrix lists) but compare no
// outputs across states.
var properties = map[string][2]func(*testing.T){
	"BlockedTileEquivalence":    {testBlockedTileEquivalence[float64], testBlockedTileEquivalence[float32]},
	"MicroKernelMatchesTwin":    {func(t *testing.T) { testKernelParity[float64](t, false) }, func(t *testing.T) { testKernelParity[float32](t, false) }},
	"MicroKernelIndMatchesTwin": {func(t *testing.T) { testKernelParity[float64](t, true) }, func(t *testing.T) { testKernelParity[float32](t, true) }},
	"ConvPackersMatchIm2col":    {testConvPackersMatchIm2col[float64], testConvPackersMatchIm2col[float32]},
}

// held records the checks that passed in this test binary: a heldKey per
// (instance, precision, kernel state) and a propKey per (property,
// precision, kernel state).
var held = map[any]bool{}

type heldKey struct {
	in       instance
	f32, avx bool
}

type propKey struct {
	name     string
	f32, avx bool
}

// defaultOuts keeps each instance's lanes-0 outputs at the default
// kernel state, by its heldKey there, for the other states to be held
// to.
var defaultOuts = map[heldKey]any{}

// defaultState is the kernel state the package initialised to.
func defaultState() bool { return kernelStates()[0] }

// conformEntry runs the rows of the calling test at the default state.
func conformEntry(t *testing.T) {
	runEntry(t, strings.TrimPrefix(t.Name(), "Test"), defaultState())
}

// runEntry holds entry's rows — or entry's property test — at kernel
// state avx, one subtest per precision.
func runEntry(t *testing.T, entry string, avx bool) {
	prop, isProp := properties[entry]
	ran := false
	for i, prec := range []string{"f64", "f32"} {
		f32 := i == 1
		var rows []family
		for _, f := range families() {
			if f.entryFor(f32) == entry {
				rows = append(rows, f)
			}
		}
		if !isProp && len(rows) == 0 {
			continue
		}
		ran = true
		t.Run(prec, func(t *testing.T) {
			if isProp {
				if key := (propKey{entry, f32, avx}); !held[key] {
					withKernels(avx, func() { prop[i](t) })
					held[key] = !t.Failed()
				}
				return
			}
			for _, f := range rows {
				t.Run(f.name, func(t *testing.T) {
					for _, in := range f.insts {
						run := func(t *testing.T) {
							if f32 {
								conform[float32](t, in, avx, true)
							} else {
								conform[float64](t, in, avx, true)
							}
						}
						if len(f.insts) == 1 {
							run(t)
						} else {
							t.Run(in.String(), run)
						}
					}
				})
			}
		})
	}
	if !ran {
		t.Fatalf("no conformance rows or property test for %q", entry)
	}
}

// conform holds in at element type T and kernel state avx to every check
// of the table's size rule. With keep unset nothing is recorded (a fuzz
// input).
func conform[T Float](t *testing.T, in instance, avx, keep bool) {
	t.Helper()
	key := heldKey{in, isF32[T](), avx}
	if held[key] {
		return
	}
	ops := newOperands[T](in)
	names := gemmOuts
	if in.isConv() {
		names = convOuts
	}
	// The default state's lanes-0 outputs: the oracles hold them, and
	// they hold every other run of the instance.
	dkey := heldKey{in, isF32[T](), defaultState()}
	ref, ok := defaultOuts[dkey].([]*TensorOf[T])
	if !ok {
		ref = ops.runAt(t, defaultState(), 0)
		if keep && len(kernelStates()) > 1 {
			defaultOuts[dkey] = ref
		}
	}
	same := sameValue[T]
	if avx == defaultState() {
		if in.isConv() {
			checkConv(t, ops, ref)
		} else {
			checkGEMM(t, ops, ref)
		}
		checkNaN(t, in, names, ref)
		same = func(a, b T) bool { return bits64(a) == bits64(b) }
	}
	for _, l := range laneCounts(in, avx) {
		what := fmt.Sprintf("%s lanes %d vs %s lanes 0", kernelSetName(avx), l, kernelSetName(defaultState()))
		sameOutputs(t, what, names, ops.runAt(t, avx, l), ref, same)
	}
	if keep {
		held[key] = !t.Failed()
	}
}

// laneCounts are the lane counts conform runs in at kernel state avx,
// the default state's lanes 0 aside.
func laneCounts(in instance, avx bool) []int {
	other := avx != defaultState()
	switch {
	case !fansOut(in) && other:
		return []int{0}
	case !fansOut(in):
		return nil
	case in.wide:
		return []int{1, 2, 3, 8}
	case other:
		return []int{3}
	}
	return []int{1, 3}
}

// fansOut reports whether one of in's GEMMs hands cells to other lanes
// (gemmBlockedOps' test).
func fansOut(in instance) bool {
	fans := false
	gemm := func(m, n, k int) {
		fans = fans || ((m+gemmMC-1)/gemmMC)*((n+gemmNC-1)/gemmNC) > 1 && m*n*k >= gemmParallelCutoff
	}
	if in.isConv() {
		c := in.cv
		rows := c.n * ConvOutSize(c.h, c.k, c.stride, c.pad) * ConvOutSize(c.w, c.k, c.stride, c.pad)
		kdim := c.c * c.k * c.k
		gemm(rows, c.f, kdim)                                   // forward
		gemm(kdim, c.f, rows)                                   // dWᵀ
		gemm(min(rows, max(1, convChunkElems/kdim)), kdim, c.f) // a dX chunk
	} else {
		gemm(in.m, in.n, in.k)
	}
	return fans
}

// operands are an instance's inputs at element type T, drawn from its
// seed, with its plant in place.
type operands[T Float] struct {
	in instance
	// GEMM: A (m×k) and Aᵀ stored k×m, B (k×n) and Bᵀ stored n×k, bias.
	a, at, b, bt, bias *TensorOf[T]
	// Convolution: input, weights (f × c·k·k), the output gradient in
	// (N,F,OH,OW) and its matmul-layout copy (N·OH·OW × F); bias above.
	x, w, grad, gm *TensorOf[T]
	oh, ow         int
}

func newOperands[T Float](in instance) *operands[T] {
	rng := rand.New(rand.NewSource(in.seed))
	o := &operands[T]{in: in}
	inf := T(math.Inf(1))
	if !in.isConv() {
		o.a, o.at = randTensorOf[T](rng, in.m, in.k), randTensorOf[T](rng, in.k, in.m)
		o.b, o.bt = randTensorOf[T](rng, in.k, in.n), randTensorOf[T](rng, in.n, in.k)
		o.bias = randTensorOf[T](rng, in.n)
		if in.plant == plantGEMM {
			o.a.data[0], o.at.data[0] = 0, 0
			o.b.data[0], o.bt.data[0] = inf, inf
		}
		return o
	}
	c := in.cv
	o.oh, o.ow = ConvOutSize(c.h, c.k, c.stride, c.pad), ConvOutSize(c.w, c.k, c.stride, c.pad)
	o.x = randTensorOf[T](rng, c.n, c.c, c.h, c.w)
	o.w = randTensorOf[T](rng, c.f, c.c*c.k*c.k)
	o.bias = randTensorOf[T](rng, c.f)
	o.grad = randTensorOf[T](rng, c.n, c.f, o.oh, o.ow)
	switch in.plant {
	case plantFwd:
		o.w.data[0] = inf
	case plantGrad:
		o.x.data[0], o.w.data[0], o.grad.data[0] = inf, inf, 0
	}
	rows := c.n * o.oh * o.ow
	o.gm = NewOf[T](rows, c.f)
	for p := range rows {
		for f := range c.f {
			o.gm.data[p*c.f+f] = o.grad.data[o.nchw(p, f)]
		}
	}
	return o
}

// nchw is the (N, F, OH, OW) offset of output position p, channel f.
func (o *operands[T]) nchw(p, f int) int {
	ohw := o.oh * o.ow
	return (p/ohw*o.in.cv.f+f)*ohw + p%ohw
}

// Output names, in run's order.
var (
	gemmOuts = []string{"A·B", "Aᵀ·B", "A·Bᵀ", "A·Bᵀ+bias", "relu(A·Bᵀ+bias)"}
	convOuts = []string{"forward", "forward NCHW", "forward+ReLU NCHW", "dW", "dW NCHW", "dX", "dX NCHW"}
)

// runAt is run at kernel state avx with the lane pool resized to lanes.
func (o *operands[T]) runAt(t *testing.T, avx bool, lanes int) (out []*TensorOf[T]) {
	withKernels(avx, func() { withLanes(t, lanes, func() { out = o.run() }) })
	return out
}

// run calls every entry point of the instance's kind once, each into an
// output filled with a sentinel it must overwrite.
func (o *operands[T]) run() []*TensorOf[T] {
	out := func(shape ...int) *TensorOf[T] {
		t := NewOf[T](shape...)
		t.Fill(7)
		return t
	}
	in := o.in
	if !in.isConv() {
		c := []*TensorOf[T]{out(in.m, in.n), out(in.m, in.n), out(in.m, in.n), out(in.m, in.n), out(in.m, in.n)}
		MatMulInto(c[0], o.a, o.b)
		MatMulTransAInto(c[1], o.at, o.b)
		MatMulTransBInto(c[2], o.a, o.bt)
		MatMulTransBBiasInto(c[3], o.a, o.bt, o.bias)
		MatMulTransBBiasReLUInto(c[4], o.a, o.bt, o.bias)
		return c
	}
	cv := in.cv
	n, f, k, s, p := cv.n, cv.f, cv.k, cv.stride, cv.pad
	r := []*TensorOf[T]{
		out(n*o.oh*o.ow, f), out(n, f, o.oh, o.ow), out(n, f, o.oh, o.ow),
		out(f, cv.c*k*k), out(f, cv.c*k*k), out(n, cv.c, cv.h, cv.w), out(n, cv.c, cv.h, cv.w),
	}
	ConvForwardInto(r[0], o.x, o.w, o.bias, k, k, s, p)
	ConvForwardInto(r[1], o.x, o.w, o.bias, k, k, s, p)
	ConvForwardReLUInto(r[2], o.x, o.w, o.bias, k, k, s, p)
	ConvGradWeightsInto(r[3], o.gm, o.x, k, k, s, p)
	ConvGradWeightsInto(r[4], o.grad, o.x, k, k, s, p)
	ConvGradInputInto(r[5], o.gm, o.w, k, k, s, p)
	ConvGradInputInto(r[6], o.grad, o.w, k, k, s, p)
	return r
}

// sameOutputs fails, once per output, where got and want are not the
// same value.
func sameOutputs[T Float](t *testing.T, what string, names []string, got, want []*TensorOf[T], same func(a, b T) bool) {
	t.Helper()
	for o := range got {
		for i, v := range got[o].data {
			if w := want[o].data[i]; !same(v, w) {
				t.Errorf("%s: %s[%d] = %v (%#x), want %v (%#x)", what, names[o], i, v, bits64(v), w, bits64(w))
				break
			}
		}
	}
}

// relu is the fused epilogue's clamp: NaN and −0 clamp to +0.
func relu[T Float](v T) T {
	if v > 0 {
		return v
	}
	return 0
}

// near reports whether got is want within tol: equal (infinities
// included), both NaN, or nearer than tol.
func near(got, want, tol float64) bool {
	return got == want || math.IsNaN(got) && math.IsNaN(want) || math.Abs(got-want) <= tol
}

// checkGEMM holds a GEMM instance's outputs to the naive loops.
func checkGEMM[T Float](t *testing.T, o *operands[T], out []*TensorOf[T]) {
	t.Helper()
	in := o.in
	tol := Eps[T]() * float64(max(1, (in.k+gemmKC-1)/gemmKC))
	want := []*TensorOf[T]{NewOf[T](in.m, in.n), NewOf[T](in.m, in.n), NewOf[T](in.m, in.n), NewOf[T](in.m, in.n), NewOf[T](in.m, in.n)}
	naiveMatMulInto(want[0], o.a, o.b)
	naiveMatMulTransAInto(want[1], o.at, o.b)
	naiveMatMulTransBInto(want[2], o.a, o.bt)
	for i, v := range want[2].data {
		want[3].data[i] = v + o.bias.data[i%max(1, in.n)]
		want[4].data[i] = relu(want[3].data[i])
	}
	for k := range out {
		for i, v := range out[k].data {
			if w := want[k].data[i]; !near(float64(v), float64(w), tol) {
				t.Errorf("%s[%d] (row %d) = %v, naive %v (tolerance %g)", gemmOuts[k], i, i/max(1, in.n), v, w, tol)
				break
			}
		}
	}
	for i, v := range out[4].data {
		if c := relu(out[3].data[i]); bits64(v) != bits64(c) {
			t.Errorf("relu(A·Bᵀ+bias)[%d] = %v, the clamp of A·Bᵀ+bias is %v", i, v, c)
			break
		}
	}
}

// checkConv holds a convolution instance's outputs to the im2col oracle,
// directConv and, on finite inputs, the adjoint identities.
func checkConv[T Float](t *testing.T, o *operands[T], out []*TensorOf[T]) {
	t.Helper()
	cv := o.in.cv
	ym, dw, dx := oracleConv(o.x, o.w, o.bias, o.gm, cv.k, cv.stride, cv.pad)
	y, yr := NewOf[T](out[1].shape...), NewOf[T](out[2].shape...)
	for p := range ym.Dim(0) {
		for f := range cv.f {
			v := ym.data[p*cv.f+f]
			y.data[o.nchw(p, f)], yr.data[o.nchw(p, f)] = v, relu(v)
		}
	}
	sameOutputs(t, "im2col oracle", convOuts, out, []*TensorOf[T]{ym, y, yr, dw, dw, dx, dx}, sameValue[T])

	ref, mag := directConv(o)
	for i, v := range out[0].data {
		b := float64(o.bias.data[i%cv.f])
		if want := ref[i] + b; !near(float64(v), want, Eps[T]()*max(1, mag[i]+math.Abs(b))) {
			t.Errorf("forward[%d] = %v, directConv %v (magnitude %g)", i, v, want, mag[i])
			break
		}
	}
	if o.in.plant != plantNone {
		return
	}
	var gy, gb, xdx, dww, total float64
	for i, g := range o.gm.data {
		b := float64(o.bias.data[i%cv.f])
		gy += float64(g) * float64(out[0].data[i])
		gb += float64(g) * b
		total += math.Abs(float64(g)) * (mag[i] + math.Abs(b))
	}
	for i, v := range o.x.data {
		xdx += float64(v) * float64(out[5].data[i])
	}
	for i, v := range o.w.data {
		dww += float64(v) * float64(out[3].data[i])
	}
	tol := Eps[T]() * total
	if d := math.Abs(xdx - (gy - gb)); !(d <= tol) {
		t.Errorf("adjoint: ⟨x, dX(g)⟩ = %v, ⟨g, y − bias⟩ = %v: |Δ| %g > %g", xdx, gy-gb, d, tol)
	}
	if d := math.Abs(dww - (gy - gb)); !(d <= tol) {
		t.Errorf("adjoint: ⟨dW(x, g), w⟩ = %v, ⟨g, y − bias⟩ = %v: |Δ| %g > %g", dww, gy-gb, d, tol)
	}
}

// directConv is the convolution written out: output (position p, filter
// f), in the matmul layout, is the float64 sum of every product of a
// filter tap and the input it covers — a padding tap's zero included, so
// that 0·Inf is NaN here as in the kernels — without the bias; mag is
// the sum of the products' magnitudes.
func directConv[T Float](o *operands[T]) (ref, mag []float64) {
	cv := o.in.cv
	kk := cv.k * cv.k
	rows := cv.n * o.oh * o.ow
	ref, mag = make([]float64, rows*cv.f), make([]float64, rows*cv.f)
	for p := range rows {
		img, oy, ox := p/(o.oh*o.ow), p/o.ow%o.oh, p%o.ow
		for f := range cv.f {
			var s, a float64
			for ch := range cv.c {
				for ky := range cv.k {
					for kx := range cv.k {
						iy, ix := oy*cv.stride-cv.pad+ky, ox*cv.stride-cv.pad+kx
						x := 0.0
						if iy >= 0 && iy < cv.h && ix >= 0 && ix < cv.w {
							x = float64(o.x.data[((img*cv.c+ch)*cv.h+iy)*cv.w+ix])
						}
						w := float64(o.w.data[f*cv.c*kk+ch*kk+ky*cv.k+kx])
						s += x * w
						a += math.Abs(x * w)
					}
				}
			}
			ref[p*cv.f+f], mag[p*cv.f+f] = s, a
		}
	}
	return ref, mag
}

// nanAt reports whether output k of in must be NaN at flat index i: the
// 0·Inf products its plant puts into the sums, and nowhere else.
func (in instance) nanAt(k, i int) bool {
	switch in.plant {
	case plantGEMM:
		return k < 4 && i == 0 // the clamp maps NaN to 0
	case plantFwd:
		// Tap 0 of (oy, ox) reads (oy·stride − pad, ox·stride − pad).
		c := in.cv
		oh, ow := ConvOutSize(c.h, c.k, c.stride, c.pad), ConvOutSize(c.w, c.k, c.stride, c.pad)
		var f, sp int
		switch k {
		case 0:
			f, sp = i%c.f, i/c.f%(oh*ow)
		case 1:
			f, sp = i/(oh*ow)%c.f, i%(oh*ow)
		default:
			return false
		}
		return f == 0 && (sp/ow*c.stride < c.pad || sp%ow*c.stride < c.pad)
	case plantGrad:
		return k >= 3 && i == 0
	}
	return false
}

// checkNaN holds every output's NaNs to nanAt.
func checkNaN[T Float](t *testing.T, in instance, names []string, out []*TensorOf[T]) {
	t.Helper()
	for k := range out {
		for i, v := range out[k].data {
			if math.IsNaN(float64(v)) != in.nanAt(k, i) {
				t.Errorf("%s[%d] = %v; NaN expected: %v", names[k], i, v, in.nanAt(k, i))
				break
			}
		}
	}
}

// TestKernelSetsByteIdentical holds every entry of the table, and the
// property tests, at each kernel state of the host: the 256-bit kernels
// (and the 8×8 float32 tile and the store-through that come with them)
// and the Go twins must give every output bit for bit, up to NaN
// payload. Subtests are <entry>/<state>; "SSE2" is the state of an amd64
// host without AVX, whatever runs there.
func TestKernelSetsByteIdentical(t *testing.T) {
	states := kernelStates()
	if len(states) < 2 {
		t.Skip("one kernel set on this host and build: nothing to compare")
	}
	label := map[bool]string{true: "AVX", false: "SSE2"}
	var entries []string
	for _, f := range families() {
		for _, e := range []string{f.entryFor(false), f.entryFor(true)} {
			if !slices.Contains(entries, e) {
				entries = append(entries, e)
			}
		}
	}
	var props []string
	for name := range properties {
		props = append(props, name)
	}
	slices.Sort(props)
	entries = append(entries, props...)
	for _, e := range entries {
		for _, avx := range states {
			t.Run(e+"/"+label[avx], func(t *testing.T) { runEntry(t, e, avx) })
		}
	}
}

func TestBlockedMatchesNaiveProperty(t *testing.T)         { conformEntry(t) }
func TestBlockedMatchesNaiveMultiPanel(t *testing.T)       { conformEntry(t) }
func TestGEMMEpilogueBias(t *testing.T)                    { conformEntry(t) }
func TestGEMMEpilogueBiasReLU(t *testing.T)                { conformEntry(t) }
func TestGEMMBitIdenticalAcrossLanes(t *testing.T)         { conformEntry(t) }
func TestGEMMBitIdenticalAcrossLanesF32(t *testing.T)      { conformEntry(t) }
func TestGEMMKZeroAndEmpty(t *testing.T)                   { conformEntry(t) }
func TestMatMulMatchesNaiveProperty(t *testing.T)          { conformEntry(t) }
func TestMatMulParallelPath(t *testing.T)                  { conformEntry(t) }
func TestMatMulTransAB(t *testing.T)                       { conformEntry(t) }
func TestMatMulTransBParallelPath(t *testing.T)            { conformEntry(t) }
func TestNonFiniteAtEveryShape(t *testing.T)               { conformEntry(t) }
func TestConvImplicitMatchesIm2ColOracle(t *testing.T)     { conformEntry(t) }
func TestConvFusedLayoutsMatchOracle(t *testing.T)         { conformEntry(t) }
func TestConvImplicitBitIdenticalAcrossLanes(t *testing.T) { conformEntry(t) }
func TestConvGradInputChunkBoundaries(t *testing.T)        { conformEntry(t) }
func TestIm2ColConvMatchesNaive(t *testing.T)              { conformEntry(t) }
func TestCol2ImAdjointProperty(t *testing.T)               { conformEntry(t) }
