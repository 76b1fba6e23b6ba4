// Package hotalloc seeds the three allocation shapes the hotalloc pass
// reports inside annotated hot paths — tensor.New*, make of float
// slices, append — plus the transitive-callee propagation, the
// //fedlint:allow escape hatch, and the shapes (int scratch, cold
// functions, EnsureShape) that must stay legal.
package hotalloc

import "tensor"

// Hot is an annotated hot-path root.
//
// fedlint:hotpath
func Hot(dst *tensor.Tensor, xs []float64) []float64 {
	buf := make([]float64, 8) // want `make of \[\]float64 in hot-path function Hot allocates`
	t := tensor.New(4, 4)     // want `tensor\.New in hot-path function Hot allocates fresh tensor storage`
	_ = t
	xs = append(xs, 1) // want `append in hot-path function Hot may grow its backing array`
	helper(xs)
	dst = tensor.EnsureShape(dst, 4, 4)
	_ = dst
	return buf
}

// helper carries no annotation; it inherits hotness from Hot through
// the call graph.
func helper(xs []float64) []float64 {
	return append(xs, 2) // want `append in hot-path function helper \(hot via hotalloc\.Hot\) may grow`
}

// Cold is never reached from an annotated root and may allocate freely.
func Cold() []float64 {
	return make([]float64, 128)
}

// Prose names the fedlint:hotpath marker in a sentence, which does not
// make it a root: a marker counts only where it starts a doc-comment
// line.
func Prose(xs []float64) []float64 {
	return append(xs, 3)
}

// Allowed shows the sanctioned-slow-path escape hatch; the directive
// form of the marker must work too.
//
//fedlint:hotpath
func Allowed() *tensor.Tensor {
	return tensor.New(2, 2) //fedlint:allow hotalloc — fixture: geometry-change slow path
}

// AllowedCall's suppressed call site keeps resize out of the hot set
// entirely, so resize's own allocation stays unreported.
//
// fedlint:hotpath
func AllowedCall() []float64 {
	return resize() //fedlint:allow hotalloc — fixture: cold by contract
}

func resize() []float64 {
	return make([]float64, 64)
}

// IntScratch allocates integer scratch; only float slices are tensor
// storage, so it passes.
//
// fedlint:hotpath
func IntScratch() []int {
	return make([]int, 4)
}

// Event and Ring mirror the internal/trace recorder: a fixed-capacity
// ring of flat event structs written by an annotated hot-path Emit.
type Event struct {
	Round int
	AtS   float64
}

type Ring struct {
	buf   []Event
	start int
	n     int
}

// Emit is the sanctioned shape — indexed wraparound writes into the
// pre-sized ring never touch the allocator and produce no diagnostics.
//
// fedlint:hotpath
func (r *Ring) Emit(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// EmitAppend is the anti-pattern the pass exists to catch: growing the
// event buffer from inside the hot path.
//
// fedlint:hotpath
func (r *Ring) EmitAppend(e Event) {
	r.buf = append(r.buf, e) // want `append in hot-path function EmitAppend may grow its backing array`
}

// NewRing is cold construction; make of a struct slice is not tensor
// storage and the function is never reached from an annotated root.
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]Event, capacity)}
}

// GenericHot mirrors the width-parametric kernels: every callee below is
// an explicitly instantiated generic, so the flood-fill must unwrap the
// *ast.IndexExpr / *ast.IndexListExpr instantiation syntax to resolve
// it. Before that unwrap existed none of these lines produced a
// diagnostic.
//
// fedlint:hotpath
func GenericHot(ws *tensor.TensorOf[float32]) {
	t := tensor.NewOf[float32](4, 4) // want `tensor\.NewOf in hot-path function GenericHot allocates fresh tensor storage`
	_ = t
	r := tensor.RandnOf[float64](2, 2) // want `tensor\.RandnOf in hot-path function GenericHot allocates fresh tensor storage`
	_ = r
	_ = genericHelper[float32](nil)
	_ = widen[float64, float32](nil, 1)
	ws = tensor.EnsureShapeOf[float32](ws, 4, 4) // sanctioned reuse: no diagnostic
	_ = ws
}

// genericHelper inherits hotness through a one-type-arg instantiation
// (*ast.IndexExpr at the call site in GenericHot).
func genericHelper[T tensor.Float](xs []T) []T {
	var zero T
	return append(xs, zero) // want `append in hot-path function genericHelper \(hot via hotalloc\.GenericHot\) may grow`
}

// widen inherits hotness through a two-type-arg instantiation
// (*ast.IndexListExpr at the call site in GenericHot).
func widen[Dst, Src tensor.Float](dst []Dst, x Src) []Dst {
	return append(dst, Dst(x)) // want `append in hot-path function widen \(hot via hotalloc\.GenericHot\) may grow`
}

// InferredHot checks the no-explicit-instantiation path stays covered:
// type inference leaves a plain ident at the call site, which resolved
// before the unwrap; both routes must land in the same hot set.
//
// fedlint:hotpath
func InferredHot() {
	_ = genericHelper([]float64{1})
}
