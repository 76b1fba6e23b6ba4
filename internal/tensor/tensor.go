// Package tensor provides dense float32/float64 tensors and the
// numerical kernels (matrix multiply, implicit-GEMM convolution,
// elementwise maps) used by the neural-network training substrate.
// Everything is CPU-only, allocation-conscious and parallelized across
// goroutines where the problem size warrants it.
//
// The element type is a compile-time generic choice: TensorOf[T] is the
// real type, Tensor is an alias for TensorOf[float64] (the reference
// precision), and every kernel is instantiated per element type.
// Scalar-crossing accessors (At, Set, Fill, Sum, …) keep float64
// signatures so precision-agnostic callers never see T; only Data
// exposes the raw element type.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// TensorOf is a dense, row-major tensor over element type T. The zero
// value is an empty tensor; use NewOf or From to construct usable
// instances.
type TensorOf[T Float] struct {
	shape []int
	data  []T
}

// Tensor is the float64 instantiation — the reference precision used by
// the federated aggregation path and all precision-agnostic callers.
type Tensor = TensorOf[float64]

// New returns a zero-filled float64 tensor with the given shape. It
// panics if any dimension is negative.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf returns a zero-filled tensor of element type T with the given
// shape. It panics if any dimension is negative.
func NewOf[T Float](shape ...int) *TensorOf[T] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Keep shape out of the message: passing it to Sprintf would
			// make it escape, forcing every variadic call site (including
			// the EnsureShape hot path) to heap-allocate its argument
			// slice.
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &TensorOf[T]{shape: s, data: make([]T, n)}
}

// From wraps the given data slice in a tensor with the given shape. The
// slice is used directly (not copied); it panics if the length does not
// match the shape volume.
func From[T Float](data []T, shape ...int) *TensorOf[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &TensorOf[T]{shape: s, data: data}
}

// EnsureShape returns t when it already has exactly the wanted shape and
// a fresh zeroed tensor otherwise — the workspace (re)allocation policy
// shared by the layer, loss and aggregation scratch across the codebase.
// Contents of a reused tensor are preserved; callers that need zeroed
// scratch must Zero it themselves when t comes back unchanged.
//
// fedlint:hotpath
func EnsureShape[T Float](t *TensorOf[T], shape ...int) *TensorOf[T] {
	if t != nil && len(t.shape) == len(shape) {
		same := true
		for i, d := range shape {
			if t.shape[i] != d {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	return NewOf[T](shape...) //fedlint:allow hotalloc — reallocates on every geometry change: each epoch's ragged last batch, then the next full batch; steps at one geometry reuse t
}

// Randn fills a new float64 tensor of the given shape with samples from
// a normal distribution with the given standard deviation, using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	return RandnOf[float64](rng, std, shape...)
}

// RandnOf is Randn for an arbitrary element type. The draw count and
// sequence are precision-independent (one NormFloat64 per element), so
// an f32 and an f64 model built from the same seed see the same
// underlying random stream.
func RandnOf[T Float](rng *rand.Rand, std float64, shape ...int) *TensorOf[T] {
	t := NewOf[T](shape...)
	for i := range t.data {
		t.data[i] = T(rng.NormFloat64() * std)
	}
	return t
}

// Shape returns the tensor shape. The returned slice must not be mutated.
func (t *TensorOf[T]) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor.
func (t *TensorOf[T]) Data() []T { return t.data }

// Len returns the total number of elements.
func (t *TensorOf[T]) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *TensorOf[T]) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *TensorOf[T]) Rank() int { return len(t.shape) }

// At returns the element at the given multi-index.
func (t *TensorOf[T]) At(idx ...int) float64 {
	return float64(t.data[t.offset(idx)])
}

// Set assigns the element at the given multi-index.
func (t *TensorOf[T]) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = T(v)
}

func (t *TensorOf[T]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *TensorOf[T]) Clone() *TensorOf[T] {
	c := NewOf[T](t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. It panics on volume mismatch.
func (t *TensorOf[T]) Reshape(shape ...int) *TensorOf[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (len %d) to %v", t.shape, len(t.data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &TensorOf[T]{shape: s, data: t.data}
}

// Zero sets all elements to zero.
//
// fedlint:hotpath
func (t *TensorOf[T]) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *TensorOf[T]) Fill(v float64) {
	tv := T(v)
	for i := range t.data {
		t.data[i] = tv
	}
}

// Scale multiplies every element by a.
//
// fedlint:hotpath
func (t *TensorOf[T]) Scale(a float64) {
	av := T(a)
	for i := range t.data {
		t.data[i] *= av
	}
}

// AddScaled adds a*src to t elementwise. The tensors must have equal length.
//
// fedlint:hotpath
func (t *TensorOf[T]) AddScaled(a float64, src *TensorOf[T]) {
	if len(src.data) != len(t.data) {
		panic("tensor: AddScaled length mismatch")
	}
	av := T(a)
	for i, v := range src.data {
		t.data[i] += T(av * v)
	}
}

// Add adds src to t elementwise.
func (t *TensorOf[T]) Add(src *TensorOf[T]) { t.AddScaled(1, src) }

// Sum returns the sum of all elements, accumulated in float64.
func (t *TensorOf[T]) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *TensorOf[T]) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether two tensors have identical shapes and elements
// within tolerance eps.
func Equal[T Float](a, b *TensorOf[T], eps float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(float64(a.data[i])-float64(b.data[i])) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *TensorOf[T]) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
