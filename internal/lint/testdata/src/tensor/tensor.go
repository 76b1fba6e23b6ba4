// Package tensor is a minimal stub of fedsched/internal/tensor, mapped
// to the bare import path "tensor" through Loader.Aux so the hotalloc
// fixtures can exercise the New*-constructor detection without pulling
// the real package (and its real hot paths) into the fixture load.
package tensor

// Tensor mirrors the real dense-tensor shape.
type Tensor struct {
	data []float64
}

// New allocates fresh storage — the call hotalloc reports.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{data: make([]float64, n)}
}

// From wraps existing storage.
func From(data []float64, shape ...int) *Tensor {
	return &Tensor{data: data}
}

// EnsureShape is the sanctioned workspace-reuse entry point; it is not a
// New* constructor and must not be flagged at call sites.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	if t != nil {
		return t
	}
	return New(shape...)
}

// Len keeps the struct fields used.
func (t *Tensor) Len() int { return len(t.data) }

// Float mirrors the real element-type constraint of the generic kernels.
type Float interface{ ~float32 | ~float64 }

// extraLanes mirrors the real lane semaphore, so the goroutinebound
// fixture can show a lane-bounded raw spawn is still reported.
var extraLanes = make(chan struct{}, 4)

// TryAcquireLanes takes up to n worker lanes, returning how many were
// granted.
func TryAcquireLanes(n int) int {
	got := 0
	for ; got < n; got++ {
		select {
		case <-extraLanes:
		default:
			return got
		}
	}
	return got
}

// ReleaseLanes returns n lanes to the pool.
func ReleaseLanes(n int) {
	for i := 0; i < n; i++ {
		extraLanes <- struct{}{}
	}
}

// TensorOf mirrors the width-parametric dense tensor.
type TensorOf[T Float] struct {
	data []T
}

// NewOf allocates fresh generic storage — the instantiated call the
// hotalloc pass must still report.
func NewOf[T Float](shape ...int) *TensorOf[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &TensorOf[T]{data: make([]T, n)}
}

// RandnOf mirrors the generic random-init constructor; the Randn prefix
// marks it as an allocation primitive.
func RandnOf[T Float](shape ...int) *TensorOf[T] {
	return NewOf[T](shape...)
}

// EnsureShapeOf is the generic sanctioned-reuse entry point; like
// EnsureShape it must not be flagged at call sites.
func EnsureShapeOf[T Float](t *TensorOf[T], shape ...int) *TensorOf[T] {
	if t != nil {
		return t
	}
	return NewOf[T](shape...)
}

// LenOf keeps the generic struct fields used.
func (t *TensorOf[T]) Len() int { return len(t.data) }
