package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/tensor"
)

// DenseOf is a fully-connected layer: y = x·Wᵀ + b with W of shape (out, in).
//
// Like Conv2DOf, the layer keeps its training output and gradient
// workspaces alive across batches (y, dw, dx below), so once the largest
// batch has run a training step allocates nothing. The bias add is fused
// into the matmul epilogue, and when a ReLU immediately follows (see
// NetworkOf.Forward), the activation is fused in as well.
type DenseOf[T tensor.Float] struct {
	In, Out int
	w, b    *ParamOf[T]
	x       *tensor.TensorOf[T] // cached training input for backward

	// Reusable workspaces, sized lazily by EnsureShape. y is overwritten
	// by the next training Forward; downstream layers consume it within
	// the current pass. Inference never writes them.
	y  *tensor.TensorOf[T] // training forward output (N, Out)
	dw *tensor.TensorOf[T] // weight gradient (Out, In)
	dx *tensor.TensorOf[T] // input gradient (N, In)
}

// NewDenseOf constructs a dense layer with He-initialized weights. The rng
// draw sequence is identical for every element type, so a float32 and a
// float64 network built from the same seed start from the same (rounded)
// weights.
func NewDenseOf[T tensor.Float](rng *rand.Rand, in, out int) *DenseOf[T] {
	d := &DenseOf[T]{
		In:  in,
		Out: out,
		w:   newParamOf[T](fmt.Sprintf("dense%dx%d.w", out, in), out, in),
		b:   newParamOf[T](fmt.Sprintf("dense%dx%d.b", out, in), out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.w.W.Data() {
		d.w.W.Data()[i] = T(rng.NormFloat64() * std)
	}
	return d
}

// Name implements LayerOf.
func (d *DenseOf[T]) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// Class implements Classed.
func (d *DenseOf[T]) Class() ParamClass { return ClassDense }

// Params implements LayerOf.
func (d *DenseOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{d.w, d.b} }

// FlopsPerSample implements FlopsCounter: one multiply-add per weight.
func (d *DenseOf[T]) FlopsPerSample() float64 { return 2 * float64(d.In) * float64(d.Out) }

// Forward implements LayerOf. x must be (N, In). A training forward
// writes the layer's own output workspace; an inference forward a fresh
// tensor (see infer).
//
// fedlint:hotpath
func (d *DenseOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return d.infer(x, new(inferSlot[T]))
	}
	d.x = x
	d.y = d.forward(d.y, x, false)
	return d.y
}

// infer implements inferer.
//
// fedlint:hotpath
func (d *DenseOf[T]) infer(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = d.forward(s.y, x, false)
	return s.y
}

// forwardFusedReLU implements reluFused: it additionally rectifies the
// output in the kernel epilogue, and r differentiates through d.y.
//
// fedlint:hotpath
func (d *DenseOf[T]) forwardFusedReLU(x *tensor.TensorOf[T], r *ReLUOf[T]) *tensor.TensorOf[T] {
	d.x = x
	d.y = d.forward(d.y, x, true)
	r.act = d.y
	return d.y
}

// inferFusedReLU implements reluFused.
//
// fedlint:hotpath
func (d *DenseOf[T]) inferFusedReLU(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = d.forward(s.y, x, true)
	return s.y
}

// forward validates x, sizes y with EnsureShape and computes the layer
// into it — rectified when relu is set — returning it. The GEMM writes
// every element of y (its first k-panel stores, and k = 0 stores the
// epilogue of zero), so a reused y needs no clearing.
//
// fedlint:hotpath
func (d *DenseOf[T]) forward(y, x *tensor.TensorOf[T], relu bool) *tensor.TensorOf[T] {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s got input %v", d.Name(), x.Shape()))
	}
	y = tensor.EnsureShape(y, x.Dim(0), d.Out)
	if relu {
		tensor.MatMulTransBBiasReLUInto(y, x, d.w.W, d.b.W)
	} else {
		tensor.MatMulTransBBiasInto(y, x, d.w.W, d.b.W) // (N,in)·(out,in)ᵀ + b
	}
	return y
}

// Backward implements LayerOf. grad must be (N, Out). The returned input
// gradient lives in a per-layer workspace that is overwritten by the next
// Backward call; callers consume it within the current pass (which is how
// NetworkOf.Backward drives layers).
//
// fedlint:hotpath
func (d *DenseOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	d.backwardParams(grad)
	d.dx = tensor.EnsureShape(d.dx, grad.Dim(0), d.In)
	tensor.MatMulInto(d.dx, grad, d.w.W) // (N,out)·(out,in) = (N,in)
	return d.dx
}

// backwardParams implements paramsBackward: dW = gradᵀ·x and
// db = Σ grad rows, without the input gradient.
//
// fedlint:hotpath
func (d *DenseOf[T]) backwardParams(grad *tensor.TensorOf[T]) {
	d.dw = tensor.EnsureShape(d.dw, d.Out, d.In)
	tensor.MatMulTransAInto(d.dw, grad, d.x)
	d.w.Grad.Add(d.dw)
	gd, bg := grad.Data(), d.b.Grad.Data()
	for i := 0; i < grad.Dim(0); i++ {
		row := gd[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			bg[j] += v
		}
	}
}
