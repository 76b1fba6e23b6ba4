package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/tensor"
)

// Conv2DOf is a 2-D convolution over (N, C, H, W) inputs, implemented as
// implicit GEMM: the blocked matrix kernels read the im2col operand in
// place from the (zero-bordered) input through two offset tables (see
// tensor.ConvForwardInto and friends), so the (N·OH·OW, InC·K·K) patch
// matrix — historically the largest steady-state training buffer — is
// never materialized, not even a panel at a time. Weights have shape
// (OutC, InC·K·K).
//
// The layer keeps every per-batch training buffer — the output
// activation and the two gradients — alive across batches, each sized by
// the largest batch it has held, so once the largest batch has run the
// training forward and backward passes allocate nothing, at any batch
// size. Workspaces are per layer (hence per network), so
// concurrently-training client networks never share scratch memory. Activations and gradients stay in
// (N,C,H,W) end to end: the kernels write the output, and read the
// output gradient, through that layout directly, with the bias add — and
// a directly following ReLU (see NetworkOf.Forward) — fused into the
// GEMM epilogue.
type Conv2DOf[T tensor.Float] struct {
	InC, OutC      int
	K, Stride, Pad int
	InH, InW       int // set on first Forward; used for FLOP estimates
	w, b           *ParamOf[T]
	x              *tensor.TensorOf[T] // cached training input for backward (weight grad)
	outH, outW     int

	// Reusable workspaces, sized lazily by EnsureShape: each grows to the
	// largest batch geometry it has held. y is overwritten by the next
	// training Forward; downstream layers consume it within the current
	// pass. Inference never writes them.
	y  *tensor.TensorOf[T] // training forward output (N, OutC, OH, OW)
	dw *tensor.TensorOf[T] // weight gradient (OutC, InC*K*K)
	dx *tensor.TensorOf[T] // input gradient (N, InC, H, W)
}

// NewConv2DOf constructs a convolution layer with He-initialized weights.
// The rng draw sequence is identical for every element type, so a float32
// and a float64 network built from the same seed start from the same
// (rounded) weights.
func NewConv2DOf[T tensor.Float](rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2DOf[T] {
	c := &Conv2DOf[T]{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		w: newParamOf[T](fmt.Sprintf("conv%dx%dx%d.w", outC, inC, k), outC, inC*k*k),
		b: newParamOf[T](fmt.Sprintf("conv%dx%dx%d.b", outC, inC, k), outC),
	}
	fanIn := float64(inC * k * k)
	std := math.Sqrt(2.0 / fanIn)
	for i := range c.w.W.Data() {
		c.w.W.Data()[i] = T(rng.NormFloat64() * std)
	}
	return c
}

// Name implements LayerOf.
func (c *Conv2DOf[T]) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d,k=%d,s=%d,p=%d)", c.InC, c.OutC, c.K, c.Stride, c.Pad)
}

// Class implements Classed.
func (c *Conv2DOf[T]) Class() ParamClass { return ClassConv }

// Params implements LayerOf.
func (c *Conv2DOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{c.w, c.b} }

// FlopsPerSample implements FlopsCounter. It requires one Forward call (or
// SetInputSize) to know the spatial dimensions.
func (c *Conv2DOf[T]) FlopsPerSample() float64 {
	if c.outH == 0 {
		return 0
	}
	return 2 * float64(c.OutC) * float64(c.outH) * float64(c.outW) * float64(c.InC) * float64(c.K) * float64(c.K)
}

// SetInputSize pre-computes the output geometry for FLOP estimation without
// running a forward pass.
func (c *Conv2DOf[T]) SetInputSize(h, w int) {
	c.InH, c.InW = h, w
	c.outH = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
}

// OutSize returns the output spatial dimensions for an input of (h, w).
func (c *Conv2DOf[T]) OutSize(h, w int) (int, int) {
	return tensor.ConvOutSize(h, c.K, c.Stride, c.Pad), tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
}

// Forward implements LayerOf. x must be (N, InC, H, W). A training
// forward writes the layer's own output workspace; an inference forward
// a fresh tensor (see infer).
//
// fedlint:hotpath
func (c *Conv2DOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return c.infer(x, new(inferSlot[T]))
	}
	c.x = x
	c.y = c.forward(c.y, x, false)
	return c.y
}

// infer implements inferer.
//
// fedlint:hotpath
func (c *Conv2DOf[T]) infer(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = c.forward(s.y, x, false)
	return s.y
}

// forwardFusedReLU implements reluFused: the activation clamp rides
// along in the kernel epilogue, and r differentiates through c.y.
//
// fedlint:hotpath
func (c *Conv2DOf[T]) forwardFusedReLU(x *tensor.TensorOf[T], r *ReLUOf[T]) *tensor.TensorOf[T] {
	c.x = x
	c.y = c.forward(c.y, x, true)
	r.act = c.y
	return c.y
}

// inferFusedReLU implements reluFused.
//
// fedlint:hotpath
func (c *Conv2DOf[T]) inferFusedReLU(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = c.forward(s.y, x, true)
	return s.y
}

// forward validates x, records the geometry, sizes y with EnsureShape
// and convolves into it — rectified when relu is set — returning it.
// The GEMM writes every element of y (C·KH·KW ≥ 1, so its first k-panel
// stores each one), so a reused y needs no clearing.
//
// fedlint:hotpath
func (c *Conv2DOf[T]) forward(y, x *tensor.TensorOf[T], relu bool) *tensor.TensorOf[T] {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v", c.Name(), x.Shape()))
	}
	c.SetInputSize(x.Dim(2), x.Dim(3))
	y = tensor.EnsureShape(y, x.Dim(0), c.OutC, c.outH, c.outW)
	if relu {
		tensor.ConvForwardReLUInto(y, x, c.w.W, c.b.W, c.K, c.K, c.Stride, c.Pad)
	} else {
		tensor.ConvForwardInto(y, x, c.w.W, c.b.W, c.K, c.K, c.Stride, c.Pad)
	}
	return y
}

// Backward implements LayerOf. grad must be (N, OutC, OH, OW). The returned
// input gradient lives in a per-layer workspace that is overwritten by the
// next Backward call; callers consume it within the current pass (which is
// how NetworkOf.Backward drives layers).
//
// fedlint:hotpath
func (c *Conv2DOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	c.backwardParams(grad)
	// dx = col2im(grad·W), chunked through a bounded pooled buffer instead
	// of a full materialized column-gradient matrix.
	c.dx = tensor.EnsureShape(c.dx, c.x.Shape()...)
	tensor.ConvGradInputInto(c.dx, grad, c.w.W, c.K, c.K, c.Stride, c.Pad)
	return c.dx
}

// backwardParams implements paramsBackward: the bias and weight
// gradients of Backward, without the input gradient.
//
// fedlint:hotpath
func (c *Conv2DOf[T]) backwardParams(grad *tensor.TensorOf[T]) {
	// db[f] += Σ grad[img, f, ·, ·], images ascending, positions ascending
	// within — one running sum per filter.
	plane := c.outH * c.outW
	gd, bg := grad.Data(), c.b.Grad.Data()
	for img := 0; img < grad.Dim(0); img++ {
		for f := range bg {
			s := bg[f]
			for _, v := range gd[(img*c.OutC+f)*plane:][:plane] {
				s += v
			}
			bg[f] = s
		}
	}
	// dW = gradᵀ·im2col(x), with the patch matrix read in place.
	c.dw = tensor.EnsureShape(c.dw, c.OutC, c.InC*c.K*c.K)
	tensor.ConvGradWeightsInto(c.dw, grad, c.x, c.K, c.K, c.Stride, c.Pad)
	c.w.Grad.Add(c.dw)
}

// backwardPooled is Backward — backwardParams when no input gradient is
// wanted, returning nil — for the output gradient pg describes rather
// than holds (see NetworkOf.backwardConvBlock).
//
// fedlint:hotpath
func (c *Conv2DOf[T]) backwardPooled(pg tensor.PooledGrad[T], wantDX bool) *tensor.TensorOf[T] {
	var dx *tensor.TensorOf[T]
	if wantDX {
		c.dx = tensor.EnsureShape(c.dx, c.x.Shape()...)
		dx = c.dx
	}
	c.dw = tensor.EnsureShape(c.dw, c.OutC, c.InC*c.K*c.K)
	tensor.ConvBackwardPooled(c.dw, c.b.Grad, dx, pg, c.x, c.w.W, c.K, c.K, c.Stride, c.Pad)
	c.w.Grad.Add(c.dw)
	return dx
}
