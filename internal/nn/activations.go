package nn

import (
	"fmt"
	"math/rand"

	"fedsched/internal/tensor"
)

// ReLUOf applies max(0, x) elementwise.
//
// When a ReLU directly follows a Dense or Conv2D layer, NetworkOf.Forward
// fuses the activation into the producer's kernel: the producer leaves
// its clamped output in act, and this layer's Forward is skipped for
// that pass. Backward is identical either way — an activation is
// positive exactly where its pre-activation was (NaN and ±0 included:
// both clamp to +0), so the gradient mask is the sign of the stored
// output and nothing else is kept. act is the live output tensor, not a
// copy: the next training forward overwrites it in place. An inference
// forward writes elsewhere (see NetworkOf.Forward) and leaves it alone.
type ReLUOf[T tensor.Float] struct {
	act *tensor.TensorOf[T] // output of the last training forward: y, or the fused producer's
	y   *tensor.TensorOf[T] // training forward output (unfused path)
	dx  *tensor.TensorOf[T] // input gradient
}

// NewReLUOf returns a ReLU activation layer.
func NewReLUOf[T tensor.Float]() *ReLUOf[T] { return &ReLUOf[T]{} }

// Name implements LayerOf.
func (r *ReLUOf[T]) Name() string { return "ReLU" }

// Params implements LayerOf.
func (r *ReLUOf[T]) Params() []*ParamOf[T] { return nil }

// Forward implements LayerOf. A training forward writes the layer's own
// output workspace and records it in act; an inference forward writes a
// fresh tensor (see infer).
//
// fedlint:hotpath
func (r *ReLUOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return r.infer(x, new(inferSlot[T]))
	}
	r.y = r.forward(r.y, x)
	r.act = r.y
	return r.y
}

// infer implements inferer.
//
// fedlint:hotpath
func (r *ReLUOf[T]) infer(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = r.forward(s.y, x)
	return s.y
}

// forward sizes y like x and rectifies x into it, every element written.
//
// fedlint:hotpath
func (r *ReLUOf[T]) forward(y, x *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	y = tensor.EnsureShape(y, x.Shape()...)
	xd, yd := x.Data(), y.Data()
	for i, v := range xd {
		yd[i] = tensor.Select(v > 0, v, 0)
	}
	return y
}

// Backward implements LayerOf.
//
// fedlint:hotpath
func (r *ReLUOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if r.act == nil || r.act.Len() != grad.Len() {
		panic("nn: ReLU.Backward without a matching training Forward")
	}
	r.dx = tensor.EnsureShape(r.dx, grad.Shape()...)
	gd, dd := grad.Data(), r.dx.Data()
	for i, a := range r.act.Data() {
		dd[i] = tensor.Select(a > 0, gd[i], 0)
	}
	return r.dx
}

// FlattenOf reshapes (N, ...) inputs to (N, prod(...)).
//
// Reshape only wraps the storage in a new header, but even that small
// allocation would recur every batch; so each pass re-points a cached
// view (tensor.View) instead — the training views here, an inference
// pass's in its slot.
type FlattenOf[T tensor.Float] struct {
	inShape []int
	out     *tensor.TensorOf[T] // cached training forward view
	back    *tensor.TensorOf[T] // cached backward view
}

// NewFlattenOf returns a flatten layer.
func NewFlattenOf[T tensor.Float]() *FlattenOf[T] { return &FlattenOf[T]{} }

// Name implements LayerOf.
func (f *FlattenOf[T]) Name() string { return "Flatten" }

// Params implements LayerOf.
func (f *FlattenOf[T]) Params() []*ParamOf[T] { return nil }

// Forward implements LayerOf.
//
// fedlint:hotpath
func (f *FlattenOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return f.infer(x, new(inferSlot[T]))
	}
	f.inShape = x.Shape()
	f.out = flat(f.out, x)
	return f.out
}

// infer implements inferer: the view goes in s.view.
//
// fedlint:hotpath
func (f *FlattenOf[T]) infer(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.view = flat(s.view, x)
	return s.view
}

// flat re-points v at x viewed as (N, prod(...)).
//
// fedlint:hotpath
func flat[T tensor.Float](v, x *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	n := x.Dim(0)
	return tensor.View(v, x, n, x.Len()/n)
}

// Backward implements LayerOf.
//
// fedlint:hotpath
func (f *FlattenOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	f.back = tensor.View(f.back, grad, f.inShape...)
	return f.back
}

// MaxPool2DOf is a 2-D max pooling layer over (N, C, H, W). The argmax
// index its Backward scatters through is recorded by training forwards
// only, and Backward refuses a gradient that does not match it.
type MaxPool2DOf[T tensor.Float] struct {
	Size, Stride int
	argmax       []int
	inShape      []int
	y            *tensor.TensorOf[T] // training forward output
	dx           *tensor.TensorOf[T] // input gradient
}

// NewMaxPool2DOf constructs a max-pool layer with the given window and
// stride.
func NewMaxPool2DOf[T tensor.Float](size, stride int) *MaxPool2DOf[T] {
	return &MaxPool2DOf[T]{Size: size, Stride: stride}
}

// Name implements LayerOf.
func (p *MaxPool2DOf[T]) Name() string { return fmt.Sprintf("MaxPool2D(%d,s=%d)", p.Size, p.Stride) }

// Params implements LayerOf.
func (p *MaxPool2DOf[T]) Params() []*ParamOf[T] { return nil }

// Forward implements LayerOf. A training forward writes the layer's own
// output workspace and records the argmax Backward scatters through; an
// inference forward writes a fresh tensor and records nothing (see infer).
//
// fedlint:hotpath
func (p *MaxPool2DOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return p.infer(x, new(inferSlot[T]))
	}
	p.inShape = x.Shape()
	p.y = p.forward(p.y, x, true)
	return p.y
}

// infer implements inferer.
//
// fedlint:hotpath
func (p *MaxPool2DOf[T]) infer(x *tensor.TensorOf[T], s *inferSlot[T]) *tensor.TensorOf[T] {
	s.y = p.forward(s.y, x, false)
	return s.y
}

// forward sizes y to the pooled shape of x and pools x into it; both
// kernels write every output element. Only when train is set is the
// argmax recorded, into p.argmax.
//
// fedlint:hotpath
func (p *MaxPool2DOf[T]) forward(y, x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.Size || w < p.Size {
		// The truncating division below would size such an output to
		// one row or column and read past the input plane.
		panic("nn: MaxPool2D.Forward input smaller than its window")
	}
	oh := (h-p.Size)/p.Stride + 1
	ow := (w-p.Size)/p.Stride + 1
	y = tensor.EnsureShape(y, n, c, oh, ow)
	var argmax []int // stays nil at inference: nothing is recorded
	if train {
		if cap(p.argmax) < y.Len() {
			p.argmax = make([]int, y.Len())
		}
		p.argmax = p.argmax[:y.Len()]
		argmax = p.argmax
	}
	if p.Size == 2 && p.Stride == 2 {
		maxPool2x2(y.Data(), argmax, x.Data(), n*c, h, w, oh, ow)
	} else {
		maxPoolWindow(y.Data(), argmax, x.Data(), n*c, h, w, oh, ow, p.Size, p.Stride)
	}
	return y
}

// maxPoolWindow pools planes h×w images with any window and stride: the
// window is scanned row by row, left to right, and the first maximum
// wins (strict >); selects, not branches. A nil argmax records nothing.
//
// fedlint:hotpath
func maxPoolWindow[T tensor.Float](yd []T, argmax []int, xd []T, planes, h, w, oh, ow, size, stride int) {
	for pl := 0; pl < planes; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + (oy*stride)*w + ox*stride
				best := xd[bestIdx]
				for ky := 0; ky < size; ky++ {
					row := base + (oy*stride+ky)*w + ox*stride
					for kx, v := range xd[row : row+size] {
						gt := v > best
						best = tensor.Select(gt, v, best)
						if gt {
							bestIdx = row + kx
						}
					}
				}
				out := (pl*oh+oy)*ow + ox
				yd[out] = best
				if argmax != nil {
					argmax[out] = bestIdx
				}
			}
		}
	}
}

// maxPool2x2 is maxPoolWindow at size 2, stride 2 — every pool in the
// paper's models: two input rows streamed per output row, the four
// candidates compared in maxPoolWindow's order — (0,0), (0,1), (1,0),
// (1,1), first maximum wins on strict > — so value, argmax and NaN
// behaviour are its own.
//
// fedlint:hotpath
func maxPool2x2[T tensor.Float](yd []T, argmax []int, xd []T, planes, h, w, oh, ow int) {
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < oh; oy++ {
			i0 := (pl*h + 2*oy) * w
			r0 := xd[i0:][:2*ow]
			r1 := xd[i0+w:][:2*ow]
			out := (pl*oh + oy) * ow
			yrow := yd[out:][:ow]
			for ox := range yrow {
				best, idx := r0[2*ox], 0
				gt := r0[2*ox+1] > best
				best = tensor.Select(gt, r0[2*ox+1], best)
				if gt {
					idx = 1
				}
				gt = r1[2*ox] > best
				best = tensor.Select(gt, r1[2*ox], best)
				if gt {
					idx = w
				}
				gt = r1[2*ox+1] > best
				best = tensor.Select(gt, r1[2*ox+1], best)
				if gt {
					idx = w + 1
				}
				yrow[ox] = best
				if argmax != nil {
					argmax[out+ox] = i0 + 2*ox + idx
				}
			}
		}
	}
}

// Backward implements LayerOf.
//
// fedlint:hotpath
func (p *MaxPool2DOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if len(p.argmax) != grad.Len() {
		panic("nn: MaxPool2D.Backward without a matching training Forward")
	}
	p.dx = tensor.EnsureShape(p.dx, p.inShape...)
	p.dx.Zero() // scatter-add below touches only argmax positions
	dd, gd := p.dx.Data(), grad.Data()
	for i, src := range p.argmax {
		dd[src] += gd[i]
	}
	return p.dx
}

// DropoutOf zeroes activations with probability P during training and
// scales the survivors by 1/(1−P) (inverted dropout). It is an identity at
// inference time. The rng draw sequence per element is the same for every
// element type, so f32 and f64 networks driven by the same seed drop the
// same activations.
type DropoutOf[T tensor.Float] struct {
	P    float64
	rng  *rand.Rand
	keep []bool
	y    *tensor.TensorOf[T] // forward output (training path)
	dx   *tensor.TensorOf[T] // input gradient
}

// NewDropoutOf constructs a dropout layer driven by rng.
func NewDropoutOf[T tensor.Float](rng *rand.Rand, p float64) *DropoutOf[T] {
	return &DropoutOf[T]{P: p, rng: rng}
}

// Name implements LayerOf.
func (d *DropoutOf[T]) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.P) }

// Params implements LayerOf.
func (d *DropoutOf[T]) Params() []*ParamOf[T] { return nil }

// Forward implements LayerOf.
//
// fedlint:hotpath
func (d *DropoutOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if !train {
		return x
	}
	if d.P <= 0 {
		d.keep = nil
		return x
	}
	d.y = tensor.EnsureShape(d.y, x.Shape()...)
	if cap(d.keep) < x.Len() {
		d.keep = make([]bool, x.Len())
	}
	d.keep = d.keep[:x.Len()]
	scale := T(1 / (1 - d.P))
	xd, yd := x.Data(), d.y.Data()
	for i, v := range xd {
		if d.rng.Float64() < d.P {
			d.keep[i] = false
			yd[i] = 0
		} else {
			d.keep[i] = true
			yd[i] = v * scale
		}
	}
	return d.y
}

// infer implements inferer: dropout is the identity at inference.
func (d *DropoutOf[T]) infer(x *tensor.TensorOf[T], _ *inferSlot[T]) *tensor.TensorOf[T] { return x }

// Backward implements LayerOf.
//
// fedlint:hotpath
func (d *DropoutOf[T]) Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if d.keep == nil {
		return grad
	}
	d.dx = tensor.EnsureShape(d.dx, grad.Shape()...)
	gd, dd := grad.Data(), d.dx.Data()
	scale := T(1 / (1 - d.P))
	for i, v := range gd {
		if d.keep[i] {
			dd[i] = v * scale
		} else {
			dd[i] = 0
		}
	}
	return d.dx
}
