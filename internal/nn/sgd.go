package nn

import "fedsched/internal/tensor"

// SGDOf is stochastic gradient descent with classical momentum and optional
// L2 weight decay, generic over the tensor element type. The scalar
// hyper-parameters stay float64 and are rounded to the element type inside
// the tensor AXPY kernels, so the float64 instantiation is bit-identical
// to the historical implementation.
type SGDOf[T tensor.Float] struct {
	LR       float64
	Momentum float64
	Decay    float64
	velocity map[*ParamOf[T]]*tensor.TensorOf[T]
}

// NewSGDOf constructs an SGD optimizer.
func NewSGDOf[T tensor.Float](lr, momentum, decay float64) *SGDOf[T] {
	return &SGDOf[T]{LR: lr, Momentum: momentum, Decay: decay, velocity: make(map[*ParamOf[T]]*tensor.TensorOf[T])}
}

// Step applies one update to every parameter and zeroes the gradients.
func (s *SGDOf[T]) Step(params []*ParamOf[T]) {
	for _, p := range params {
		g := p.Grad
		if s.Decay > 0 {
			g.AddScaled(s.Decay, p.W)
		}
		if s.Momentum > 0 {
			v, ok := s.velocity[p]
			if !ok {
				//fedlint:allow hotalloc — velocity allocates once on first use per parameter; steady-state steps hit the map
				v = tensor.NewOf[T](p.W.Shape()...)
				s.velocity[p] = v
			}
			// v = m·v + g, W −= lr·v, g = 0 in one sweep: the roundings, in
			// the order, of v.Scale(m), v.AddScaled(1, g), W.AddScaled(−lr, v)
			// and g.Zero().
			m, nlr := T(s.Momentum), T(-s.LR)
			vd, wd, gd := v.Data(), p.W.Data(), g.Data()
			for i, x := range vd {
				x = T(x*m) + gd[i]
				vd[i] = x
				wd[i] += T(nlr * x)
				gd[i] = 0
			}
		} else {
			p.W.AddScaled(-s.LR, g)
			g.Zero()
		}
	}
}

// Reset discards momentum state (used when a client receives fresh global
// weights at the start of a federated round). The velocity tensors are
// zeroed in place, not dropped: a zeroed and a fresh velocity are both +0,
// and a client would otherwise re-allocate a model's worth every round.
func (s *SGDOf[T]) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
}
