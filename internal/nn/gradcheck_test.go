package nn

import (
	"math"

	"fedsched/internal/tensor"
)

// GradCheck compares the analytic gradient of the network's loss with a
// central-difference numerical gradient over every parameter, and returns
// the largest relative error encountered, on tiny networks.
//
// The relative-error denominator is floored at GradCheckFloor for the
// element type: 1e-8 suits float64, but float32 arithmetic leaves residual
// errors of order 1e-4 in the gradients themselves, so near-zero gradient
// pairs would otherwise report spurious O(1) relative errors.
func GradCheck[T tensor.Float](n *NetworkOf[T], x *tensor.TensorOf[T], labels []int, eps float64) float64 {
	floor := GradCheckFloor[T]()
	n.ZeroGrads()
	n.TrainBatch(x, labels)
	worst := 0.0
	for _, p := range n.Params() {
		for i := range p.W.Data() {
			orig := p.W.Data()[i]
			p.W.Data()[i] = orig + T(eps)
			lp, _ := SoftmaxCrossEntropy(n.Forward(x, true), labels)
			p.W.Data()[i] = orig - T(eps)
			lm, _ := SoftmaxCrossEntropy(n.Forward(x, true), labels)
			p.W.Data()[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data()[i])
			denom := math.Max(math.Abs(numeric)+math.Abs(analytic), floor)
			if rel := math.Abs(numeric-analytic) / denom; rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// GradCheckFloor returns the denominator floor GradCheck uses for the
// element type: 1e-8 for float64, 1e-3 for float32.
func GradCheckFloor[T tensor.Float]() float64 {
	if tensor.Eps[T]() > 1e-10 {
		return 1e-3
	}
	return 1e-8
}
