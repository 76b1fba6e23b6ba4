package nn

import (
	"math"

	"fedsched/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (N, K) against integer labels, and the gradient with respect to the
// logits. The softmax and the loss are fused for numerical stability.
func SoftmaxCrossEntropy[T tensor.Float](logits *tensor.TensorOf[T], labels []int) (loss float64, grad *tensor.TensorOf[T]) {
	grad = tensor.NewOf[T](logits.Dim(0), logits.Dim(1))
	loss = SoftmaxCrossEntropyInto(grad, logits, labels)
	return loss, grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logits
// gradient into a caller-owned (N, K) tensor — the allocation-free path
// used by NetworkOf.TrainBatch with its persistent loss-gradient
// workspace. The exp/log/normalization arithmetic runs in float64 for
// both element types (the reductions are tiny — K terms — so the cast
// costs nothing), which keeps the float64 instantiation bit-identical to
// the historical implementation and gives the float32 path full-precision
// loss accounting.
//
// fedlint:hotpath
func SoftmaxCrossEntropyInto[T tensor.Float](grad, logits *tensor.TensorOf[T], labels []int) (loss float64) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	if grad.Dim(0) != n || grad.Dim(1) != k {
		panic("nn: SoftmaxCrossEntropyInto grad shape mismatch")
	}
	ld, gd := logits.Data(), grad.Data()
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		g := gd[i*k : (i+1)*k]
		for j, v := range row {
			e := math.Exp(float64(v) - float64(maxv))
			g[j] = T(e)
			sum += e
		}
		inv := 1 / sum
		y := labels[i]
		if y < 0 || y >= k {
			panic("nn: label out of range")
		}
		for j := range g {
			g[j] = T(float64(g[j]) * inv * invN)
		}
		p := float64(g[y]) / invN // softmax probability of true class
		g[y] -= T(invN)
		loss += -math.Log(math.Max(p, 1e-15))
	}
	return loss * invN
}

// Argmax returns the index of the largest value in each row of a 2-D tensor.
func Argmax[T tensor.Float](x *tensor.TensorOf[T]) []int {
	return argmaxInto(make([]int, x.Dim(0)), x)
}

// argmaxInto is Argmax writing into out, which holds one entry per row.
func argmaxInto[T tensor.Float](out []int, x *tensor.TensorOf[T]) []int {
	n, k := x.Dim(0), x.Dim(1)
	d := x.Data()
	for i := 0; i < n; i++ {
		row := d[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
