package fl

import "fedsched/internal/tensor"

// accumulateWeighted adds weight·w[i] into sum[i] for every tensor — the
// FedAvg weighted-sum inner loop shared by the synchronous, asynchronous
// and gossip engines. sum and w must have matching lengths and shapes.
//
// fedlint:hotpath
func accumulateWeighted(sum, w []*tensor.Tensor, weight float64) {
	for i, t := range w {
		sum[i].AddScaled(weight, t)
	}
}

// scaleWeights multiplies every tensor in ws by a.
//
// fedlint:hotpath
func scaleWeights(ws []*tensor.Tensor, a float64) {
	for _, t := range ws {
		t.Scale(a)
	}
}

// ensureWeightsLike returns dst resized and zeroed to match ws shape-for-
// shape, reusing every tensor that already fits — the aggregation-scratch
// analogue of tensor.EnsureShape. dst may be nil or alias tensors in ws'
// history; reused tensors are explicitly zeroed since EnsureShape
// preserves contents.
//
// fedlint:hotpath
func ensureWeightsLike(dst, ws []*tensor.Tensor) []*tensor.Tensor {
	if len(dst) != len(ws) {
		dst = make([]*tensor.Tensor, len(ws))
	}
	for i, w := range ws {
		t := tensor.EnsureShape(dst[i], w.Shape()...)
		if t == dst[i] {
			t.Zero()
		}
		dst[i] = t
	}
	return dst
}

// copyWeights copies src into dst, tensor by tensor; the two must match
// shape for shape.
//
// fedlint:hotpath
func copyWeights(dst, src []*tensor.Tensor) {
	for i, t := range src {
		copy(dst[i].Data(), t.Data())
	}
}

// roundToFloat32 rounds every element of ws to the nearest float32, as
// storing it in a float32 model would.
//
// fedlint:hotpath
func roundToFloat32(ws []*tensor.Tensor) {
	for _, t := range ws {
		d := t.Data()
		for i, v := range d {
			d[i] = float64(float32(v))
		}
	}
}

// cloneWeights deep-copies a weight list.
func cloneWeights(ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		out[i] = w.Clone()
	}
	return out
}
