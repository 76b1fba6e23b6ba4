package fl

import (
	"fmt"

	"fedsched/internal/nn"
	"fedsched/internal/secagg"
	"fedsched/internal/tensor"
)

// flattenWeights serializes a weight list into one vector, scaling each
// tensor by `scale` (the FedAvg sample weight).
func flattenWeights(ws []*tensor.Tensor, scale float64, dst []float64) []float64 {
	total := 0
	for _, w := range ws {
		total += w.Len()
	}
	if cap(dst) < total {
		dst = make([]float64, total)
	}
	dst = dst[:total]
	off := 0
	for _, w := range ws {
		for _, v := range w.Data() {
			dst[off] = v * scale
			off++
		}
	}
	return dst
}

// unflattenInto copies a flat vector back into the weight tensors, scaling
// by `scale`.
func unflattenInto(ws []*tensor.Tensor, flat []float64, scale float64) {
	off := 0
	for _, w := range ws {
		d := w.Data()
		for i := range d {
			d[i] = flat[off] * scale
			off++
		}
	}
}

// secureRound aggregates the round's client weights through the
// pairwise-mask protocol: each cohort member masks n_i·w_i; the server
// sums the masked vectors (individual updates stay hidden) and divides by
// the total sample count. The whole cohort sel (indices into active, one
// ClientRound each) must have survived. The returned tensors replace the
// global weights.
func secureRound(net *nn.Network, active []*Client, sel []int, crs []ClientRound) ([]*tensor.Tensor, error) {
	group, err := secagg.NewGroup(len(sel), 0x5eca66)
	if err != nil {
		return nil, err
	}
	masked := make([][]uint64, len(sel))
	var scratch []float64
	total := 0
	for i, idx := range sel {
		c := active[idx]
		scratch = flattenWeights(c.w, float64(crs[i].Samples), scratch)
		masked[i], err = group.Mask(i, scratch)
		if err != nil {
			return nil, fmt.Errorf("fl: secure aggregation mask for client %d: %w", c.ID, err)
		}
		total += crs[i].Samples
	}
	sum, err := group.Aggregate(masked)
	if err != nil {
		return nil, fmt.Errorf("fl: secure aggregation: %w", err)
	}
	// Template tensors with the right shapes for the averaged weights.
	out := net.GetWeights()
	unflattenInto(out, sum, 1/float64(total))
	return out, nil
}
