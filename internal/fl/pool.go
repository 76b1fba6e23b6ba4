package fl

import (
	"fedsched/internal/nn"
	"fedsched/internal/tensor"
)

// forEachBatch runs fn(i, net) for every batch index in [0, n), fanning
// out across copies of net when parallelism is available. The original
// net serves the calling goroutine; each extra worker gets its own copy
// (own layer caches), because forward passes mutate per-layer state: one
// of *spares given net's weights, or else a clone, appended to *spares
// for the next call — so a run's evaluations reuse the copies, warmed
// workspaces included, of the last. spares may be nil (clone every time).
// Networks without a Clone blueprint fall back to the sequential loop.
// fn must write its result into task-indexed storage; any merge happens
// after return, in batch order.
func forEachBatch(net *nn.Network, spares *[]*nn.Network, workers, n int, fn func(i int, m *nn.Network)) {
	used := 0
	tensor.FanOut(workers, n, net, func(net *nn.Network) (*nn.Network, bool) {
		if spares != nil && used < len(*spares) {
			m := (*spares)[used]
			m.SetWeights(net.Weights())
			used++
			return m, true
		}
		c := cloneNet(net)
		if c != nil && spares != nil {
			*spares = append(*spares, c)
			used++
		}
		return c, c != nil
	}, fn)
}

// cloneNet builds an extra batch worker's network; tests count the calls.
var cloneNet = (*nn.Network).Clone

// predict classifies one evaluation batch; tests count the calls.
var predict = (*nn.Network).Predict
