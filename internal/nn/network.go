package nn

import (
	"fmt"
	"math/rand"

	"fedsched/internal/tensor"
)

// BytesPerParam is the on-the-wire size of one model parameter. The paper's
// DL4J checkpoints serialize at ≈12 bytes/parameter (LeNet 205K → 2.5 MB,
// VGG6 5.45M → 65.4 MB): float64 weights plus updater state. We use the
// same ratio so communication times match Table II.
const BytesPerParam = 12

// NetworkOf is a feed-forward stack of layers trained with softmax
// cross-entropy, generic over the tensor element type.
type NetworkOf[T tensor.Float] struct {
	// Arch is a short architecture label such as "LeNet" or "VGG6".
	Arch   string
	Layers []LayerOf[T]

	// arch is the blueprint this network was built from (nil for networks
	// assembled directly with NewNetworkOf); it enables Clone.
	arch *Arch

	// firstParam is the index of the first layer that has parameters
	// (len(Layers) when none does): where Backward stops, see there.
	firstParam int

	// lossGrad is the persistent workspace for the logits gradient, so a
	// steady-state TrainBatch allocates nothing.
	lossGrad *tensor.TensorOf[T]

	// fwdBatch is the batch size of the last training Forward while what
	// it left behind for Backward is intact, 0 otherwise: see Forward.
	fwdBatch int
}

// Network is the float64 network used throughout the federated engine.
type Network = NetworkOf[float64]

// reluFused is implemented by layers (Dense, Conv2D) whose forward pass
// can absorb a directly following ReLU: the producer applies the clamp in
// its own kernel and, when training, leaves its output in r.act. Forward
// uses it as a peephole — the ReLU layer's own Forward is skipped, while
// its Backward (which only reads the sign of that output) runs unchanged,
// so fusion never alters results, only removes a full pass over the
// activation tensor.
type reluFused[T tensor.Float] interface {
	forwardFusedReLU(x *tensor.TensorOf[T], train bool, r *ReLUOf[T]) *tensor.TensorOf[T]
}

// paramsBackward is implemented by the parameterized layers (Dense,
// Conv2D): backwardParams accumulates exactly the parameter gradients
// Backward would, and skips the input gradient.
type paramsBackward[T tensor.Float] interface {
	backwardParams(grad *tensor.TensorOf[T])
}

// NewNetworkOf builds a network from layers with the given architecture
// name.
func NewNetworkOf[T tensor.Float](arch string, layers ...LayerOf[T]) *NetworkOf[T] {
	first := 0
	for first < len(layers) && len(layers[first].Params()) == 0 {
		first++
	}
	return &NetworkOf[T]{Arch: arch, Layers: layers, firstParam: first}
}

// Forward runs all layers and returns the logits. Dense/Conv2D layers
// directly followed by a ReLU run as one fused kernel (see reluFused).
// Only a training forward (train = true) leaves behind what Backward
// needs — cached inputs, ReLU activations, pooling argmax — so inference
// between two training steps disturbs nothing. Between a training
// forward and its Backward, inference is safe at another batch size
// only: the cached inputs and activations are the layers' own output
// tensors, which a pass of the same shape overwrites in place, and
// Backward refuses to run on them.
//
// fedlint:hotpath
func (n *NetworkOf[T]) Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T] {
	if train {
		n.fwdBatch = x.Dim(0)
	} else if x.Dim(0) == n.fwdBatch {
		n.fwdBatch = 0
	}
	for i := 0; i < len(n.Layers); i++ {
		l := n.Layers[i]
		if f, ok := l.(reluFused[T]); ok && i+1 < len(n.Layers) {
			if r, ok := n.Layers[i+1].(*ReLUOf[T]); ok {
				x = f.forwardFusedReLU(x, train, r)
				i++ // the ReLU already ran inside the producer's kernel
				continue
			}
		}
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates a logits gradient (of the last training Forward)
// through the layers, accumulating parameter gradients. It computes no
// dead gradient: the gradient with respect to the network input feeds no
// parameter and no caller reads it, so the walk stops at the first layer
// that has parameters, asks that layer for its parameter gradients only,
// and never runs the parameter-free layers in front of it. And it builds
// no gradient that is mostly structural zeros: a Conv2D → ReLU →
// MaxPool2D block is differentiated in one step from the pooled gradient
// (see backwardConvBlock).
//
// fedlint:hotpath
func (n *NetworkOf[T]) Backward(grad *tensor.TensorOf[T]) {
	if grad.Dim(0) != n.fwdBatch {
		panic("nn: Backward without a matching training Forward")
	}
	for i := len(n.Layers) - 1; i >= n.firstParam; i-- {
		if dx, ok := n.backwardConvBlock(i, grad); ok {
			grad, i = dx, i-2
			continue
		}
		l := n.Layers[i]
		if pb, ok := l.(paramsBackward[T]); ok && i == n.firstParam {
			pb.backwardParams(grad)
		} else {
			grad = l.Backward(grad)
		}
	}
}

// backwardConvBlock is Backward's mirror of Forward's reluFused peephole.
// When layer i is a MaxPool2D whose stride is its window, behind a ReLU
// that was fused into the Conv2D before it, the gradient that
// convolution receives is the unpooling of grad under the ReLU mask —
// three quarters or more of it structural zeros. It is handed over as
// that description (tensor.PooledGrad: grad, the pool's argmax, and the
// pool's output, which is positive exactly where the activation it was
// read from is) and the pool's and the ReLU's Backward never run. The
// result is the convolution's input gradient, nil when it is the
// network's first parameterized layer. Any other pattern — an unfused
// ReLU, an overlapping pool, stale layer state, a shape below the blocked
// kernels' cutoff — reports false, and the layers run one by one: that
// path is the definition, and this one equals it bit for bit.
func (n *NetworkOf[T]) backwardConvBlock(i int, grad *tensor.TensorOf[T]) (*tensor.TensorOf[T], bool) {
	if i-2 < n.firstParam {
		return nil, false
	}
	p, isPool := n.Layers[i].(*MaxPool2DOf[T])
	r, isReLU := n.Layers[i-1].(*ReLUOf[T])
	c, isConv := n.Layers[i-2].(*Conv2DOf[T])
	if !isPool || !isReLU || !isConv || r.act == nil || r.act != c.y || p.Stride != p.Size ||
		len(p.argmax) != grad.Len() || p.y == nil || p.y.Len() != grad.Len() {
		return nil, false
	}
	pg := tensor.PooledGrad[T]{G: grad, Y: p.y, Argmax: p.argmax, Size: p.Size}
	return c.backwardPooled(pg, i-2 > n.firstParam)
}

// TrainBatch runs a forward/backward pass on one mini-batch and returns the
// loss. Parameter gradients are left accumulated for the optimizer.
//
// fedlint:hotpath
func (n *NetworkOf[T]) TrainBatch(x *tensor.TensorOf[T], labels []int) float64 {
	logits := n.Forward(x, true)
	n.lossGrad = tensor.EnsureShape(n.lossGrad, logits.Dim(0), logits.Dim(1))
	loss := SoftmaxCrossEntropyInto(n.lossGrad, logits, labels)
	n.Backward(n.lossGrad)
	return loss
}

// Predict returns the predicted class per sample.
func (n *NetworkOf[T]) Predict(x *tensor.TensorOf[T]) []int {
	return Argmax(n.Forward(x, false))
}

// Params returns every trainable parameter in layer order.
func (n *NetworkOf[T]) Params() []*ParamOf[T] {
	var ps []*ParamOf[T]
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters.
func (n *NetworkOf[T]) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// ParamCounts returns the parameter totals split into convolutional and
// dense classes — the two regressors of the profiler's step-1 model.
func (n *NetworkOf[T]) ParamCounts() (conv, dense int) {
	for _, l := range n.Layers {
		c, ok := l.(Classed)
		if !ok {
			continue
		}
		sz := 0
		for _, p := range l.Params() {
			sz += p.W.Len()
		}
		switch c.Class() {
		case ClassConv:
			conv += sz
		case ClassDense:
			dense += sz
		}
	}
	return conv, dense
}

// FlopsPerSample estimates forward-pass FLOPs for a single sample. Training
// costs roughly 3× this (forward + input-grad + weight-grad passes).
func (n *NetworkOf[T]) FlopsPerSample() float64 {
	total := 0.0
	for _, l := range n.Layers {
		if f, ok := l.(FlopsCounter); ok {
			total += f.FlopsPerSample()
		}
	}
	return total
}

// Clone returns an independent network with the same architecture and a
// deep copy of the weights — fresh layer caches and workspaces, so the
// clone can run forward/backward passes concurrently with the original.
// It returns nil when the network was assembled directly from layers
// (no Arch blueprint to rebuild from); callers must fall back to using
// the original sequentially.
func (n *NetworkOf[T]) Clone() *NetworkOf[T] {
	if n.arch == nil {
		return nil
	}
	// The fixed-seed source is fine here: Build's random init is fully
	// overwritten by the copy below, so no entropy reaches the clone.
	c := BuildNetwork[T](n.arch, rand.New(rand.NewSource(0)))
	src, dst := n.Params(), c.Params()
	for i := range src {
		copy(dst[i].W.Data(), src[i].W.Data())
	}
	return c
}

// Weights returns the live parameter tensors in order, without copying.
// Callers must treat them as read-only; use GetWeights for an owned
// snapshot. This is the zero-allocation path for weighted aggregation.
func (n *NetworkOf[T]) Weights() []*tensor.TensorOf[T] {
	ps := n.Params()
	out := make([]*tensor.TensorOf[T], len(ps))
	for i, p := range ps {
		out[i] = p.W
	}
	return out
}

// GetWeights returns a deep copy of all parameter tensors, in order.
func (n *NetworkOf[T]) GetWeights() []*tensor.TensorOf[T] {
	ps := n.Params()
	out := make([]*tensor.TensorOf[T], len(ps))
	for i, p := range ps {
		out[i] = p.W.Clone()
	}
	return out
}

// SetWeights overwrites all parameters from the given tensors (same order
// and shapes as GetWeights).
func (n *NetworkOf[T]) SetWeights(ws []*tensor.TensorOf[T]) {
	ps := n.Params()
	if len(ws) != len(ps) {
		panic(fmt.Sprintf("nn: SetWeights got %d tensors, model has %d params", len(ws), len(ps)))
	}
	for i, p := range ps {
		if p.W.Len() != ws[i].Len() {
			panic(fmt.Sprintf("nn: SetWeights param %d size mismatch", i))
		}
		copy(p.W.Data(), ws[i].Data())
	}
}

// ZeroGrads clears all accumulated gradients.
func (n *NetworkOf[T]) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}
