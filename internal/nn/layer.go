// Package nn is a from-scratch CPU deep-learning substrate: layers, losses,
// SGD training and the LeNet / VGG6 architectures evaluated in the paper.
// The federated engine trains real models with it, and the performance
// profiler consumes its parameter counts (convolutional vs dense split,
// paper §IV-B) and FLOP estimates.
//
// Every layer, the network container and the optimizer are generic over the
// tensor element type (float32 or float64). The float64 network, which the
// federated engine evaluates and aggregates, is Network; both paths are
// built through BuildNetwork and the Trainer constructor (see trainer.go).
package nn

import "fedsched/internal/tensor"

// ParamOf is a trainable parameter with its gradient accumulator. Grad has
// the same shape as W and is zeroed by the optimizer after each step.
type ParamOf[T tensor.Float] struct {
	Name string
	W    *tensor.TensorOf[T]
	Grad *tensor.TensorOf[T]
}

// LayerOf is a differentiable network stage. Forward consumes the previous
// activation and returns the next one; Backward consumes dLoss/dOutput and
// returns dLoss/dInput, accumulating parameter gradients along the way.
// Layers cache whatever they need between Forward and Backward, so a layer
// instance must not be shared between concurrently-training networks.
type LayerOf[T tensor.Float] interface {
	// Name identifies the layer kind for diagnostics.
	Name() string
	// Forward runs the layer. train enables training-only behaviour
	// such as dropout.
	Forward(x *tensor.TensorOf[T], train bool) *tensor.TensorOf[T]
	// Backward propagates the output gradient to the input gradient.
	Backward(grad *tensor.TensorOf[T]) *tensor.TensorOf[T]
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*ParamOf[T]
}

// ParamClass distinguishes convolutional from densely-connected parameters;
// the profiler regresses training time against the two counts separately
// because convolutions dominate compute (paper §IV-B).
type ParamClass int

const (
	// ClassConv marks convolutional parameters.
	ClassConv ParamClass = iota + 1
	// ClassDense marks densely-connected parameters.
	ClassDense
)

// Classed is implemented by layers whose parameters belong to a class.
type Classed interface {
	Class() ParamClass
}

// FlopsCounter is implemented by layers that can estimate the forward-pass
// floating point operations for a single sample.
type FlopsCounter interface {
	// FlopsPerSample returns forward-pass FLOPs for one input sample.
	FlopsPerSample() float64
}

func newParamOf[T tensor.Float](name string, shape ...int) *ParamOf[T] {
	return &ParamOf[T]{
		Name: name,
		W:    tensor.NewOf[T](shape...),
		Grad: tensor.NewOf[T](shape...),
	}
}
