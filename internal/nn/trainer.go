package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/tensor"
)

// Precision selects the element type client models train in. The federated
// engines keep their server-side state — global weights, FedAvg reduction,
// evaluation — in float64 regardless, so the deterministic post-join
// reduction guarantees (bit-identical histories for any worker count) hold
// on both paths; Precision only changes the arithmetic inside each
// client's local gradient descent.
type Precision string

const (
	// F64 trains in float64 — the historical default.
	F64 Precision = "f64"
	// F32 trains in float32 — half the memory traffic and twice the SIMD
	// width of the blocked kernels, matching what on-device training
	// stacks (DL4J/OpenBLAS and successors) actually run.
	F32 Precision = "f32"
)

// ParsePrecision maps flag spellings to a Precision. The empty string is
// the float64 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64", "fp64":
		return F64, nil
	case "f32", "float32", "fp32":
		return F32, nil
	}
	return "", fmt.Errorf("nn: unknown precision %q (want f32 or f64)", s)
}

// Trainer is the precision-agnostic local-training handle the federated
// engines drive. Its boundary API speaks float64 tensors — weights cross
// in and out as float64 regardless of the training element type — so the
// FedAvg reduction always accumulates in float64.
type Trainer interface {
	// TrainBatch runs one forward/backward pass; gradients accumulate for
	// Step. x is the float64 mini-batch from the dataset (converted to the
	// training element type internally on the f32 path, through a
	// persistent buffer).
	TrainBatch(x *tensor.Tensor, labels []int) float64
	// Step applies the optimizer to all parameters and zeroes gradients.
	Step()
	// ResetOpt discards momentum state (fresh global weights).
	ResetOpt()
	// SetLR overrides the learning rate (LR schedules).
	SetLR(lr float64)
	// SetWeights overwrites the model from float64 tensors, rounding on
	// the f32 path.
	SetWeights(ws []*tensor.Tensor)
	// Weights returns the model weights as float64 tensors for
	// aggregation. On the f64 path these are the live parameter tensors
	// (zero-copy); on the f32 path they are persistent shadow tensors
	// widened from the float32 weights on each call — mutating them does
	// not write through, use SetWeights.
	Weights() []*tensor.Tensor
	// GetWeights returns an owned float64 deep copy of the weights.
	GetWeights() []*tensor.Tensor
	// HasNonFinite reports whether any weight is NaN or ±Inf.
	HasNonFinite() bool
	// EvalNetwork returns a float64 network holding the current weights,
	// for evaluation. On the f64 path it is the live network; on the f32
	// path a cached float64 twin is synced and returned.
	EvalNetwork() *Network
}

// NewTrainer builds a model of the requested precision with weights
// initialized from rng and an SGD optimizer. The rng draw sequence is
// identical for both precisions, so an f32 and an f64 trainer built from
// the same seed start from the same (rounded) weights and any surrounding
// seeded draws stay aligned.
func NewTrainer(p Precision, arch *Arch, rng *rand.Rand, lr, momentum float64) Trainer {
	if p == F32 {
		n := BuildNetwork[float32](arch, rng)
		return &trainer32{
			arch: arch,
			net:  n,
			opt:  NewSGDOf[float32](lr, momentum, 0),
			ps:   n.Params(),
		}
	}
	n := BuildNetwork[float64](arch, rng)
	return &trainer64{net: n, opt: NewSGDOf[float64](lr, momentum, 0), ps: n.Params()}
}

// trainer64 is the zero-overhead float64 path: every method forwards to
// the network/optimizer exactly as the engines historically called them,
// and Weights exposes the live parameter tensors without copying.
type trainer64 struct {
	net *Network
	opt *SGD
	ps  []*Param
	ws  []*tensor.Tensor // cached live-weight view
}

// TrainBatch implements Trainer.
//
// fedlint:hotpath
func (t *trainer64) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	return t.net.TrainBatch(x, labels)
}

// Step implements Trainer.
//
// fedlint:hotpath
func (t *trainer64) Step() { t.opt.Step(t.ps) }

func (t *trainer64) ResetOpt()        { t.opt.Reset() }
func (t *trainer64) SetLR(lr float64) { t.opt.LR = lr }

func (t *trainer64) SetWeights(ws []*tensor.Tensor) { t.net.SetWeights(ws) }

func (t *trainer64) Weights() []*tensor.Tensor {
	if t.ws == nil {
		t.ws = t.net.Weights()
	}
	return t.ws
}

func (t *trainer64) GetWeights() []*tensor.Tensor { return t.net.GetWeights() }

func (t *trainer64) HasNonFinite() bool {
	for _, p := range t.ps {
		for _, v := range p.W.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

func (t *trainer64) EvalNetwork() *Network { return t.net }

// trainer32 trains a float32 model behind the float64 boundary: inputs
// narrow through a persistent buffer, weights cross the boundary through
// persistent float64 shadow tensors, and evaluation runs on a cached
// float64 twin of the architecture.
type trainer32 struct {
	arch *Arch
	net  *NetworkOf[float32]
	opt  *SGDOf[float32]
	ps   []*ParamOf[float32]

	xbuf   *tensor.TensorOf[float32] // persistent input-narrowing buffer
	shadow []*tensor.Tensor          // persistent f64 weight shadows
	eval   *Network                  // cached f64 twin for Evaluate
}

// TrainBatch implements Trainer. The batch narrows into a workspace that
// is reused across batches, so the steady state stays allocation-free.
//
// fedlint:hotpath
func (t *trainer32) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	t.xbuf = tensor.EnsureShape(t.xbuf, x.Shape()...)
	xd, bd := x.Data(), t.xbuf.Data()
	for i, v := range xd {
		bd[i] = float32(v)
	}
	return t.net.TrainBatch(t.xbuf, labels)
}

// Step implements Trainer.
//
// fedlint:hotpath
func (t *trainer32) Step() { t.opt.Step(t.ps) }

func (t *trainer32) ResetOpt()        { t.opt.Reset() }
func (t *trainer32) SetLR(lr float64) { t.opt.LR = lr }

func (t *trainer32) SetWeights(ws []*tensor.Tensor) {
	if len(ws) != len(t.ps) {
		panic(fmt.Sprintf("nn: SetWeights got %d tensors, model has %d params", len(ws), len(t.ps)))
	}
	for i, p := range t.ps {
		if p.W.Len() != ws[i].Len() {
			panic(fmt.Sprintf("nn: SetWeights param %d size mismatch", i))
		}
		d, s := p.W.Data(), ws[i].Data()
		for j, v := range s {
			d[j] = float32(v)
		}
	}
}

func (t *trainer32) Weights() []*tensor.Tensor {
	if t.shadow == nil {
		t.shadow = make([]*tensor.Tensor, len(t.ps))
		for i, p := range t.ps {
			t.shadow[i] = tensor.New(p.W.Shape()...)
		}
	}
	for i, p := range t.ps {
		d, s := t.shadow[i].Data(), p.W.Data()
		for j, v := range s {
			d[j] = float64(v)
		}
	}
	return t.shadow
}

func (t *trainer32) GetWeights() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(t.ps))
	for i, p := range t.ps {
		w := tensor.New(p.W.Shape()...)
		d := w.Data()
		for j, v := range p.W.Data() {
			d[j] = float64(v)
		}
		out[i] = w
	}
	return out
}

func (t *trainer32) HasNonFinite() bool {
	for _, p := range t.ps {
		for _, v := range p.W.Data() {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

func (t *trainer32) EvalNetwork() *Network {
	if t.eval == nil {
		// The fixed-seed build is weight-free in effect: every parameter
		// is overwritten by the sync below before anyone reads it.
		t.eval = BuildNetwork[float64](t.arch, rand.New(rand.NewSource(0)))
	}
	evalPs := t.eval.Params()
	for i, p := range t.ps {
		d := evalPs[i].W.Data()
		for j, v := range p.W.Data() {
			d[j] = float64(v)
		}
	}
	return t.eval
}
