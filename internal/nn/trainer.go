package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	// the f32 path. Handing back what Weights returns copies nothing on
	// the f64 path.
	SetWeights(ws []*tensor.Tensor)
	// Weights returns the model weights as float64 tensors for
	// aggregation. On the f64 path these are the live parameter tensors
	// (zero-copy); on the f32 path they are persistent shadow tensors
	// widened from the float32 weights on each call — mutating them does
	// not write through, use SetWeights. After Bind(ws) both are ws.
	Weights() []*tensor.Tensor
	// Bind makes ws — float64 tensors shaped like the parameters, owned
	// by the caller — the model's float64 weights from now on. On the f64
	// path they become the live parameters: SetWeights writes into ws
	// and training updates ws in place. On the f32 path Weights widens
	// into ws. Bind reads nothing from ws: load it through SetWeights.
	// This is how one trainer trains many models without copying each
	// update out.
	Bind(ws []*tensor.Tensor)
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
		return newTrainer[float32](arch, rng, lr, momentum)
	}
	return newTrainer[float64](arch, rng, lr, momentum)
}

func newTrainer[T tensor.Float](arch *Arch, rng *rand.Rand, lr, momentum float64) *trainer[T] {
	n := BuildNetwork[T](arch, rng)
	t := &trainer[T]{arch: arch, net: n, opt: NewSGDOf[T](lr, momentum, 0), ps: n.Params()}
	t.live, _ = any(n).(*Network)
	return t
}

// trainer trains a NetworkOf[T] behind the float64 boundary. At float64
// the boundary is zero-copy: batches pass through, and Weights and
// EvalNetwork hand out the live network's tensors. At float32 batches
// narrow through a persistent buffer, Weights widens into persistent
// float64 shadow tensors, and evaluation runs on a cached float64 twin of
// the architecture.
type trainer[T tensor.Float] struct {
	arch *Arch
	net  *NetworkOf[T]
	live *Network // net itself when T is float64, else nil
	opt  *SGDOf[T]
	ps   []*ParamOf[T]

	xbuf *tensor.TensorOf[T] // persistent input-narrowing buffer (float32)
	ws   []*tensor.Tensor    // Weights' view: the live tensors, the shadows or Bind's
	eval *Network            // cached float64 twin for evaluation (float32)
}

// convert copies src into dst, which has src's length, rounding or
// widening each element; between equal element types it is a plain copy,
// and none at all when dst is src.
func convert[D, S tensor.Float](dst *tensor.TensorOf[D], src *tensor.TensorOf[S]) {
	if d, ok := any(dst).(*tensor.TensorOf[S]); ok {
		if d != src {
			copy(d.Data(), src.Data())
		}
		return
	}
	d := dst.Data()
	for i, v := range src.Data() {
		d[i] = D(v)
	}
}

// TrainBatch implements Trainer. A float32 model narrows the batch into a
// workspace that is reused across batches, so the steady state stays
// allocation-free.
//
// fedlint:hotpath
func (t *trainer[T]) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	xt, ok := any(x).(*tensor.TensorOf[T])
	if !ok {
		t.xbuf = tensor.EnsureShape(t.xbuf, x.Shape()...)
		convert(t.xbuf, x)
		xt = t.xbuf
	}
	return t.net.TrainBatch(xt, labels)
}

// Step implements Trainer.
//
// fedlint:hotpath
func (t *trainer[T]) Step() { t.opt.Step(t.ps) }

func (t *trainer[T]) ResetOpt()        { t.opt.Reset() }
func (t *trainer[T]) SetLR(lr float64) { t.opt.LR = lr }

func (t *trainer[T]) SetWeights(ws []*tensor.Tensor) {
	if len(ws) != len(t.ps) {
		panic(fmt.Sprintf("nn: SetWeights got %d tensors, model has %d params", len(ws), len(t.ps)))
	}
	for i, p := range t.ps {
		if p.W.Len() != ws[i].Len() {
			panic(fmt.Sprintf("nn: SetWeights param %d size mismatch", i))
		}
		convert(p.W, ws[i])
	}
}

func (t *trainer[T]) Weights() []*tensor.Tensor {
	if t.live != nil {
		if t.ws == nil {
			t.ws = t.live.Weights()
		}
		return t.ws
	}
	if t.ws == nil {
		t.ws = make([]*tensor.Tensor, len(t.ps))
		for i, p := range t.ps {
			t.ws[i] = tensor.New(p.W.Shape()...)
		}
	}
	for i, p := range t.ps {
		convert(t.ws[i], p.W)
	}
	return t.ws
}

func (t *trainer[T]) Bind(ws []*tensor.Tensor) {
	if len(ws) != len(t.ps) {
		panic(fmt.Sprintf("nn: Bind got %d tensors, model has %d params", len(ws), len(t.ps)))
	}
	for i, p := range t.ps {
		if !slices.Equal(p.W.Shape(), ws[i].Shape()) {
			panic(fmt.Sprintf("nn: Bind param %d is %v, want %v", i, ws[i].Shape(), p.W.Shape()))
		}
		// Layers read p.W afresh on every pass, so re-pointing it is
		// enough at float64.
		if w, ok := any(ws[i]).(*tensor.TensorOf[T]); ok {
			p.W = w
		}
	}
	t.ws = ws
}

func (t *trainer[T]) HasNonFinite() bool {
	for _, p := range t.ps {
		for _, v := range p.W.Data() {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

func (t *trainer[T]) EvalNetwork() *Network {
	if t.live != nil {
		return t.live
	}
	if t.eval == nil {
		// The fixed-seed build is weight-free in effect: every parameter
		// is overwritten by the sync below before anyone reads it.
		t.eval = BuildNetwork[float64](t.arch, rand.New(rand.NewSource(0)))
	}
	for i, p := range t.eval.Params() {
		convert(p.W, t.ps[i].W)
	}
	return t.eval
}
