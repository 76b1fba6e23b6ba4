package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fedsched/internal/tensor"
)

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", F64}, {"f64", F64}, {"float64", F64}, {"fp64", F64},
		{"f32", F32}, {"float32", F32}, {"fp32", F32},
	} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
}

// TestTrainerInitDrawParity pins the rng-alignment guarantee: a float32 and
// a float64 trainer built from the same seed consume identical draw
// sequences, so their initial weights agree up to float32 rounding.
func TestTrainerInitDrawParity(t *testing.T) {
	arch := LeNetSmall(1, 16, 16, 10)
	t64 := NewTrainer(F64, arch, rand.New(rand.NewSource(9)), 0.05, 0.9)
	t32 := NewTrainer(F32, arch, rand.New(rand.NewSource(9)), 0.05, 0.9)
	w64, w32 := t64.Weights(), t32.Weights()
	if len(w64) != len(w32) {
		t.Fatalf("parameter count mismatch: %d vs %d", len(w64), len(w32))
	}
	for i := range w64 {
		a, b := w64[i].Data(), w32[i].Data()
		for j := range a {
			if float64(float32(a[j])) != b[j] {
				t.Fatalf("param %d[%d]: f64 init %v does not round to f32 init %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestTrainerF32RoundTrips covers the float64 boundary of the f32 path:
// SetWeights rounds in, Weights widens out, and HasNonFinite sees
// through the element type.
func TestTrainerF32RoundTrips(t *testing.T) {
	arch := MLP(6, 5, 3)
	tr := NewTrainer(F32, arch, rand.New(rand.NewSource(4)), 0.05, 0)
	ws := ownedWeights(tr)
	for _, w := range ws {
		w.Fill(0.25) // exactly representable: survives the f32 round-trip
	}
	tr.SetWeights(ws)
	for _, w := range tr.Weights() {
		for _, v := range w.Data() {
			if v != 0.25 {
				t.Fatalf("weight %v after exact round-trip, want 0.25", v)
			}
		}
	}
	if tr.HasNonFinite() {
		t.Fatal("finite weights flagged")
	}
	ws[0].Data()[0] = math.Inf(1)
	tr.SetWeights(ws)
	if !tr.HasNonFinite() {
		t.Fatal("Inf weight missed through the f32 boundary")
	}
}

// TestTrainerF32EvalNetworkSynced checks the cached float64 evaluation twin
// tracks the live float32 weights.
func TestTrainerF32EvalNetworkSynced(t *testing.T) {
	arch := MLP(4, 3, 2)
	tr := NewTrainer(F32, arch, rand.New(rand.NewSource(5)), 0.05, 0)
	ev1 := tr.EvalNetwork()
	ws := ownedWeights(tr)
	for _, w := range ws {
		w.Fill(0.5)
	}
	tr.SetWeights(ws)
	ev2 := tr.EvalNetwork()
	if ev1 != ev2 {
		t.Fatal("EvalNetwork rebuilt the twin instead of caching it")
	}
	for _, p := range ev2.Params() {
		for _, v := range p.W.Data() {
			if v != 0.5 {
				t.Fatalf("eval twin weight %v, want 0.5", v)
			}
		}
	}
}

// TestGradCheckF32 runs the finite-difference check on a float32 network
// with the element-type-dependent tolerance: float32 arithmetic cannot do
// better than ~1e-2 relative error against a float64-ish numeric gradient
// at usable step sizes, versus 1e-4 for float64 (see TestDenseGradCheck).
func TestGradCheckF32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetworkOf[float32]("test",
		NewDenseOf[float32](rng, 5, 4), NewReLUOf[float32](), NewDenseOf[float32](rng, 4, 3))
	x := tensor.RandnOf[float32](rng, 1, 6, 5)
	labels := []int{0, 1, 2, 0, 1, 2}
	// Step size balances truncation against f32 round-off: ~sqrt(eps32).
	if worst := GradCheck(net, x, labels, 3e-4); worst > 2e-2 {
		t.Fatalf("f32 grad check worst relative error %v", worst)
	}
}

// TestTrainBatchSteadyStateAllocsF32 is the float32 twin of
// TestTrainBatchSteadyStateAllocs, run through the Trainer boundary so the
// input-narrowing buffer and optimizer state are covered too: after the
// first batch, TrainBatch+Step must not allocate.
func TestTrainBatchSteadyStateAllocsF32(t *testing.T) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	rng := rand.New(rand.NewSource(15))
	tr := NewTrainer(F32, LeNetSmall(1, 16, 16, 10), rng, 0.01, 0.9)
	x := tensor.Randn(rng, 1, 20, 1, 16, 16)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 10
	}
	tr.TrainBatch(x, labels) // first batch sizes all workspaces
	tr.Step()                // first step allocates velocity tensors
	avg := testing.AllocsPerRun(10, func() {
		tr.TrainBatch(x, labels)
		tr.Step()
	})
	if avg > 0.5 && !raceEnabled {
		t.Fatalf("steady-state f32 TrainBatch+Step allocates %.1f objects/run, want 0", avg)
	}
}

// TestConvNoIm2ColWorkspace pins the implicit-GEMM memory win: after the
// first forward/backward has sized every workspace, (a) further batches on
// the same geometry allocate nothing, and (b) the layer's total retained
// workspace is smaller than the im2col patch matrix the old path
// materialized — the buffer is genuinely gone, not renamed.
func TestConvNoIm2ColWorkspace(t *testing.T) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	rng := rand.New(rand.NewSource(21))
	// Geometry where the patch matrix dwarfs activations: kdim = 24·3·3.
	conv := NewConv2DOf[float64](rng, 24, 16, 3, 1, 1)
	x := tensor.Randn(rng, 1, 2, 24, 14, 14)
	y := conv.Forward(x, true)
	g := tensor.Randn(rng, 1, y.Shape()...)
	conv.Backward(g)

	avg := testing.AllocsPerRun(10, func() {
		conv.Forward(x, true)
		conv.Backward(g)
	})
	if avg > 0.5 && !raceEnabled {
		t.Fatalf("steady-state conv fwd+bwd allocates %.1f objects/run, want 0", avg)
	}

	m := 2 * 14 * 14              // batch × OH × OW rows
	im2colElems := m * 24 * 3 * 3 // the buffer the old path kept alive
	retained := conv.y.Len() + conv.dw.Len() + conv.dx.Len()
	if retained >= im2colElems {
		t.Fatalf("conv retains %d workspace elements ≥ im2col's %d — patch matrix not eliminated",
			retained, im2colElems)
	}
}

// TestCheckpointCrossPrecision covers the v2 dtype tag: an f32 checkpoint
// loads into an f64 network by widening (exactly), and an f64 checkpoint
// round-trips through an f32 network with rounding. Out-of-range f64
// weights must be rejected rather than narrowed to Inf.
func TestCheckpointCrossPrecision(t *testing.T) {
	arch := MLP(4, 3, 2)
	rng := rand.New(rand.NewSource(11))
	n32 := BuildNetwork[float32](arch, rng)
	var buf bytes.Buffer
	if err := n32.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	n64 := BuildNetwork[float64](arch, rand.New(rand.NewSource(12)))
	if err := n64.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	p32, p64 := n32.Params(), n64.Params()
	for i := range p32 {
		a, b := p32[i].W.Data(), p64[i].W.Data()
		for j := range a {
			if float64(a[j]) != b[j] {
				t.Fatalf("param %d[%d]: widened %v != stored %v", i, j, b[j], a[j])
			}
		}
	}

	// f64 → f32: loads with rounding.
	buf.Reset()
	if err := n64.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	m32 := BuildNetwork[float32](arch, rand.New(rand.NewSource(13)))
	if err := m32.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	q32 := m32.Params()
	for i := range q32 {
		a, b := q32[i].W.Data(), p64[i].W.Data()
		for j := range a {
			if a[j] != float32(b[j]) {
				t.Fatalf("param %d[%d]: loaded %v != rounded %v", i, j, a[j], float32(b[j]))
			}
		}
	}

	// f64 weight beyond f32 range must be rejected on a narrowing load.
	n64.Params()[0].W.Data()[0] = 1e308
	buf.Reset()
	if err := n64.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m32.LoadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("overflowing narrow load not rejected")
	}
}

// TestResetOptReusesVelocity is a federated client's round boundary:
// ResetOpt, then train. Zeroing the velocity tensors in place
// must (a) allocate nothing over two consecutive rounds once the first
// has sized everything, and (b) train exactly as a never-used optimizer
// does — a zeroed velocity and a fresh one are the same +0.
func TestResetOptReusesVelocity(t *testing.T) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	for _, prec := range []Precision{F64, F32} {
		arch := LeNetSmall(1, 16, 16, 10)
		used := NewTrainer(prec, arch, rand.New(rand.NewSource(21)), 0.01, 0.9)
		fresh := NewTrainer(prec, arch, rand.New(rand.NewSource(21)), 0.01, 0.9)
		w0 := ownedWeights(fresh)
		rng := rand.New(rand.NewSource(22))
		x := tensor.Randn(rng, 1, 5, 1, 16, 16)
		labels := []int{0, 3, 5, 7, 9}
		round := func(tr Trainer) {
			tr.ResetOpt()
			for i := 0; i < 2; i++ {
				tr.TrainBatch(x, labels)
				tr.Step()
			}
		}
		round(used) // sizes workspaces and velocities, leaves momentum behind
		if avg := testing.AllocsPerRun(5, func() { round(used); round(used) }); avg > 0.5 && !raceEnabled {
			t.Errorf("%s: two consecutive rounds allocate %.1f objects, want 0", prec, avg)
		}
		used.SetWeights(w0)
		round(used)
		round(fresh)
		a, b := ownedWeights(used), ownedWeights(fresh)
		for i := range a {
			if !tensor.Equal(a[i], b[i], 0) {
				t.Fatalf("%s: param %d differs between a reset and a fresh optimizer", prec, i)
			}
		}
	}
}

// ownedWeights deep-copies tr's float64 weights.
func ownedWeights(tr Trainer) []*tensor.Tensor {
	ws := tr.Weights()
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		out[i] = w.Clone()
	}
	return out
}

// TestTrainerBindTrainsMany is one trainer taking turns on two models,
// the way a federated lane trains its clients: bound to a model's
// float64 tensors, loaded and trained, it leaves in them (once Weights
// is read) bit for bit what a trainer of that model's own leaves in its
// weights — the f64 path training them in place, the f32 path widening
// into them — and a turn on one model leaves the other alone.
func TestTrainerBindTrainsMany(t *testing.T) {
	arch := LeNetSmall(1, 16, 16, 10)
	rng := rand.New(rand.NewSource(31))
	x := tensor.Randn(rng, 1, 7, 1, 16, 16)
	labels := []int{0, 3, 5, 7, 9, 1, 2}
	train := func(tr Trainer) {
		tr.ResetOpt()
		for i := 0; i < 3; i++ {
			tr.TrainBatch(x, labels)
			tr.Step()
		}
	}
	for _, prec := range []Precision{F64, F32} {
		start := ownedWeights(NewTrainer(prec, arch, rand.New(rand.NewSource(32)), 0.01, 0.9))
		own := NewTrainer(prec, arch, rand.New(rand.NewSource(33)), 0.01, 0.9)
		own.SetWeights(start)
		train(own)
		want := ownedWeights(own)

		lane := NewTrainer(prec, arch, rand.New(rand.NewSource(34)), 0.01, 0.9)
		a, b := ownedWeights(lane), ownedWeights(lane)
		for _, w := range b {
			w.Fill(0.5)
		}
		lane.Bind(b)
		lane.SetWeights(b) // its own weights: nothing to copy at f64
		train(lane)
		lane.Weights()
		first := make([]*tensor.Tensor, len(b))
		for i, w := range b {
			first[i] = w.Clone()
		}

		lane.Bind(a)
		lane.SetWeights(start)
		train(lane)
		if got := lane.Weights(); &got[0] != &a[0] {
			t.Fatalf("%s: Weights after Bind(a) is not a", prec)
		}
		if prec == F64 && lane.EvalNetwork().Params()[0].W != a[0] {
			t.Fatal("f64: the bound tensors are not the live parameters")
		}
		for i := range want {
			if !tensor.Equal(a[i], want[i], 0) {
				t.Fatalf("%s: param %d differs between a bound and an owning trainer", prec, i)
			}
			if !tensor.Equal(b[i], first[i], 0) {
				t.Fatalf("%s: param %d of the other model changed", prec, i)
			}
		}
		if tensor.Equal(first[0], want[0], 0) {
			t.Fatalf("%s: fixture: both turns trained to the same weights", prec)
		}
	}
}
