package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedsched/internal/tensor"
)

func TestDenseForwardShapeAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDenseOf[float64](rng, 4, 3)
	// Zero the weights so output equals the bias.
	d.w.W.Zero()
	d.b.W.Data()[0], d.b.W.Data()[1], d.b.W.Data()[2] = 1, 2, 3
	x := tensor.New(2, 4)
	y := d.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("output shape %v, want [2 3]", y.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if y.At(i, j) != float64(j+1) {
				t.Fatalf("bias not applied: %v", y.Data())
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetworkOf[float64]("test", NewDenseOf[float64](rng, 5, 4), NewReLUOf[float64](), NewDenseOf[float64](rng, 4, 3))
	x := tensor.Randn(rng, 1, 6, 5)
	labels := []int{0, 1, 2, 0, 1, 2}
	if worst := GradCheck(net, x, labels, 1e-5); worst > 1e-4 {
		t.Fatalf("dense grad check worst relative error %v", worst)
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetworkOf[float64]("test",
		NewConv2DOf[float64](rng, 1, 2, 3, 1, 1),
		NewReLUOf[float64](),
		NewMaxPool2DOf[float64](2, 2),
		NewFlattenOf[float64](),
		NewDenseOf[float64](rng, 2*3*3, 3),
	)
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	labels := []int{0, 2}
	if worst := GradCheck(net, x, labels, 1e-5); worst > 1e-3 {
		t.Fatalf("conv grad check worst relative error %v", worst)
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all-zero logits → uniform softmax
	loss, grad := SoftmaxCrossEntropy(logits, []int{1, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want ln(4) = %v", loss, want)
	}
	// Gradient rows sum to zero (softmax minus one-hot, scaled by 1/N).
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += grad.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
	if grad.At(0, 1) >= 0 || grad.At(0, 0) <= 0 {
		t.Fatal("gradient signs wrong: true class must be negative")
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.From([]float64{1000, -1000, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflowed: %v", loss)
	}
	if loss > 1e-9 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data() {
		if math.IsNaN(g) {
			t.Fatal("NaN in gradient")
		}
	}
}

func TestArgmax(t *testing.T) {
	x := tensor.From([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	got := Argmax(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := tensor.From([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := NewMaxPool2DOf[float64](2, 2)
	y := p.Forward(x, true)
	want := []float64{6, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("pool output %v, want %v", y.Data(), want)
		}
	}
	g := tensor.From([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(g)
	// Gradient routed only to the argmax positions.
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("pool backward wrong: %v", dx.Data())
	}
	if s := dx.Sum(); s != 10 {
		t.Fatalf("pool backward should conserve gradient mass: %v", s)
	}
}

// TestMaxPoolBackwardNeedsMatchingForward pins the pool's half of the
// stale-state rule (see TestReLUBackwardNeedsMatchingForward): Backward
// scatters through the argmax of the last training forward, so a gradient
// of any other length — none recorded yet, a shorter one, a longer one
// whose tail would be dropped in silence — is refused.
func TestMaxPoolBackwardNeedsMatchingForward(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); msg != "nn: MaxPool2D.Backward without a matching training Forward" {
				t.Fatalf("%s: recovered %q", name, msg)
			}
		}()
		f()
	}
	rng := rand.New(rand.NewSource(63))
	p := NewMaxPool2DOf[float64](2, 2)
	mustPanic("no forward", func() { p.Backward(tensor.Randn(rng, 1, 2, 3, 2, 2)) })
	p.Forward(tensor.Randn(rng, 1, 2, 3, 4, 4), false)
	mustPanic("inference forward only", func() { p.Backward(tensor.Randn(rng, 1, 2, 3, 2, 2)) })
	p.Forward(tensor.Randn(rng, 1, 2, 3, 4, 4), true)
	p.Backward(tensor.Randn(rng, 1, 2, 3, 2, 2))
	mustPanic("shorter gradient", func() { p.Backward(tensor.Randn(rng, 1, 1, 3, 2, 2)) })
	mustPanic("longer gradient", func() { p.Backward(tensor.Randn(rng, 1, 3, 3, 2, 2)) })
}

// TestMaxPoolForwardNeedsWindow pins the pool's shape check: an input
// plane smaller than the window in either dimension is refused with the
// package's message, not an out-of-range read.
func TestMaxPoolForwardNeedsWindow(t *testing.T) {
	for _, shape := range [][]int{{1, 3, 1, 2}, {1, 3, 2, 1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "nn: MaxPool2D.Forward input smaller than its window" {
					t.Fatalf("shape %v: recovered %q", shape, msg)
				}
			}()
			NewMaxPool2DOf[float64](2, 2).Forward(tensor.New(shape...), true)
		}()
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropoutOf[float64](rng, 0.5)
	x := tensor.New(1, 1000)
	x.Fill(1)
	yTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor not scaled by 1/(1-p): %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	yEval := d.Forward(x, false)
	for _, v := range yEval.Data() {
		if v != 1 {
			t.Fatal("dropout must be identity at eval time")
		}
	}
}

func TestSGDPlainStep(t *testing.T) {
	p := newParamOf[float64]("w", 2)
	p.W.Data()[0], p.W.Data()[1] = 1, 2
	p.Grad.Data()[0], p.Grad.Data()[1] = 10, -10
	opt := NewSGDOf[float64](0.1, 0, 0)
	opt.Step([]*ParamOf[float64]{p})
	if p.W.Data()[0] != 0 || p.W.Data()[1] != 3 {
		t.Fatalf("after step: %v", p.W.Data())
	}
	if p.Grad.Data()[0] != 0 {
		t.Fatal("gradients must be zeroed after step")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := newParamOf[float64]("w", 1)
	opt := NewSGDOf[float64](1, 0.9, 0)
	for i := 0; i < 2; i++ {
		p.Grad.Data()[0] = 1
		opt.Step([]*ParamOf[float64]{p})
	}
	// Step1: v=1, w=-1. Step2: v=0.9+1=1.9, w=-2.9.
	if math.Abs(p.W.Data()[0]+2.9) > 1e-12 {
		t.Fatalf("momentum update wrong: %v", p.W.Data()[0])
	}
	opt.Reset()
	p.Grad.Data()[0] = 1
	opt.Step([]*ParamOf[float64]{p})
	if math.Abs(p.W.Data()[0]+3.9) > 1e-12 {
		t.Fatalf("after reset expected plain step: %v", p.W.Data()[0])
	}
}

// testSGDStepMatchesSweeps holds the one-pass momentum step to the four
// tensor sweeps it replaced — v.Scale(m), v.AddScaled(1, g),
// W.AddScaled(−lr, v), g.Zero() — bit for bit over several steps, with
// weight decay on and off and with gradients that hold −0, ±Inf and NaN.
func testSGDStepMatchesSweeps[T tensor.Float](t *testing.T) {
	for _, decay := range []float64{0, 1e-3} {
		rng := rand.New(rand.NewSource(64))
		p, q := newParamOf[T]("p", 7, 9), newParamOf[T]("q", 7, 9)
		copy(p.W.Data(), tensor.RandnOf[T](rng, 1, 63).Data())
		copy(q.W.Data(), p.W.Data())
		opt := NewSGDOf[T](0.05, 0.9, decay)
		v := tensor.NewOf[T](7, 9)
		for step := 0; step < 4; step++ {
			g := tensor.RandnOf[T](rng, 1, 63)
			if step == 2 {
				saltGrad(rng, g.Data())
			}
			copy(p.Grad.Data(), g.Data())
			copy(q.Grad.Data(), g.Data())
			opt.Step([]*ParamOf[T]{p})
			if decay > 0 {
				q.Grad.AddScaled(decay, q.W)
			}
			v.Scale(0.9)
			v.AddScaled(1, q.Grad)
			q.W.AddScaled(-0.05, v)
			q.Grad.Zero()
			if at, ok := sameGrad(p.W.Data(), q.W.Data()); !ok {
				t.Fatalf("decay %v, step %d: weight %d is %v, the four sweeps give %v", decay, step, at, p.W.Data()[at], q.W.Data()[at])
			}
			if at, ok := sameGrad(opt.velocity[p].Data(), v.Data()); !ok {
				t.Fatalf("decay %v, step %d: velocity differs at %d", decay, step, at)
			}
			if p.Grad.MaxAbs() != 0 {
				t.Fatalf("decay %v, step %d: gradient not cleared", decay, step)
			}
		}
	}
}

func TestSGDStepMatchesSweeps(t *testing.T) {
	t.Run("f64", testSGDStepMatchesSweeps[float64])
	t.Run("f32", testSGDStepMatchesSweeps[float32])
}

func TestSGDWeightDecay(t *testing.T) {
	p := newParamOf[float64]("w", 1)
	p.W.Data()[0] = 10
	opt := NewSGDOf[float64](0.1, 0, 0.5)
	opt.Step([]*ParamOf[float64]{p}) // grad = 0 + 0.5*10 = 5; w = 10 - 0.5 = 9.5
	if math.Abs(p.W.Data()[0]-9.5) > 1e-12 {
		t.Fatalf("decay step wrong: %v", p.W.Data()[0])
	}
}

func TestGetSetWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := LeNetSmall(1, 16, 16, 10)
	n1 := a.Build(rng)
	n2 := a.Build(rng)
	w := n1.GetWeights()
	n2.SetWeights(w)
	x := tensor.Randn(rng, 1, 2, 1, 16, 16)
	// An inference Forward returns logits the caller owns; the snapshot
	// keeps y1 apart from n1 whatever Forward hands out.
	y1 := n1.Forward(x, false).Clone()
	y2 := n2.Forward(x, false)
	if !tensor.Equal(y1, y2, 1e-12) {
		t.Fatal("networks disagree after weight transfer")
	}
	// GetWeights must be a deep copy.
	w[0].Fill(0)
	y3 := n1.Forward(x, false)
	if !tensor.Equal(y1, y3, 1e-12) {
		t.Fatal("GetWeights leaked internal storage")
	}
}

func TestParamCountsPaperScale(t *testing.T) {
	lenet := LeNet(1, 28, 28, 10)
	if got := lenet.ParamCount(); got < 195000 || got > 215000 {
		t.Fatalf("paper-scale LeNet params = %d, want ≈205K", got)
	}
	vgg := VGG6(1, 28, 28, 10)
	if got := vgg.ParamCount(); got < 5.2e6 || got > 5.8e6 {
		t.Fatalf("paper-scale VGG6 params = %d, want ≈5.45M", got)
	}
	// Conv/dense split must be non-trivial for both.
	c, d := lenet.ParamCounts()
	if c == 0 || d == 0 {
		t.Fatalf("LeNet split conv=%d dense=%d", c, d)
	}
	// VGG6 communication payload ≈ 65 MB as in Table II.
	if mb := float64(vgg.SizeBytes()) / 1e6; mb < 55 || mb > 75 {
		t.Fatalf("VGG6 payload = %.1f MB, want ≈65 MB", mb)
	}
	if mb := float64(lenet.SizeBytes()) / 1e6; mb < 2.0 || mb > 3.0 {
		t.Fatalf("LeNet payload = %.1f MB, want ≈2.5 MB", mb)
	}
}

func TestArchAnalyticMatchesBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range []*Arch{
		LeNetSmall(1, 16, 16, 10),
		VGG6Small(3, 16, 16, 10),
		LeNet(1, 28, 28, 10),
		MLP(64, 32, 10),
	} {
		net := a.Build(rng)
		if net.ParamCount() != a.ParamCount() {
			t.Fatalf("%s: analytic params %d != built %d", a.Name, a.ParamCount(), net.ParamCount())
		}
		ac, ad := a.ParamCounts()
		nc, nd := net.ParamCounts()
		if ac != nc || ad != nd {
			t.Fatalf("%s: split mismatch analytic (%d,%d) built (%d,%d)", a.Name, ac, ad, nc, nd)
		}
	}
}

func TestArchFlopsMatchBuiltAfterForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := LeNetSmall(1, 16, 16, 10)
	net := a.Build(rng)
	x := tensor.Randn(rng, 1, 1, 1, 16, 16)
	net.Forward(x, false)
	if math.Abs(net.FlopsPerSample()-a.FlopsPerSample()) > 1 {
		t.Fatalf("FLOPs analytic %v != built %v", a.FlopsPerSample(), net.FlopsPerSample())
	}
	if a.TrainFlopsPerSample() != 3*a.FlopsPerSample() {
		t.Fatal("training FLOPs must be 3× forward")
	}
}

func TestVGGSmallGradCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("grad check on conv stack is slow")
	}
	rng := rand.New(rand.NewSource(9))
	// A tiny VGG-style stack exercising conv+conv+pool composition.
	net := NewNetworkOf[float64]("tiny-vgg",
		NewConv2DOf[float64](rng, 1, 2, 3, 1, 1),
		NewReLUOf[float64](),
		NewConv2DOf[float64](rng, 2, 2, 3, 1, 1),
		NewReLUOf[float64](),
		NewMaxPool2DOf[float64](2, 2),
		NewFlattenOf[float64](),
		NewDenseOf[float64](rng, 2*3*3, 3),
	)
	x := tensor.Randn(rng, 1, 1, 1, 6, 6)
	if worst := GradCheck(net, x, []int{1}, 1e-5); worst > 1e-3 {
		t.Fatalf("tiny-vgg grad check worst relative error %v", worst)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := LeNetSmall(1, 8, 8, 4).Build(rng)
	// LeNetSmall expects 16x16; build a matching tiny problem instead.
	net = NewNetworkOf[float64]("toy",
		NewFlattenOf[float64](),
		NewDenseOf[float64](rng, 64, 32),
		NewReLUOf[float64](),
		NewDenseOf[float64](rng, 32, 4),
	)
	// Linearly separable toy data: class = quadrant of strongest corner.
	n := 64
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 4
		labels[i] = cls
		cy, cx := (cls/2)*4, (cls%2)*4
		for dy := 0; dy < 4; dy++ {
			for dx := 0; dx < 4; dx++ {
				x.Set(1+0.1*rng.NormFloat64(), i, 0, cy+dy, cx+dx)
			}
		}
	}
	opt := NewSGDOf[float64](0.05, 0.9, 0)
	first := net.TrainBatch(x, labels)
	opt.Step(net.Params())
	var last float64
	for e := 0; e < 30; e++ {
		last = net.TrainBatch(x, labels)
		opt.Step(net.Params())
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
	pred := net.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Fatalf("training accuracy %d/%d too low", correct, n)
	}
}

// TestFusedReLUMatchesUnfused verifies the Network.Forward peephole: the
// fused Dense/Conv2D+ReLU kernels must produce bit-identical activations
// and parameter gradients to driving each layer's plain Forward in
// sequence (the arithmetic is the same — sum, +bias, clamp — only the
// number of passes over memory changes).
func TestFusedReLUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n1 := LeNetSmall(1, 16, 16, 10).Build(rng)
	n2 := n1.Clone()
	x := tensor.Randn(rand.New(rand.NewSource(13)), 1, 4, 1, 16, 16)

	y1 := n1.Forward(x, true).Clone() // fused path
	y2 := x                           // unfused: drive layers directly
	for _, l := range n2.Layers {
		y2 = l.Forward(y2, true)
	}
	for i, v := range y1.Data() {
		if math.Float64bits(v) != math.Float64bits(y2.Data()[i]) {
			t.Fatalf("fused forward differs at %d: %v vs %v", i, v, y2.Data()[i])
		}
	}

	grad := tensor.Randn(rand.New(rand.NewSource(14)), 1, 4, 10)
	n1.Backward(grad.Clone())
	g := grad.Clone()
	for i := len(n2.Layers) - 1; i >= 0; i-- {
		g = n2.Layers[i].Backward(g)
	}
	p1, p2 := n1.Params(), n2.Params()
	for pi := range p1 {
		g1, g2 := p1[pi].Grad.Data(), p2[pi].Grad.Data()
		for i := range g1 {
			if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
				t.Fatalf("param %s grad differs at %d: %v vs %v", p1[pi].Name, i, g1[i], g2[i])
			}
		}
	}
}

// testReLUBackwardFromActivation pins the rule that replaced the ReLU
// mask: the gradient passes exactly where the pre-activation was > 0,
// read off the sign of the stored activation — for NaN, ±0, subnormal
// and ±Inf pre-activations too, on the layer's own forward and on the
// Dense and Conv2D kernels that clamp for it.
func testReLUBackwardFromActivation[T tensor.Float](t *testing.T) {
	tiny := T(math.SmallestNonzeroFloat64)
	if _, ok := any(tiny).(float32); ok {
		tiny = T(math.SmallestNonzeroFloat32)
	}
	specials := []T{T(math.NaN()), 0, T(math.Copysign(0, -1)), tiny, -tiny, T(math.Inf(1)), T(math.Inf(-1)), 1.5, -1.5}
	rng := rand.New(rand.NewSource(61))
	negZero := T(math.Copysign(0, -1))
	check := func(name string, pre []T, act, grad, dx *tensor.TensorOf[T]) {
		t.Helper()
		for i, p := range pre {
			wantY, wantDX := T(0), T(0)
			if p > 0 {
				wantY, wantDX = p, grad.Data()[i]
			}
			if y := act.Data()[i]; math.Float64bits(float64(y)) != math.Float64bits(float64(wantY)) {
				t.Fatalf("%s: activation %d = %v for pre-activation %v", name, i, y, p)
			}
			if d := dx.Data()[i]; math.Float64bits(float64(d)) != math.Float64bits(float64(wantDX)) {
				t.Fatalf("%s: gradient %d = %v for pre-activation %v, want %v", name, i, d, p, wantDX)
			}
		}
	}

	// Unfused: the pre-activations are the layer's input.
	pre := make([]T, 64)
	for i := range pre {
		pre[i] = specials[i%len(specials)]
	}
	r := NewReLUOf[T]()
	grad := tensor.RandnOf[T](rng, 1, 4, 16)
	y := r.Forward(tensor.From(pre, 4, 16), true)
	check("unfused", pre, y, grad, r.Backward(grad))

	// Fused into Dense: one input feature of weight 1 and bias −0 makes
	// pre-activation (i, j) the input x[i] itself (+0 for a −0 input: a
	// sum starts at +0), on a shape large enough for the blocked kernel
	// and its ragged last tiles.
	const rows, out = 131, 37
	x := tensor.NewOf[T](rows, 1)
	pre = make([]T, rows*out)
	for i := 0; i < rows; i++ {
		v := specials[rng.Intn(len(specials))]
		x.Data()[i] = v
		for j := 0; j < out; j++ {
			pre[i*out+j] = v + 0
		}
	}
	d, r := NewDenseOf[T](rng, 1, out), NewReLUOf[T]()
	for j := 0; j < out; j++ {
		d.w.W.Data()[j], d.b.W.Data()[j] = 1, negZero
	}
	net := NewNetworkOf[T]("dense-relu", d, r)
	grad = tensor.RandnOf[T](rng, 1, rows, out)
	y = net.Forward(x, true)
	net.Backward(grad)
	check("fused dense", pre, y, grad, r.dx)

	// Fused into Conv2D: a 1×1 kernel does the same per position, into
	// the (N,C,H,W) layout.
	const imgs, hw, ch = 3, 15, 10
	xc := tensor.NewOf[T](imgs, 1, hw, hw)
	pre = make([]T, imgs*ch*hw*hw)
	for img := 0; img < imgs; img++ {
		for p := 0; p < hw*hw; p++ {
			v := specials[rng.Intn(len(specials))]
			xc.Data()[img*hw*hw+p] = v
			for f := 0; f < ch; f++ {
				pre[(img*ch+f)*hw*hw+p] = v + 0
			}
		}
	}
	c, r := NewConv2DOf[T](rng, 1, ch, 1, 1, 0), NewReLUOf[T]()
	for f := 0; f < ch; f++ {
		c.w.W.Data()[f], c.b.W.Data()[f] = 1, negZero
	}
	net = NewNetworkOf[T]("conv-relu", c, r)
	grad = tensor.RandnOf[T](rng, 1, imgs, ch, hw, hw)
	y = net.Forward(xc, true)
	net.Backward(grad)
	check("fused conv", pre, y, grad, r.dx)
}

func TestReLUBackwardFromActivation(t *testing.T) {
	t.Run("f64", testReLUBackwardFromActivation[float64])
	t.Run("f32", testReLUBackwardFromActivation[float32])
}

// TestReLUBackwardNeedsMatchingForward pins that Backward trusts no stale
// state: with no training forward behind it, or one of another size (an
// inference pass in between leaves nothing to differentiate), it panics
// instead of masking the gradient with whatever it remembered.
func TestReLUBackwardNeedsMatchingForward(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); msg != "nn: ReLU.Backward without a matching training Forward" {
				t.Fatalf("%s: recovered %q", name, msg)
			}
		}()
		f()
	}
	rng := rand.New(rand.NewSource(62))
	r := NewReLUOf[float64]()
	mustPanic("no forward", func() { r.Backward(tensor.Randn(rng, 1, 2, 3)) })
	r.Forward(tensor.Randn(rng, 1, 2, 3), false)
	mustPanic("inference forward only", func() { r.Backward(tensor.Randn(rng, 1, 2, 3)) })
	r.Forward(tensor.Randn(rng, 1, 20, 3), true)
	r.Backward(tensor.Randn(rng, 1, 20, 3))
	r.Forward(tensor.Randn(rng, 1, 5, 3), false)
	mustPanic("smaller inference forward since", func() { r.Backward(tensor.Randn(rng, 1, 5, 3)) })
}

// TestTrainBatchSteadyStateAllocs pins the allocation-free hot path: after
// the first batch has sized every layer workspace, repeated TrainBatch
// calls on the same geometry must not allocate at all. Lanes are pinned
// to 0 so the GEMM dispatch takes its closure-free serial path (goroutine
// fan-out would otherwise add a few closure headers per call).
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	rng := rand.New(rand.NewSource(15))
	net := LeNetSmall(1, 16, 16, 10).Build(rng)
	x := tensor.Randn(rng, 1, 20, 1, 16, 16)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 10
	}
	net.TrainBatch(x, labels) // first batch sizes all workspaces
	avg := testing.AllocsPerRun(10, func() {
		net.TrainBatch(x, labels)
	})
	// Allow a sliver of slack for a GC emptying the GEMM scratch pool
	// mid-measurement; anything recurring would show up as ≥ 1 per run.
	if avg > 0.5 && !raceEnabled {
		t.Fatalf("steady-state TrainBatch allocates %.1f objects/run, want 0", avg)
	}
}

// testAllocsAcrossGeometries pins the allocation-free steady state across
// the batch geometries a client goes through: a full TrainBatch at 20, an
// epoch's ragged last batch at 16 and an evaluation Predict at 100. After
// one warm-up cycle, a cycle allocates nothing: the layer workspaces keep
// their storage across geometries (tensor.EnsureShape), the Predict
// borrows its outputs from the bank pool, and the GEMM scratch is pooled.
// The slack is TestTrainBatchSteadyStateAllocs's. The pooled GEMM scratch
// then holds no more than the largest blocks of the cycle's GEMMs, listed
// below and rounded up to the widest register tile (8×8).
func testAllocsAcrossGeometries[T tensor.Float](t *testing.T) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	rng := rand.New(rand.NewSource(15))
	net := BuildNetwork[T](LeNetSmall(1, 16, 16, 10), rng)
	full := tensor.RandnOf[T](rng, 1, 20, 1, 16, 16)
	ragged := tensor.RandnOf[T](rng, 1, 16, 1, 16, 16)
	eval := tensor.RandnOf[T](rng, 1, 100, 1, 16, 16)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 10
	}
	preds := make([]int, 100)
	cycle := func() {
		net.TrainBatch(full, labels)
		net.TrainBatch(ragged, labels[:16])
		net.predictInto(preds, eval)
	}
	// Two collections empty the pools of what earlier tests grew, so
	// the warm-up cycle sizes every workspace and scratch afresh.
	runtime.GC()
	runtime.GC()
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 && !raceEnabled {
		t.Fatalf("a train 20 / train 16 / predict 100 cycle allocates %.1f objects/run, want 0", avg)
	}
	if raceEnabled {
		return // the race detector drops pooled items at random
	}
	// LeNet-S's GEMMs at batch N ∈ {20, 16} (training) and 100
	// (inference), as m, n, k and whether A is packed: conv1 and conv2
	// forward, dense 48→48 and 48→10 forward, their weight and input
	// gradients, and the two conv blocks' weight gradients and conv2's
	// input gradient in chunks of ⌊2¹⁴/150⌋ = 109 rows.
	var needA, needB int
	block := func(m, n, k int, packA bool) {
		kc := min(256, k)
		if packA {
			needA = max(needA, (min(128, m)+7)/8*8*kc)
		}
		needB = max(needB, (min(240, n)+7)/8*8*kc)
	}
	for _, batch := range []int{20, 16, 100} {
		block(batch*256, 6, 25, false)
		block(batch*16, 12, 150, false)
		block(batch, 48, 48, true)
		block(batch, 10, 48, true)
	}
	for _, batch := range []int{20, 16} {
		block(10, 48, batch, true)
		block(batch, 48, 10, true)
		block(48, 48, batch, true)
		block(batch, 48, 48, true)
		block(150, 12, batch*16, false)
		block(min(109, batch*16), 150, 12, true)
		block(25, 6, batch*256, false)
	}
	if a, b := tensor.GemmScratchHeld[T](); a > needA || b > needB {
		t.Fatalf("pooled GEMM scratch holds %d + %d elements, the cycle's largest blocks need %d + %d", a, b, needA, needB)
	}
}

func TestAllocsAcrossGeometries(t *testing.T) {
	t.Run("f64", testAllocsAcrossGeometries[float64])
	t.Run("f32", testAllocsAcrossGeometries[float32])
}

// benchLeNetSmallTrainBatch times the full local-training step (forward,
// loss, backward, SGD) on the network every benchmark job trains —
// LeNet-S on 16×16 inputs, at batch 20 (train_heavy's shape) or 5
// (round_churn's) — single-lane, so ns/op tracks the kernels rather than
// the lane scheduler. It trains one fixed batch, so left alone the loss
// and the velocity underflow after a few thousand steps and the
// optimizer runs on denormals: ns/op would depend on -benchtime. Every
// restoreEvery steps, off the clock, the weights and the velocity go
// back to where they started, which makes the timed program stationary.
func benchLeNetSmallTrainBatch[T tensor.Float](b *testing.B, batch int) {
	old := tensor.MaxLanes()
	tensor.SetMaxLanes(0)
	defer tensor.SetMaxLanes(old)
	rng := rand.New(rand.NewSource(1))
	net := BuildNetwork[T](LeNetSmall(1, 16, 16, 10), rng)
	x := tensor.RandnOf[T](rng, 1, batch, 1, 16, 16)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	opt := NewSGDOf[T](0.01, 0.9, 0)
	params := net.Params()
	start := net.GetWeights()
	const restoreEvery = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%restoreEvery == 0 && i > 0 {
			b.StopTimer()
			net.SetWeights(start)
			opt.Reset()
			b.StartTimer()
		}
		net.TrainBatch(x, labels)
		opt.Step(params)
	}
}

func BenchmarkLeNetSmallTrainBatch(b *testing.B)     { benchLeNetSmallTrainBatch[float64](b, 20) }
func BenchmarkLeNetSmallTrainBatchF32(b *testing.B)  { benchLeNetSmallTrainBatch[float32](b, 20) }
func BenchmarkLeNetSmallTrainBatch5(b *testing.B)    { benchLeNetSmallTrainBatch[float64](b, 5) }
func BenchmarkLeNetSmallTrainBatch5F32(b *testing.B) { benchLeNetSmallTrainBatch[float32](b, 5) }

// sameBits reports the first index at which two equally long slices
// differ in bits (widened to float64, which is exact for float32).
func sameBits[T tensor.Float](a, b []T) (int, bool) {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// testPredictInterleaved pins train=false: inference records nothing
// the backward pass reads, so Predict calls — between steps at any batch
// size, between a step's forward and backward at another one — leave
// the loss and weight sequence of training bit-identical. A Predict of
// the training batch's size between forward and backward still makes
// Backward panic: the guard is kept for layers from outside this
// package, whose Forward(x, false) may overwrite what they cached.
func testPredictInterleaved[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	plain := BuildNetwork[T](LeNetSmall(1, 16, 16, 10), rng)
	mixed := plain.Clone()
	x := tensor.RandnOf[T](rng, 1, 8, 1, 16, 16)
	other := tensor.RandnOf[T](rng, 1, 3, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	optP, optM := NewSGDOf[T](0.05, 0.9, 0), NewSGDOf[T](0.05, 0.9, 0)
	for step := 0; step < 4; step++ {
		lossP := plain.TrainBatch(x, labels)
		optP.Step(plain.Params())

		mixed.Predict(other)
		logits := mixed.Forward(x, true)
		grad := tensor.NewOf[T](logits.Shape()...)
		lossM := SoftmaxCrossEntropyInto(grad, logits, labels)
		mixed.Predict(other)
		mixed.Backward(grad)
		optM.Step(mixed.Params())
		mixed.Predict(x)

		if math.Float64bits(lossP) != math.Float64bits(lossM) {
			t.Fatalf("step %d: loss %v with interleaved Predict, %v without", step, lossM, lossP)
		}
		pp, pm := plain.Params(), mixed.Params()
		for i := range pp {
			if at, ok := sameBits(pp[i].W.Data(), pm[i].W.Data()); !ok {
				t.Fatalf("step %d: %s differs at %d after interleaved Predict", step, pp[i].Name, at)
			}
		}
	}

	mixed.Forward(x, true)
	mixed.Predict(tensor.RandnOf[T](rng, 1, 8, 1, 16, 16))
	defer func() {
		if msg, _ := recover().(string); msg != "nn: Backward without a matching training Forward" {
			t.Fatalf("Backward after a same-shape Predict: recovered %q", msg)
		}
	}()
	mixed.Backward(tensor.NewOf[T](8, 10))
}

func TestPredictInterleavedBitIdentical(t *testing.T) {
	t.Run("f64", testPredictInterleaved[float64])
	t.Run("f32", testPredictInterleaved[float32])
}

// testParamsOnlyBackward pins the dead-gradient rule: NetworkOf.Backward
// stops at the first layer that has parameters and asks it for parameter
// gradients only, and that must give every parameter the gradient, bit
// for bit, that driving each layer's full Backward gives.
func testParamsOnlyBackward[T tensor.Float](t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *NetworkOf[T]
		shape []int
	}{
		{"conv-first", func(rng *rand.Rand) *NetworkOf[T] {
			return BuildNetwork[T](LeNetSmall(2, 12, 12, 5), rng)
		}, []int{6, 2, 12, 12}},
		{"dense-first", func(rng *rand.Rand) *NetworkOf[T] {
			return NewNetworkOf[T]("dense-first",
				NewDenseOf[T](rng, 30, 16), NewReLUOf[T](), NewDenseOf[T](rng, 16, 4))
		}, []int{6, 30}},
		{"parameter-free-first", func(rng *rand.Rand) *NetworkOf[T] {
			return BuildNetwork[T](MLP(30, 16, 4), rng) // Flatten, Dense, ReLU, Dense
		}, []int{6, 1, 1, 30}},
	}
	labels := []int{0, 1, 2, 3, 0, 1}
	for _, tc := range cases {
		pruned := tc.build(rand.New(rand.NewSource(41)))
		full := tc.build(rand.New(rand.NewSource(41)))
		x := tensor.RandnOf[T](rand.New(rand.NewSource(42)), 1, tc.shape...)
		pruned.TrainBatch(x, labels)

		y := x
		for _, l := range full.Layers {
			y = l.Forward(y, true)
		}
		g := tensor.NewOf[T](y.Shape()...)
		SoftmaxCrossEntropyInto(g, y, labels)
		for i := len(full.Layers) - 1; i >= 0; i-- {
			g = full.Layers[i].Backward(g)
		}

		pp, pf := pruned.Params(), full.Params()
		for i := range pp {
			if at, ok := sameBits(pp[i].Grad.Data(), pf[i].Grad.Data()); !ok {
				t.Fatalf("%s: %s grad differs at %d: %v vs %v", tc.name, pp[i].Name, at,
					pp[i].Grad.Data()[at], pf[i].Grad.Data()[at])
			}
		}
	}
}

func TestParamsOnlyBackwardBitIdentical(t *testing.T) {
	t.Run("f64", testParamsOnlyBackward[float64])
	t.Run("f32", testParamsOnlyBackward[float32])
}
