package nn

import (
	"fmt"
	"math/rand"

	"fedsched/internal/tensor"
)

// Arch describes a network architecture analytically, without allocating
// weights. The device simulator and profiler consume the derived parameter
// counts, FLOPs and byte sizes; accuracy experiments call Build to
// materialize a trainable Network.
//
// The catalog includes the paper's two networks at paper scale (LeNet with
// ~205K parameters, VGG6 with ~5.45M parameters — §III-A) and reduced-scale
// variants used for the in-repo accuracy experiments, where training a
// paper-scale VGG on synthetic data would waste cycles without changing
// the scheduling conclusions.
type Arch struct {
	Name          string
	InC, InH, InW int
	Classes       int
	stages        []stage
}

type stage struct {
	kind   string // "conv", "pool", "relu", "dense", "flatten"
	outC   int    // conv filters or dense width
	k      int    // conv kernel / pool size
	stride int
	pad    int
}

// LeNet returns the paper-scale LeNet variant (~205K parameters on 28×28
// grayscale input, matching the paper's reported 205K).
func LeNet(inC, inH, inW, classes int) *Arch {
	a := &Arch{Name: "LeNet", InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(20, 5, 1, 0).relu().pool(2, 2)
	a.conv(40, 5, 1, 0).relu().pool(2, 2)
	a.flatten().dense(283).relu().dense(classes)
	return a
}

// VGG6 returns the paper-scale VGG6: five stacked 3×3 convolution layers
// with one densely-connected hidden layer (the paper tailors VGG16 this
// way, §VII). On 28×28 input it has ~5.44M parameters — the paper reports
// 5.45M — which puts the serialized payload at ≈65 MB, matching Table II's
// 65.4 MB, and a per-sample training cost ≈20× LeNet's, matching the
// observed Table II epoch-time ratios (≈16-20×).
func VGG6(inC, inH, inW, classes int) *Arch {
	a := &Arch{Name: "VGG6", InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(32, 3, 1, 1).relu()
	a.conv(48, 3, 1, 1).relu().pool(2, 2)
	a.conv(64, 3, 1, 1).relu()
	a.conv(80, 3, 1, 1).relu().pool(2, 2)
	a.conv(96, 3, 1, 1).relu()
	a.flatten().dense(1120).relu().dense(classes)
	return a
}

// LeNetSmall is the reduced-scale LeNet used by in-repo accuracy
// experiments on the 16×16 synthetic datasets.
func LeNetSmall(inC, inH, inW, classes int) *Arch {
	a := &Arch{Name: "LeNet-S", InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(6, 5, 1, 2).relu().pool(2, 2)
	a.conv(12, 5, 1, 0).relu().pool(2, 2)
	a.flatten().dense(48).relu().dense(classes)
	return a
}

// VGG6Small is the reduced-scale VGG6 variant for accuracy experiments.
func VGG6Small(inC, inH, inW, classes int) *Arch {
	a := &Arch{Name: "VGG6-S", InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(8, 3, 1, 1).relu()
	a.conv(16, 3, 1, 1).relu().pool(2, 2)
	a.conv(24, 3, 1, 1).relu()
	a.conv(32, 3, 1, 1).relu().pool(2, 2)
	a.conv(32, 3, 1, 1).relu()
	a.flatten().dense(classes)
	return a
}

// LeNetVariant scales the LeNet filter/width counts by scale (≥0.25); the
// profiler measures several variants to regress time against parameters.
func LeNetVariant(inC, inH, inW, classes int, scale float64) *Arch {
	f := func(base int) int {
		v := int(float64(float64(base)*scale) + 0.5)
		if v < 2 {
			v = 2
		}
		return v
	}
	a := &Arch{Name: fmt.Sprintf("LeNet-x%.2g", scale), InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(f(20), 5, 1, 0).relu().pool(2, 2)
	a.conv(f(40), 5, 1, 0).relu().pool(2, 2)
	a.flatten().dense(f(283)).relu().dense(classes)
	return a
}

// VGG6Variant scales the VGG6 channel/width counts by scale.
func VGG6Variant(inC, inH, inW, classes int, scale float64) *Arch {
	f := func(base int) int {
		v := int(float64(float64(base)*scale) + 0.5)
		if v < 2 {
			v = 2
		}
		return v
	}
	a := &Arch{Name: fmt.Sprintf("VGG6-x%.2g", scale), InC: inC, InH: inH, InW: inW, Classes: classes}
	a.conv(f(32), 3, 1, 1).relu()
	a.conv(f(48), 3, 1, 1).relu().pool(2, 2)
	a.conv(f(64), 3, 1, 1).relu()
	a.conv(f(80), 3, 1, 1).relu().pool(2, 2)
	a.conv(f(96), 3, 1, 1).relu()
	a.flatten().dense(f(1120)).relu().dense(classes)
	return a
}

// MLP returns a simple multi-layer perceptron architecture, used by tests
// and as an extra profiling point.
func MLP(in, hidden, classes int) *Arch {
	a := &Arch{Name: fmt.Sprintf("MLP-%d", hidden), InC: 1, InH: 1, InW: in, Classes: classes}
	a.flatten().dense(hidden).relu().dense(classes)
	return a
}

func (a *Arch) conv(filters, k, stride, pad int) *Arch {
	a.stages = append(a.stages, stage{kind: "conv", outC: filters, k: k, stride: stride, pad: pad})
	return a
}
func (a *Arch) pool(k, stride int) *Arch {
	a.stages = append(a.stages, stage{kind: "pool", k: k, stride: stride})
	return a
}
func (a *Arch) relu() *Arch {
	a.stages = append(a.stages, stage{kind: "relu"})
	return a
}
func (a *Arch) flatten() *Arch {
	a.stages = append(a.stages, stage{kind: "flatten"})
	return a
}
func (a *Arch) dense(out int) *Arch {
	a.stages = append(a.stages, stage{kind: "dense", outC: out})
	return a
}

// walk traverses stages tracking the activation geometry, invoking fn with
// each stage and the input geometry it sees. flatLen is valid once flat.
func (a *Arch) walk(fn func(s stage, c, h, w, flatLen int)) {
	c, h, w := a.InC, a.InH, a.InW
	flat := 0
	for _, s := range a.stages {
		fn(s, c, h, w, flat)
		switch s.kind {
		case "conv":
			h = tensor.ConvOutSize(h, s.k, s.stride, s.pad)
			w = tensor.ConvOutSize(w, s.k, s.stride, s.pad)
			c = s.outC
		case "pool":
			h = (h-s.k)/s.stride + 1
			w = (w-s.k)/s.stride + 1
		case "flatten":
			flat = c * h * w
		case "dense":
			flat = s.outC
		}
	}
}

// ParamCounts returns the conv / dense parameter split, computed
// analytically (weights plus biases).
func (a *Arch) ParamCounts() (conv, dense int) {
	a.walk(func(s stage, c, h, w, flat int) {
		switch s.kind {
		case "conv":
			conv += s.outC*c*s.k*s.k + s.outC
		case "dense":
			dense += flat*s.outC + s.outC
		}
	})
	return conv, dense
}

// ParamCount returns the total scalar parameter count.
func (a *Arch) ParamCount() int {
	c, d := a.ParamCounts()
	return c + d
}

// FlopsPerSample returns the analytic forward-pass FLOPs for one sample.
func (a *Arch) FlopsPerSample() float64 {
	total := 0.0
	a.walk(func(s stage, c, h, w, flat int) {
		switch s.kind {
		case "conv":
			oh := tensor.ConvOutSize(h, s.k, s.stride, s.pad)
			ow := tensor.ConvOutSize(w, s.k, s.stride, s.pad)
			total += float64(2 * float64(s.outC) * float64(oh) * float64(ow) * float64(c) * float64(s.k) * float64(s.k))
		case "dense":
			total += float64(2 * float64(flat) * float64(s.outC))
		}
	})
	return total
}

// TrainFlopsPerSample estimates the training cost per sample: forward plus
// the two backward matrix passes, conventionally ≈3× forward.
func (a *Arch) TrainFlopsPerSample() float64 { return 3 * a.FlopsPerSample() }

// SizeBytes returns the serialized model size (communication payload).
func (a *Arch) SizeBytes() int { return a.ParamCount() * BytesPerParam }

// Build materializes the architecture into a trainable float64 Network
// with weights initialized from rng. rng is the only entropy source in the
// whole model lifecycle — He init here (NewDense/NewConv2D) and dropout
// masks later all draw from generators seeded from fl.Config.Seed, so
// initialization is reproducible bit-for-bit from the seed. The fedlint
// nondet pass rejects any call to the global math/rand functions in this
// package, keeping it that way.
func (a *Arch) Build(rng *rand.Rand) *Network {
	return BuildNetwork[float64](a, rng)
}

// BuildNetwork materializes the architecture at the chosen element type.
// The rng draw sequence is independent of T, so float32 and float64
// networks built from the same seed start from the same (rounded) weights.
func BuildNetwork[T tensor.Float](a *Arch, rng *rand.Rand) *NetworkOf[T] {
	var layers []LayerOf[T]
	a.walk(func(s stage, c, h, w, flat int) {
		switch s.kind {
		case "conv":
			layers = append(layers, NewConv2DOf[T](rng, c, s.outC, s.k, s.stride, s.pad))
		case "pool":
			layers = append(layers, NewMaxPool2DOf[T](s.k, s.stride))
		case "relu":
			layers = append(layers, NewReLUOf[T]())
		case "flatten":
			layers = append(layers, NewFlattenOf[T]())
		case "dense":
			layers = append(layers, NewDenseOf[T](rng, flat, s.outC))
		}
	})
	net := NewNetworkOf(a.Name, layers...)
	net.arch = a
	return net
}
