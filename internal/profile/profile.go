// Package profile implements the paper's two-step performance profiler
// (§IV-B, Fig 4). Step 1 fits, for each calibration data size, a multiple
// linear regression of measured training time against the number of
// convolutional and dense parameters across a suite of architectures
// (Eq. 1). Step 2 takes the per-size predictions for a (possibly unseen)
// architecture and fits training time against data size, yielding the
// T_j(D) cost curves consumed by the schedulers.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"fedsched/internal/device"
	"fedsched/internal/nn"
	"fedsched/internal/regress"
)

// Step1Fit is the Eq.-1 regression for one calibration data size:
// time = β₀ + β₁·convParams + β₂·denseParams.
type Step1Fit struct {
	DataSize int       `json:"data_size"`
	Coef     []float64 `json:"coef"` // β₀, β₁, β₂
	R2       float64   `json:"r2"`
}

// Predict evaluates the step-1 model for an architecture's parameter split.
func (f Step1Fit) Predict(convParams, denseParams int) float64 {
	return f.Coef[0] + float64(f.Coef[1]*float64(convParams)) + float64(f.Coef[2]*float64(denseParams))
}

// DeviceProfile holds the fitted step-1 models of one device and lazily
// derives step-2 (time vs data size) lines per architecture.
type DeviceProfile struct {
	Device string     `json:"device"`
	Step1  []Step1Fit `json:"step1"`

	// lines caches the step-2 fit per (conv, dense) parameter split
	// ([2]int → Line), the only part of an architecture step 2 reads. A
	// hit is a lock-free load; racing first uses each fit the same line
	// from the same Step1, so whichever is stored is the value all return.
	lines sync.Map
}

// Line is one architecture's fitted step-2 cost curve on one device:
// predicted training seconds as an affine function of the sample count.
// It is an immutable value — callers that price many sizes of the same
// (device, architecture) pair resolve it once with DeviceProfile.Line
// and call Predict on the copy.
type Line struct {
	Intercept float64 // seconds at zero samples (may be negative)
	Slope     float64 // seconds per sample, ≥ 0
}

// Predict returns the estimated training time (seconds) for n samples.
// Predictions are clamped at ≥0 and are non-decreasing in n (Property 1).
func (l Line) Predict(n int) float64 {
	if n <= 0 {
		return 0
	}
	t := l.Intercept + float64(l.Slope*float64(n))
	if t < 0 {
		return 0
	}
	return t
}

// DefaultSizes is the calibration grid of data sizes.
var DefaultSizes = []int{500, 1000, 2000, 3000, 4000, 6000}

// Suite returns the profiling architecture suite: scaled LeNet and VGG6
// variants plus an MLP, spanning a wide range of convolutional and dense
// parameter counts so that the step-1 regression is well conditioned the
// way the paper's "k different model architectures" are (§IV-B). All take
// inC×inH×inW input.
func Suite(inC, inH, inW, classes int) []*nn.Arch {
	return []*nn.Arch{
		nn.LeNetVariant(inC, inH, inW, classes, 0.5),
		nn.LeNetVariant(inC, inH, inW, classes, 1),
		nn.LeNetVariant(inC, inH, inW, classes, 2),
		nn.VGG6Variant(inC, inH, inW, classes, 0.5),
		nn.VGG6Variant(inC, inH, inW, classes, 1),
		nn.VGG6Variant(inC, inH, inW, classes, 1.5),
		nn.MLP(inC*inH*inW, 256, classes),
	}
}

// BuildOffline measures cold-start epoch times for every (architecture,
// size) pair on the device simulator and fits the step-1 models. This is
// the offline bootstrapping phase of §IV-B.
func BuildOffline(dev *device.Device, arches []*nn.Arch, sizes []int) (*DeviceProfile, error) {
	if len(arches) < 3 {
		return nil, fmt.Errorf("profile: need ≥3 architectures for a 3-coefficient fit, got %d", len(arches))
	}
	p := &DeviceProfile{Device: dev.Model}
	for _, d := range sizes {
		x := make([][]float64, len(arches))
		y := make([]float64, len(arches))
		for i, a := range arches {
			conv, dense := a.ParamCounts()
			x[i] = []float64{float64(conv), float64(dense)}
			y[i] = dev.ColdEpochTime(a, d)
		}
		m, err := regress.Fit(x, y)
		if err != nil {
			return nil, fmt.Errorf("profile: step-1 fit for size %d: %w", d, err)
		}
		p.Step1 = append(p.Step1, Step1Fit{DataSize: d, Coef: m.Coef, R2: m.R2})
	}
	sort.Slice(p.Step1, func(i, j int) bool { return p.Step1[i].DataSize < p.Step1[j].DataSize })
	return p, nil
}

// Line returns the time-vs-data-size line of the architecture on this
// device, fitting it on first use.
func (p *DeviceProfile) Line(a *nn.Arch) Line {
	conv, dense := a.ParamCounts()
	key := [2]int{conv, dense}
	if l, ok := p.lines.Load(key); ok {
		return l.(Line)
	}
	xs := make([]float64, len(p.Step1))
	ys := make([]float64, len(p.Step1))
	for i, f := range p.Step1 {
		xs[i] = float64(f.DataSize)
		ys[i] = f.Predict(conv, dense)
	}
	var line Line
	if m, err := regress.FitSimple(xs, ys); err != nil {
		// Degenerate grids cannot happen with DefaultSizes; fall back to a
		// flat line through the mean rather than failing a scheduling run.
		line.Intercept = regress.Mean(ys)
	} else {
		line = Line{Intercept: m.Coef[0], Slope: m.Coef[1]}
		if line.Slope < 0 {
			// Property 1 requires a non-decreasing cost curve; negative
			// slopes are measurement artifacts.
			line.Slope = 0
		}
	}
	p.lines.Store(key, line)
	return line
}

// Predict returns the estimated training time (seconds) for n samples of
// the architecture on this device: p.Line(a).Predict(n).
func (p *DeviceProfile) Predict(a *nn.Arch, n int) float64 {
	return p.Line(a).Predict(n)
}

// MarshalJSON implements json.Marshaler (profiles persist between runs).
func (p *DeviceProfile) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Device string     `json:"device"`
		Step1  []Step1Fit `json:"step1"`
	}{p.Device, p.Step1})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *DeviceProfile) UnmarshalJSON(b []byte) error {
	var raw struct {
		Device string     `json:"device"`
		Step1  []Step1Fit `json:"step1"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	p.Device = raw.Device
	p.Step1 = raw.Step1
	p.lines = sync.Map{} // fitted from the previous Step1
	return nil
}

// BuildTestbed returns the offline profile of every device, measured with
// the default suite and sizes for the input geometry of the dataset the
// devices will train (e.g. 1×28×28, 10 classes for MNIST-class data).
//
// Profiling is a pure function of the device profile and the geometry,
// so it runs once per process: every caller, in one call or across calls
// and goroutines, gets the same *DeviceProfile for an identical (profile,
// geometry) pair, and two profiles that differ in any field — a custom
// profile reusing a catalog Model name included — never share one. The
// result is shared: read it (Line and Predict are safe for concurrent
// use), never modify it.
func BuildTestbed(profiles []device.Profile, inC, inH, inW, classes int) ([]*DeviceProfile, error) {
	out := make([]*DeviceProfile, len(profiles))
	for i, dp := range profiles {
		v, _ := offline.LoadOrStore(offlineKey{fmt.Sprintf("%#v", dp), inC, inH, inW, classes}, new(offlineEntry))
		e := v.(*offlineEntry)
		e.once.Do(func() {
			e.p, e.err = BuildOffline(device.New(dp), Suite(inC, inH, inW, classes), DefaultSizes)
		})
		if e.err != nil {
			return nil, fmt.Errorf("profiling %s: %w", dp.Model, e.err)
		}
		out[i] = e.p
	}
	return out, nil
}

// offline is BuildTestbed's memo (offlineKey → *offlineEntry). An entry's
// Once holds racing first users of one key until its build is done;
// different keys build in parallel.
var offline sync.Map

// offlineKey identifies one measurement: the device profile, every field
// spelled out by %#v, and the input geometry.
type offlineKey struct {
	device                 string
	inC, inH, inW, classes int
}

type offlineEntry struct {
	once sync.Once
	p    *DeviceProfile
	err  error
}
