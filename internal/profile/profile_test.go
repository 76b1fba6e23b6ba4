package profile

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/nn"
	"fedsched/internal/regress"
)

func buildTestProfile(t *testing.T, p device.Profile) *DeviceProfile {
	t.Helper()
	dev := device.New(p)
	prof, err := BuildOffline(dev, Suite(1, 28, 28, 10), DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestBuildOfflineFitsWell(t *testing.T) {
	prof := buildTestProfile(t, device.Nexus6())
	if len(prof.Step1) != len(DefaultSizes) {
		t.Fatalf("%d step-1 fits, want %d", len(prof.Step1), len(DefaultSizes))
	}
	for _, f := range prof.Step1 {
		if f.R2 < 0.95 {
			t.Errorf("size %d: step-1 R² = %.3f, want ≥0.95", f.DataSize, f.R2)
		}
	}
}

func TestPredictAccuracyOnSeenArch(t *testing.T) {
	// The profiler must predict epoch times near the simulator's ground
	// truth for architectures in the suite (Fig 4b's "small gap").
	lenet := nn.LeNet(1, 28, 28, 10)
	for _, dp := range []device.Profile{device.Nexus6(), device.Mate10(), device.Pixel2()} {
		prof := buildTestProfile(t, dp)
		dev := device.New(dp)
		for _, n := range []int{1500, 2500, 5000} {
			want := dev.ColdEpochTime(lenet, n)
			got := prof.Predict(lenet, n)
			if math.Abs(got-want)/want > 0.25 {
				t.Errorf("%s n=%d: predicted %.1f s, simulated %.1f s", dp.Model, n, got, want)
			}
		}
	}
}

func TestPredictUnseenArchitecture(t *testing.T) {
	// Predict an architecture NOT in the profiling suite (step 1's whole
	// point): an intermediate LeNet scaling.
	unseen := nn.LeNetVariant(1, 28, 28, 10, 1.5)
	prof := buildTestProfile(t, device.Pixel2())
	dev := device.New(device.Pixel2())
	want := dev.ColdEpochTime(unseen, 3000)
	got := prof.Predict(unseen, 3000)
	if math.Abs(got-want)/want > 0.3 {
		t.Fatalf("unseen arch: predicted %.1f s, simulated %.1f s", got, want)
	}
}

func TestPredictMonotoneNonNegative(t *testing.T) {
	prof := buildTestProfile(t, device.Nexus6P())
	lenet := nn.LeNet(1, 28, 28, 10)
	prev := -1.0
	for n := 0; n <= 8000; n += 400 {
		v := prof.Predict(lenet, n)
		if v < 0 {
			t.Fatalf("negative prediction at n=%d: %v", n, v)
		}
		if v < prev {
			t.Fatalf("prediction not monotone at n=%d: %v < %v", n, v, prev)
		}
		prev = v
	}
	if prof.Predict(lenet, 0) != 0 || prof.Predict(lenet, -3) != 0 {
		t.Fatal("zero samples must predict zero time")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	prof := buildTestProfile(t, device.Mate10())
	blob, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back DeviceProfile
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	lenet := nn.LeNet(1, 28, 28, 10)
	if a, b := prof.Predict(lenet, 2345), back.Predict(lenet, 2345); math.Abs(a-b) > 1e-9 {
		t.Fatalf("prediction changed across serialization: %v vs %v", a, b)
	}
	if back.Device != "Mate10" {
		t.Fatalf("device name lost: %q", back.Device)
	}
}

func TestBuildOfflineRejectsTinySuite(t *testing.T) {
	dev := device.New(device.Nexus6())
	if _, err := BuildOffline(dev, Suite(1, 28, 28, 10)[:2], DefaultSizes); err == nil {
		t.Fatal("expected error with <3 architectures")
	}
}

func TestBuildTestbedSharesMeasurements(t *testing.T) {
	profs, err := BuildTestbed(device.Testbed(2), 1, 28, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 6 {
		t.Fatalf("%d profiles", len(profs))
	}
	// Testbed 2 is 2×Nexus6, 2×Nexus6P, 1×Mate10, 1×Pixel2: identical
	// models share the same profile object.
	if profs[0] != profs[1] || profs[2] != profs[3] {
		t.Fatal("identical device models should share a profile")
	}
	if profs[0] == profs[2] {
		t.Fatal("different device models must not share a profile")
	}
}

func TestBuildTestbedMemoKeyedByProfile(t *testing.T) {
	custom := device.Nexus6() // the catalog Model name on other hardware
	custom.TputSmall *= 2
	first, err := BuildTestbed([]device.Profile{device.Nexus6(), custom}, 1, 28, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	again, err := BuildTestbed([]device.Profile{device.Nexus6()}, 1, 28, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	cifar, err := BuildTestbed([]device.Profile{device.Nexus6()}, 3, 32, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != first[0] {
		t.Fatal("identical profiles must share one *DeviceProfile across calls")
	}
	if first[1] == first[0] {
		t.Fatal("a custom profile reusing a catalog Model name must get its own measurement")
	}
	lenet := nn.LeNet(1, 28, 28, 10)
	if first[1].Predict(lenet, 3000) == first[0].Predict(lenet, 3000) {
		t.Fatal("doubling TputSmall left the predicted cost unchanged")
	}
	if cifar[0] == first[0] {
		t.Fatal("two input geometries must not share a measurement")
	}
}

func TestLineKeyedByParamSplit(t *testing.T) {
	// LeNet at MNIST and at CIFAR geometry share a name, not a parameter
	// split: one profile must fit each its own line, whichever comes first.
	prof := buildTestProfile(t, device.Nexus6())
	for _, a := range []*nn.Arch{nn.LeNet(1, 28, 28, 10), nn.LeNet(3, 32, 32, 10)} {
		for _, n := range []int{1000, 6000} {
			if got, want := prof.Predict(a, n), referencePredict(prof, a, n); got != want {
				t.Fatalf("%s %dx%dx%d n=%d: predicted %v, uncached fit %v", a.Name, a.InC, a.InH, a.InW, n, got, want)
			}
		}
	}
}

func TestProfileOrderingMatchesDeviceSpeed(t *testing.T) {
	// Faster devices must profile faster: Pixel2 < Nexus6 on LeNet.
	lenet := nn.LeNet(1, 28, 28, 10)
	fast := buildTestProfile(t, device.Pixel2())
	slow := buildTestProfile(t, device.Nexus6P())
	if fast.Predict(lenet, 3000) >= slow.Predict(lenet, 3000) {
		t.Fatal("profile ordering contradicts device speeds")
	}
}

// referencePredict is DeviceProfile.Predict as it stood before Line: the
// step-2 fit and the a + b·n, clamp-at-0 evaluation inline, no cache.
func referencePredict(p *DeviceProfile, a *nn.Arch, n int) float64 {
	if n <= 0 {
		return 0
	}
	conv, dense := a.ParamCounts()
	xs := make([]float64, len(p.Step1))
	ys := make([]float64, len(p.Step1))
	for i, f := range p.Step1 {
		xs[i] = float64(f.DataSize)
		ys[i] = f.Predict(conv, dense)
	}
	line := [2]float64{regress.Mean(ys), 0}
	if m, err := regress.FitSimple(xs, ys); err == nil {
		line = [2]float64{m.Coef[0], m.Coef[1]}
		if line[1] < 0 {
			line[1] = 0
		}
	}
	t := line[0] + line[1]*float64(n)
	if t < 0 {
		return 0
	}
	return t
}

func TestLinePredictMatchesReference(t *testing.T) {
	// Every device model of every testbed × the profiling suite plus two
	// architectures outside it × the calibration grid and its edges.
	arches := append(Suite(1, 28, 28, 10), nn.LeNetVariant(1, 28, 28, 10, 1.5), nn.LeNetSmall(1, 16, 16, 10))
	sizes := append([]int{-3, 0, 1, 100, 60000}, DefaultSizes...)
	seen := map[string]bool{}
	for id := 1; id <= 3; id++ {
		for _, dp := range device.Testbed(id) {
			if seen[dp.Model] {
				continue
			}
			seen[dp.Model] = true
			prof := buildTestProfile(t, dp)
			for _, a := range arches {
				line := prof.Line(a)
				for _, n := range sizes {
					want := referencePredict(prof, a, n)
					if got := line.Predict(n); got != want {
						t.Fatalf("%s/%s n=%d: Line.Predict %v, reference %v", dp.Model, a.Name, n, got, want)
					}
					if got := prof.Predict(a, n); got != want {
						t.Fatalf("%s/%s n=%d: Predict %v, reference %v", dp.Model, a.Name, n, got, want)
					}
				}
			}
		}
	}
}

func TestPredictConcurrent(t *testing.T) {
	// 64 goroutines race the first use of every architecture's line on one
	// shared profile (the serve daemon's jobs share testbed profiles);
	// everyone must read the sequential answer. Run under `make race`.
	arches := Suite(1, 28, 28, 10)
	want := make([]float64, len(arches))
	seq := buildTestProfile(t, device.Nexus6P())
	for i, a := range arches {
		want[i] = seq.Predict(a, 3000)
	}
	shared := buildTestProfile(t, device.Nexus6P())
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + k) % len(arches)
				if got := shared.Predict(arches[i], 3000); got != want[i] {
					t.Errorf("goroutine %d: %s predicted %v, want %v", g, arches[i].Name, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
