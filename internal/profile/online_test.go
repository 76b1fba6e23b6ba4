package profile

import (
	"math"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/nn"
)

func TestOnlineFallsBackToPrior(t *testing.T) {
	prior := buildTestProfile(t, device.Pixel2())
	on := NewOnline(prior)
	lenet := nn.LeNet(1, 28, 28, 10)
	if got, want := on.Predict(lenet, 3000), prior.Predict(lenet, 3000); got != want {
		t.Fatalf("prior not used: %v vs %v", got, want)
	}
}

func TestOnlineAdaptsToWarmDevice(t *testing.T) {
	// The offline (cold-start) profile underestimates a thermally saturated
	// Nexus 6P. Feeding warm observations must fix the prediction.
	prior := buildTestProfile(t, device.Nexus6P())
	lenet := nn.LeNet(1, 28, 28, 10)
	dev := device.New(device.Nexus6P())
	dev.TrainSamples(lenet, 6000, 20) // saturate the thermals

	on := NewOnline(prior)
	for _, n := range []int{1000, 2000, 3000, 1500} {
		secs, _ := dev.TrainSamples(lenet, n, 20)
		on.Observe(lenet, n, secs)
	}
	warmTruth := dev.EpochTime(lenet, 2500)
	offlineErr := math.Abs(prior.Predict(lenet, 2500) - warmTruth)
	onlineErr := math.Abs(on.Predict(lenet, 2500) - warmTruth)
	if onlineErr >= offlineErr {
		t.Fatalf("online (err %.1f s) did not beat offline (err %.1f s) on a warm device", onlineErr, offlineErr)
	}
	if onlineErr/warmTruth > 0.15 {
		t.Fatalf("online prediction still %.0f%% off", 100*onlineErr/warmTruth)
	}
}

func TestOnlineNeedsSizeSpread(t *testing.T) {
	on := NewOnline(nil)
	lenet := nn.LeNet(1, 28, 28, 10)
	// Same size thrice: slope unidentifiable → mean-rate fallback.
	on.Observe(lenet, 1000, 10)
	on.Observe(lenet, 1000, 12)
	on.Observe(lenet, 1000, 11)
	got := on.Predict(lenet, 2000)
	if math.Abs(got-22) > 1e-9 {
		t.Fatalf("mean-rate fallback = %v, want 22", got)
	}
}

func TestOnlineNoDataNoPrior(t *testing.T) {
	on := NewOnline(nil)
	lenet := nn.LeNet(1, 28, 28, 10)
	if got := on.Predict(lenet, 1000); got != 0 {
		t.Fatalf("prediction without any information: %v", got)
	}
	if on.Predict(lenet, 0) != 0 {
		t.Fatal("zero samples must cost zero")
	}
}

func TestOnlineIgnoresBadObservations(t *testing.T) {
	on := NewOnline(nil)
	lenet := nn.LeNet(1, 28, 28, 10)
	on.Observe(lenet, -5, 10)
	on.Observe(lenet, 100, -1)
	// With no prior, a single recorded point would already extrapolate.
	if got := on.Predict(lenet, 1000); got != 0 {
		t.Fatalf("bad observations were recorded: predicts %v", got)
	}
}

func TestOnlineFitInvalidatedByNewData(t *testing.T) {
	on := NewOnline(nil)
	lenet := nn.LeNet(1, 28, 28, 10)
	on.Observe(lenet, 1000, 10)
	on.Observe(lenet, 2000, 20)
	on.Observe(lenet, 3000, 30)
	first := on.Predict(lenet, 4000)
	if math.Abs(first-40) > 1e-6 {
		t.Fatalf("fit %v, want 40", first)
	}
	// New observations shift the line; the cached fit must refresh.
	on.Observe(lenet, 4000, 80)
	on.Observe(lenet, 5000, 100)
	second := on.Predict(lenet, 4000)
	if second <= first {
		t.Fatalf("fit not refreshed: %v then %v", first, second)
	}
}

func TestOnlineDriftRatioCorrection(t *testing.T) {
	// A base profile plus same-size observations that run 3× slower than
	// predicted: Predict must scale up by the observed ratio.
	prior := buildTestProfile(t, device.Pixel2())
	lenet := nn.LeNet(1, 28, 28, 10)
	on := NewOnline(prior)
	base := prior.Predict(lenet, 2000)
	on.Observe(lenet, 2000, base*3)
	on.Observe(lenet, 2000, base*3)
	got := on.Predict(lenet, 2000)
	if math.Abs(got-3*base)/base > 0.01 {
		t.Fatalf("drift correction: got %v, want %v", got, 3*base)
	}
	// Other sizes scale proportionally.
	if got := on.Predict(lenet, 4000); got < prior.Predict(lenet, 4000)*2.5 {
		t.Fatalf("ratio not applied across sizes: %v", got)
	}
}

func TestOnlineKeyedByParamSplit(t *testing.T) {
	// LeNet at MNIST and at CIFAR geometry share a name, not a workload:
	// observations of one must not answer for the other.
	dev := device.New(device.Nexus6())
	prior, err := BuildOffline(dev, Suite(3, 32, 32, 10), DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	mnist, cifar := nn.LeNet(1, 28, 28, 10), nn.LeNet(3, 32, 32, 10)
	on := NewOnline(prior)
	for _, n := range []int{1000, 2000, 3000} {
		on.Observe(mnist, n, device.New(device.Nexus6()).EpochTime(mnist, n))
	}
	if got, want := on.Predict(cifar, 1000), NewOnline(prior).Predict(cifar, 1000); got != want {
		t.Fatalf("CIFAR LeNet predicted %v s after MNIST observations, %v s without", got, want)
	}
	if got, want := on.Predict(mnist, 2000), NewOnline(prior).Predict(mnist, 2000); got == want {
		t.Fatalf("MNIST observations ignored: %v s either way", got)
	}
}
