package experiments

import (
	"fmt"
	"math/rand"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

// benchDataset couples a dataset stand-in with its paper counterpart.
type benchDataset struct {
	PaperName string // MNIST / CIFAR10
	// Geometry of the paper-scale dataset (for time simulation).
	C, H, W int
	// TotalSamples is the paper's training-set size.
	TotalSamples int
	// Gen generates the reduced-scale stand-in for accuracy runs.
	Gen func(n int, seed int64) *data.Dataset
	Cfg func(n int, seed int64) data.GenConfig
	// Rounds is the paper's global epoch count for this dataset.
	Rounds int
}

func mnistBench() benchDataset {
	return benchDataset{
		PaperName: "MNIST", C: 1, H: 28, W: 28, TotalSamples: 60000,
		Gen:    data.SMNIST,
		Cfg:    func(n int, seed int64) data.GenConfig { return data.SMNISTConfig(n, seed) },
		Rounds: 20,
	}
}

func cifarBench() benchDataset {
	return benchDataset{
		PaperName: "CIFAR10", C: 3, H: 32, W: 32, TotalSamples: 50000,
		Gen:    data.SCIFAR,
		Cfg:    func(n int, seed int64) data.GenConfig { return data.SCIFARConfig(n, seed) },
		Rounds: 50,
	}
}

// paperArch returns the paper-scale architecture for time simulation.
func paperArch(model string, ds benchDataset) *nn.Arch {
	switch model {
	case "LeNet":
		return nn.LeNet(ds.C, ds.H, ds.W, 10)
	case "VGG6":
		return nn.VGG6(ds.C, ds.H, ds.W, 10)
	}
	panic(fmt.Sprintf("experiments: unknown model %q", model))
}

// smallArch returns the reduced-scale architecture for accuracy runs on
// the 16×16 synthetic stand-ins.
func smallArch(model string, channels int) *nn.Arch {
	switch model {
	case "LeNet":
		return nn.LeNetSmall(channels, 16, 16, 10)
	case "VGG6":
		return nn.VGG6Small(channels, 16, 16, 10)
	}
	panic(fmt.Sprintf("experiments: unknown model %q", model))
}

// schedulers returns the benchmark set in paper column order.
func schedulers() []sched.Scheduler {
	return []sched.Scheduler{sched.Proportional{}, sched.Random{}, sched.Equal{}, sched.FedLBAP{}}
}

// meanRoundTime schedules with s, simulates `rounds` synchronous rounds of
// the assignment on fresh devices of tb, and returns the mean makespan.
func meanRoundTime(tb *fedsched.Testbed, arch *nn.Arch, s sched.Scheduler, req *sched.Request, rounds int, rng *rand.Rand, rec *trace.Recorder) (float64, error) {
	asg, err := s.Schedule(req, rng)
	if err != nil {
		return 0, err
	}
	devs, links := tb.Devices()
	spans, err := fl.SimulateRoundsTraced(arch, devs, links, asg.Samples(req.ShardSize), 20, rounds, rec)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range spans {
		sum += v
	}
	return sum / float64(len(spans)), nil
}

// nilDevices returns n nil devices (accuracy-only runs skip time
// simulation).
func nilDevices(n int) []*device.Device { return make([]*device.Device, n) }

// wifiLinks returns n WiFi links.
func wifiLinks(n int) []network.Link {
	out := make([]network.Link, n)
	for i := range out {
		out[i] = network.WiFi()
	}
	return out
}

// scaleSizes proportionally rescales per-user sample counts so they sum to
// newTotal (used to map paper-scale schedules onto reduced accuracy runs).
func scaleSizes(sizes []int, newTotal int) []int {
	oldTotal := 0
	for _, s := range sizes {
		oldTotal += s
	}
	out := make([]int, len(sizes))
	if oldTotal == 0 {
		return out
	}
	assigned := 0
	for i, s := range sizes {
		out[i] = s * newTotal / oldTotal
		assigned += out[i]
	}
	// Distribute rounding remainder to the largest users.
	for assigned < newTotal {
		best := 0
		for i, s := range sizes {
			if s > sizes[best] {
				best = i
			}
			_ = s
		}
		out[best]++
		assigned++
	}
	return out
}
