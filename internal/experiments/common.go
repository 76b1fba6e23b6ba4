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
	// Cfg configures the reduced-scale stand-in for accuracy runs.
	Cfg func(n int, seed int64) data.GenConfig
}

func mnistBench() benchDataset {
	return benchDataset{
		PaperName: "MNIST", C: 1, H: 28, W: 28, TotalSamples: 60000,
		Cfg: func(n int, seed int64) data.GenConfig { return data.SMNISTConfig(n, seed) },
	}
}

func cifarBench() benchDataset {
	return benchDataset{
		PaperName: "CIFAR10", C: 3, H: 32, W: 32, TotalSamples: 50000,
		Cfg: func(n int, seed int64) data.GenConfig { return data.SCIFARConfig(n, seed) },
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

// meanRoundTime schedules with s and returns meanSpan of the assignment.
func meanRoundTime(tb *fedsched.Testbed, arch *nn.Arch, s sched.Scheduler, req *sched.Request, rounds int, rng *rand.Rand, rec *trace.Recorder) (float64, error) {
	asg, err := s.Schedule(req, rng)
	if err != nil {
		return 0, err
	}
	mean, _, err := meanSpan(tb, arch, asg.Samples(req.ShardSize), rounds, rec)
	return mean, err
}

// meanSpan simulates `rounds` synchronous rounds of the per-device sample
// counts on fresh devices of tb and returns the mean makespan and the
// devices as the rounds left them.
func meanSpan(tb *fedsched.Testbed, arch *nn.Arch, samples []int, rounds int, rec *trace.Recorder) (float64, []*device.Device, error) {
	devs, links := tb.Devices()
	spans, err := fl.SimulateRounds(arch, devs, links, samples, 20, rounds, rec)
	if err != nil {
		return 0, nil, err
	}
	sum := 0.0
	for _, v := range spans {
		sum += v
	}
	return sum / float64(len(spans)), devs, nil
}

// flConfig is the training recipe every driver shares: batch 20, LR 0.02,
// momentum 0.9, and o's precision, worker bound and trace.
func flConfig(o Options, arch *nn.Arch, rounds int, seed int64) fl.Config {
	return fl.Config{
		Arch: arch, Rounds: rounds, BatchSize: 20, LR: 0.02, Momentum: 0.9,
		Seed: seed, Precision: o.Precision, Workers: o.Workers, Trace: o.Trace,
	}
}

// clientsOn builds one WiFi client per partition slot. devs may be nil:
// accuracy-only runs skip time simulation.
func clientsOn(devs []*device.Device, train *data.Dataset, part data.Partition) ([]*fl.Client, error) {
	if devs == nil {
		devs = make([]*device.Device, len(part))
	}
	links := make([]network.Link, len(part))
	for i := range links {
		links[i] = network.WiFi()
	}
	return fl.BuildClients(devs, links, part.Materialize(train))
}

// fedAvg trains FedAvg over a partition of the training set without time
// simulation and returns the history.
func fedAvg(o Options, arch *nn.Arch, train, test *data.Dataset, part data.Partition, rounds int) (*fl.History, error) {
	clients, err := clientsOn(nil, train, part)
	if err != nil {
		return nil, err
	}
	return fl.Run(flConfig(o, arch, rounds, o.Seed+1), clients, test)
}

// covered counts the classes held by the users an assignment gives data.
func covered(asg *sched.Assignment, classSets [][]int) int {
	cover := map[int]bool{}
	for j, k := range asg.Shards {
		if k > 0 {
			for _, c := range classSets[j] {
				cover[c] = true
			}
		}
	}
	return len(cover)
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
		}
		out[best]++
		assigned++
	}
	return out
}
