// Package fedsched is the public API of the fedsched library: a full
// reproduction of "Optimize Scheduling of Federated Learning on
// Battery-powered Mobile Devices" (Wang, Wei, Zhou — IPDPS 2020).
//
// The library contains, from the bottom up:
//
//   - a CPU deep-learning training stack (tensors, conv/dense layers, SGD)
//     with the paper's LeNet and VGG6 architectures;
//   - deterministic synthetic datasets standing in for MNIST and CIFAR10,
//     plus every data-partitioning scheme in the paper's evaluation;
//   - a mobile-device simulator (big.LITTLE clusters, interactive-governor
//     DVFS, RC thermal model with throttling and the Nexus 6P's big-core
//     shutdown), calibrated against the paper's Table II;
//   - WiFi/LTE link models;
//   - the two-step performance profiler (Fig 4);
//   - the scheduling algorithms: Fed-LBAP (Algorithm 1), Fed-MinAvg
//     (Algorithm 2) and the Proportional/Random/Equal baselines;
//   - a synchronous FedAvg federated-learning engine over the simulated
//     testbed;
//   - experiment drivers regenerating every table and figure of the paper.
//
// Quick start: see examples/quickstart, or:
//
//	tb := fedsched.NewTestbed(2)                  // the paper's 6-device testbed
//	arch := fedsched.LeNet(1, 28, 28, 10)         // ~205K-parameter LeNet
//	req, _ := tb.Request(arch, 60000)             // per-device costs for 60K samples
//	asg, _ := fedsched.FedLBAP.Schedule(req, nil) // Fed-LBAP (Algorithm 1) schedule
//	spans, _ := tb.SimulateRounds(arch, asg, 5)   // simulated round makespans
//
// The package names only what a program built on it calls; everything
// else is spelled in its home package under internal/.
package fedsched

import (
	"fmt"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/profile"
	"fedsched/internal/sched"
)

// Re-exported core types. The aliases make the internal packages' fully
// documented types available to library users without duplicating them.
type (
	// Scheduler produces workload assignments.
	Scheduler = sched.Scheduler
	// Request is a scheduling problem.
	Request = sched.Request
	// Assignment is a computed schedule.
	Assignment = sched.Assignment
	// User is one scheduling participant.
	User = sched.User
	// RunConfig drives a federated run.
	RunConfig = fl.Config
	// AsyncConfig drives asynchronous (staleness-weighted) aggregation.
	AsyncConfig = fl.AsyncConfig
	// GossipConfig drives decentralized (serverless) training.
	GossipConfig = fl.GossipConfig
)

// Ring is the gossip topology that pairs each client with its successor.
const Ring = fl.Ring

// Federated run modes.
var (
	// RunAsync executes staleness-weighted asynchronous FL.
	RunAsync = fl.RunAsync
	// RunGossip executes decentralized pairwise-averaging FL.
	RunGossip = fl.RunGossip
)

// Architecture constructors (paper scale and reduced scale).
var (
	LeNet      = nn.LeNet
	LeNetSmall = nn.LeNetSmall
)

// Dataset generators (offline stand-ins for MNIST / CIFAR10).
var (
	SMNIST = data.SMNIST
	SCIFAR = data.SCIFAR
)

// Schedulers.
var (
	// FedLBAP is Algorithm 1 (IID data, min-makespan), solved over the
	// implicit cost matrix; it requires nondecreasing cost curves.
	FedLBAP sched.Scheduler = sched.FedLBAP{}
	// FedMinAvg is Algorithm 2 (non-IID data, min average cost).
	FedMinAvg sched.Scheduler = sched.FedMinAvg{}
	// Proportional assigns data proportional to mean CPU frequency.
	Proportional sched.Scheduler = sched.Proportional{}
	// RandomSched assigns uniformly random partitions.
	RandomSched sched.Scheduler = sched.Random{}
	// Equal assigns equal shares (the FedAvg default).
	Equal sched.Scheduler = sched.Equal{}
	// FedLBAPSparse is FedLBAP; bench/ is the last user of the name.
	FedLBAPSparse = FedLBAP
)

// ShardSize is the paper's data granularity: 100 samples per shard.
const ShardSize = 100

// Testbed is a collection of simulated phones ready for scheduling and
// federated simulation — the facade over the device, profile, network,
// sched and fl packages. It holds no profiling state: every Request prices
// its architecture with offline profiles for that architecture's input
// geometry, from profile.BuildTestbed's process-wide memo. Goroutines may
// share a Testbed as long as none modifies its fields.
type Testbed struct {
	Profiles []device.Profile
	Link     network.Link
	// BatteryBudget, when positive, caps each user's per-round workload at
	// the shards its battery affords at that fraction of remaining energy
	// per round — the paper's capacity constraint C_j "quantified by the
	// storage or battery energy" (§VI-A).
	BatteryBudget float64
}

// NewTestbed returns one of the paper's testbeds (1, 2 or 3) on WiFi.
func NewTestbed(id int) *Testbed {
	return &Testbed{Profiles: device.Testbed(id), Link: network.WiFi()}
}

// Request builds a scheduling request for totalSamples of the given
// architecture in ShardSize shards, with per-user costs from the offline
// profiles.
func (tb *Testbed) Request(arch *nn.Arch, totalSamples int) (*sched.Request, error) {
	profs, err := profile.BuildTestbed(tb.Profiles, arch.InC, arch.InH, arch.InW, arch.Classes)
	if err != nil {
		return nil, fmt.Errorf("fedsched: %w", err)
	}
	comm := tb.Link.RoundTripTime(arch.SizeBytes())
	users := make([]*sched.User, len(tb.Profiles))
	for j, p := range tb.Profiles {
		users[j] = &sched.User{
			Name:           fmt.Sprintf("%s-%d", p.Model, j),
			Cost:           profs[j].Line(arch).Predict,
			CommSeconds:    comm,
			MeanFreqGHz:    p.MeanFreqGHz(),
			CapacityShards: device.New(p).UserCapacity(arch, ShardSize, tb.BatteryBudget),
		}
	}
	return &sched.Request{
		TotalShards: totalSamples / ShardSize,
		ShardSize:   ShardSize,
		Users:       users,
	}, nil
}

// ScheduleNonIID computes the Fed-MinAvg (Algorithm 2) schedule given each
// user's class coverage and the α/β trade-off parameters.
func (tb *Testbed) ScheduleNonIID(arch *nn.Arch, totalSamples int, classSets [][]int, k int, alpha, beta float64) (*sched.Assignment, error) {
	if len(classSets) != len(tb.Profiles) {
		return nil, fmt.Errorf("fedsched: %d class sets for %d devices", len(classSets), len(tb.Profiles))
	}
	req, err := tb.Request(arch, totalSamples)
	if err != nil {
		return nil, err
	}
	for j, u := range req.Users {
		u.Classes = classSets[j]
	}
	req.K, req.Alpha, req.Beta = k, alpha, beta
	return sched.FedMinAvg{}.Schedule(req, nil)
}

// Devices builds one fresh simulated phone and link per testbed profile.
func (tb *Testbed) Devices() ([]*device.Device, []network.Link) {
	devs := make([]*device.Device, len(tb.Profiles))
	links := make([]network.Link, len(tb.Profiles))
	for i, p := range tb.Profiles {
		devs[i] = device.New(p)
		links[i] = tb.Link
	}
	return devs, links
}

// SimulateRounds runs `rounds` synchronous rounds of the assignment on
// fresh devices and returns each round's makespan in simulated seconds.
func (tb *Testbed) SimulateRounds(arch *nn.Arch, asg *sched.Assignment, rounds int) ([]float64, error) {
	devs, links := tb.Devices()
	stats, err := fl.SimulateRounds(arch, devs, links, asg.Samples(ShardSize), 20, rounds, nil)
	if err != nil {
		return nil, err
	}
	spans := make([]float64, len(stats))
	for i, rs := range stats {
		spans[i] = rs.Makespan
	}
	return spans, nil
}

// RunFederated trains a real model with FedAvg over the partitioned
// dataset on this testbed's simulated devices and returns the history
// (per-round makespans, losses, accuracy).
func (tb *Testbed) RunFederated(cfg fl.Config, train *data.Dataset, part data.Partition, test *data.Dataset) (*fl.History, error) {
	clients, err := tb.Clients(train, part)
	if err != nil {
		return nil, err
	}
	return fl.Run(cfg, clients, test)
}

// Clients builds federated clients for this testbed from a data partition
// (one per device), for use with RunAsync / RunGossip or a custom loop.
func (tb *Testbed) Clients(train *data.Dataset, part data.Partition) ([]*fl.Client, error) {
	if len(part) != len(tb.Profiles) {
		return nil, fmt.Errorf("fedsched: partition for %d users, testbed has %d devices", len(part), len(tb.Profiles))
	}
	devs, links := tb.Devices()
	return fl.BuildClients(devs, links, part.Materialize(train))
}

// Makespan evaluates an assignment's predicted makespan under a request's
// cost model.
func Makespan(req *sched.Request, asg *sched.Assignment) float64 {
	return sched.Makespan(req, asg)
}

// PartitionIID splits ds into n stratified equal partitions.
func PartitionIID(ds *data.Dataset, n int, seed int64) data.Partition {
	return data.IIDEqual(ds, n, rand.New(rand.NewSource(seed)))
}

// PartitionIIDSizes splits ds into stratified partitions of given sizes.
func PartitionIIDSizes(ds *data.Dataset, sizes []int, seed int64) data.Partition {
	return data.IIDSizes(ds, sizes, rand.New(rand.NewSource(seed)))
}

// PartitionByClasses draws sizes[u] samples restricted to classSets[u].
func PartitionByClasses(ds *data.Dataset, classSets [][]int, sizes []int, seed int64) data.Partition {
	return data.ByClassSets(ds, classSets, sizes, rand.New(rand.NewSource(seed)))
}
