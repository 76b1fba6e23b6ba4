// Package serve is the multi-job serving layer: a long-running daemon
// that multiplexes many concurrent federated-learning jobs over the
// engines in internal/fl. Each job is an independent deterministic run —
// its own clients, model, RNG streams and trace — described by a JSON
// JobConfig and driven to completion on its own goroutine. The Server
// (server.go) adds admission control over the shared tensor-lane budget,
// per-round checkpoint/trace persistence, and bit-identical resume of
// in-flight synchronous jobs across daemon restarts.
package serve

import (
	"fmt"
	"math/rand"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/trace"
)

// JobConfig describes one federated run, as submitted over the job API.
// The zero value of every field means "use the default"; unknown fields
// are rejected at the HTTP layer. Two identical configs always produce
// bit-identical histories and traces — the config carries every seed.
type JobConfig struct {
	// Name is a free-form label echoed back in statuses.
	Name string `json:"name,omitempty"`
	// Engine selects the aggregation mode: sync (default, resumable
	// across daemon restarts), async or gossip (run to completion; a
	// restart re-runs them from scratch, deterministically).
	Engine string `json:"engine,omitempty"`
	// Testbed picks the paper testbed (1, 2 or 3) whose simulated
	// devices the clients run on; 0 (the default) builds Clients
	// synthetic participants with no device simulation — fast, for
	// functional jobs where only model quality matters.
	Testbed int `json:"testbed,omitempty"`
	// Clients is the participant count for testbed 0 (default 4).
	Clients int `json:"clients,omitempty"`
	// Dataset: smnist (default) or scifar.
	Dataset string `json:"dataset,omitempty"`
	// Scheduler sizes the data partition on a device testbed:
	// fedlbap (default), prop, random or equal. Testbed 0 jobs always
	// partition equally and must leave it empty.
	Scheduler string `json:"scheduler,omitempty"`

	Rounds      int     `json:"rounds,omitempty"`       // default 3
	Samples     int     `json:"samples,omitempty"`      // training samples, default 600
	TestSamples int     `json:"test_samples,omitempty"` // default 200
	BatchSize   int     `json:"batch_size,omitempty"`   // default 20
	LR          float64 `json:"lr,omitempty"`           // default 0.02
	Momentum    float64 `json:"momentum,omitempty"`     // default 0.9
	Seed        int64   `json:"seed,omitempty"`
	Precision   string  `json:"precision,omitempty"` // f64 (default) | f32
	// Workers bounds intra-job training parallelism (fl.Config.Workers);
	// it is also the job's lane budget for admission (server.go).
	Workers int `json:"workers,omitempty"`

	// CohortSize, when positive, samples that many clients uniformly
	// per round (seeded from Seed).
	CohortSize int `json:"cohort_size,omitempty"`
	// Faults is a fault-scenario spec, e.g. "crash=0.1,flap=0.05"
	// (internal/fault); FaultSeed 0 derives the plan seed from Seed.
	Faults          string  `json:"faults,omitempty"`
	FaultSeed       int64   `json:"fault_seed,omitempty"`
	Quorum          int     `json:"quorum,omitempty"`
	MinParticipants int     `json:"min_participants,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`

	// MaxUpdates bounds an async job's server merges (default 50).
	MaxUpdates int `json:"max_updates,omitempty"`
	// Topology selects the gossip pattern: ring (default) or random.
	Topology string `json:"topology,omitempty"`
}

// withDefaults fills zero fields with their documented defaults.
func (c JobConfig) withDefaults() JobConfig {
	if c.Engine == "" {
		c.Engine = "sync"
	}
	if c.Dataset == "" {
		c.Dataset = "smnist"
	}
	if c.Testbed == 0 && c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Testbed > 0 && c.Scheduler == "" {
		c.Scheduler = "fedlbap"
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Samples <= 0 {
		c.Samples = 600
	}
	if c.TestSamples <= 0 {
		c.TestSamples = 200
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.LR <= 0 {
		c.LR = 0.02
	}
	if c.Momentum == 0 { //fedlint:allow floateq — JSON zero value means "field unset"; momentum 0 is expressed as a negative
		c.Momentum = 0.9
	}
	if c.Momentum < 0 {
		c.Momentum = 0
	}
	if c.Engine == "async" && c.MaxUpdates <= 0 {
		c.MaxUpdates = 50
	}
	if c.Engine == "gossip" && c.Topology == "" {
		c.Topology = "ring"
	}
	return c
}

// Validate checks a defaulted config; the HTTP layer maps the error to a
// 400. It is deliberately strict — a daemon accepts jobs from afar, so
// anything out of range is rejected at admission, not discovered rounds
// into a run.
func (c JobConfig) Validate() error {
	switch c.Engine {
	case "sync", "async", "gossip":
	default:
		return fmt.Errorf("engine %q (want sync, async or gossip)", c.Engine)
	}
	if c.Testbed < 0 || c.Testbed > 3 {
		return fmt.Errorf("testbed %d (want 0 for synthetic clients, or paper testbed 1-3)", c.Testbed)
	}
	if c.Testbed == 0 {
		if c.Clients < 1 || c.Clients > 1024 {
			return fmt.Errorf("clients %d (want 1-1024)", c.Clients)
		}
		if c.Engine == "gossip" && c.Clients < 2 {
			return fmt.Errorf("gossip needs >= 2 clients, have %d", c.Clients)
		}
		if c.Scheduler != "" {
			return fmt.Errorf("scheduler %q needs a device testbed (testbed 1-3)", c.Scheduler)
		}
	} else {
		switch c.Scheduler {
		case "fedlbap", "prop", "random", "equal":
		default:
			return fmt.Errorf("scheduler %q (want fedlbap, prop, random or equal)", c.Scheduler)
		}
	}
	switch c.Dataset {
	case "smnist", "scifar":
	default:
		return fmt.Errorf("dataset %q (want smnist or scifar)", c.Dataset)
	}
	if c.Rounds > 100000 {
		return fmt.Errorf("rounds %d (max 100000)", c.Rounds)
	}
	if c.Samples < 20 || c.Samples > 1000000 {
		return fmt.Errorf("samples %d (want 20-1000000)", c.Samples)
	}
	if c.TestSamples > 1000000 {
		return fmt.Errorf("test_samples %d (max 1000000)", c.TestSamples)
	}
	if c.CohortSize < 0 {
		return fmt.Errorf("cohort_size %d is negative", c.CohortSize)
	}
	if c.Quorum < 0 || c.MinParticipants < 0 || c.DeadlineSeconds < 0 {
		return fmt.Errorf("quorum, min_participants and deadline_seconds must be >= 0")
	}
	if _, err := nn.ParsePrecision(c.Precision); err != nil {
		return err
	}
	if _, err := fault.ParseSpec(c.Faults, 1); err != nil {
		return err
	}
	if c.Engine != "gossip" && c.Topology != "" {
		return fmt.Errorf("topology %q only applies to gossip jobs", c.Topology)
	}
	if c.Engine == "gossip" {
		switch c.Topology {
		case "ring", "random":
		default:
			return fmt.Errorf("topology %q (want ring or random)", c.Topology)
		}
	}
	if c.Engine != "async" && c.MaxUpdates != 0 {
		return fmt.Errorf("max_updates only applies to async jobs")
	}
	if c.Engine != "sync" && (c.Quorum > 0 || c.MinParticipants > 0 || c.DeadlineSeconds > 0) {
		return fmt.Errorf("quorum, min_participants and deadline_seconds only apply to sync jobs (%s has no server-closed rounds)", c.Engine)
	}
	return nil
}

// built is a job materialized and ready to run: deterministic given the
// config, so rebuilding after a daemon restart recreates the exact run a
// checkpoint can resume into.
type built struct {
	clients []*fl.Client
	test    *data.Dataset
	run     fl.Config
	// maxUpdates / topology carry the engine-specific knobs; the engine
	// string in the config picks which run* helper consumes them.
	maxUpdates int
	topology   fl.Topology
}

// build materializes a validated config: datasets, schedule-sized
// partition, clients and the engine config. Scheduling emits its
// KindSchedule/KindSolver events into rec — on a resume the caller
// resets rec afterwards, because the original run's first flush already
// persisted them.
func build(cfg JobConfig, rec *trace.Recorder) (*built, error) {
	prec, err := nn.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, err
	}

	var train, test *data.Dataset
	var arch *nn.Arch
	switch cfg.Dataset {
	case "smnist":
		train = data.SMNIST(cfg.Samples, cfg.Seed)
		test = data.SMNIST(cfg.TestSamples, cfg.Seed)
		arch = nn.LeNetSmall(1, 16, 16, 10)
	case "scifar":
		train = data.SCIFAR(cfg.Samples, cfg.Seed)
		test = data.SCIFAR(cfg.TestSamples, cfg.Seed)
		arch = nn.LeNetSmall(3, 16, 16, 10)
	default:
		return nil, fmt.Errorf("dataset %q", cfg.Dataset)
	}

	var clients []*fl.Client
	if cfg.Testbed == 0 {
		// Synthetic participants: equal partition, no device simulation.
		rng := rand.New(rand.NewSource(cfg.Seed))
		part := data.IIDEqual(train, cfg.Clients, rng)
		devs := make([]*device.Device, cfg.Clients)
		links := make([]network.Link, cfg.Clients)
		for i := range links {
			links[i] = network.WiFi()
		}
		clients, err = fl.BuildClients(devs, links, part.Materialize(train))
		if err != nil {
			return nil, err
		}
	} else {
		clients, err = buildTestbedClients(cfg, train, rec)
		if err != nil {
			return nil, err
		}
	}

	plan, err := fault.ParseSpec(cfg.Faults, fault.PlanSeed(cfg.FaultSeed, cfg.Seed))
	if err != nil {
		return nil, err
	}

	b := &built{
		clients: clients,
		test:    test,
		run: fl.Config{
			Arch: arch, Rounds: cfg.Rounds, BatchSize: cfg.BatchSize,
			LR: cfg.LR, Momentum: cfg.Momentum, Seed: cfg.Seed,
			Precision: prec, Workers: cfg.Workers, EvalEvery: 1,
			DeadlineSeconds: cfg.DeadlineSeconds, Quorum: cfg.Quorum,
			MinParticipants: cfg.MinParticipants, Faults: plan, Trace: rec,
		},
		maxUpdates: cfg.MaxUpdates,
	}
	if cfg.Topology == "random" {
		b.topology = fl.RandomPairs
	}

	if cfg.CohortSize > 0 {
		active := 0
		for _, c := range clients {
			if c.Local != nil && c.Local.Len() > 0 {
				active++
			}
		}
		if cfg.CohortSize > active {
			return nil, fmt.Errorf("cohort_size %d exceeds the %d data-holding clients", cfg.CohortSize, active)
		}
		b.run.Sampler = sample.NewUniform(active, cfg.CohortSize, cfg.Seed+31)
	}
	return b, nil
}

// buildTestbedClients follows the fedtrain recipe: schedule the
// paper-scale workload on the testbed's profiled devices, rescale the
// resulting shard counts onto the reduced training set, and build one
// simulated client per device.
func buildTestbedClients(cfg JobConfig, train *data.Dataset, rec *trace.Recorder) ([]*fl.Client, error) {
	tb := fedsched.NewTestbed(cfg.Testbed)
	paperArch := fedsched.LeNet(train.C, 28, 28, 10)
	req, err := tb.Request(paperArch, 60000)
	if err != nil {
		return nil, err
	}
	req.Trace = rec
	var s fedsched.Scheduler
	switch cfg.Scheduler {
	case "fedlbap":
		s = fedsched.FedLBAP
	case "prop":
		s = fedsched.Proportional
	case "random":
		s = fedsched.RandomSched
	case "equal":
		s = fedsched.Equal
	default:
		return nil, fmt.Errorf("scheduler %q", cfg.Scheduler)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	asg, err := s.Schedule(req, rng)
	if err != nil {
		return nil, err
	}
	part := data.IIDSizes(train, asg.Rescale(req.TotalShards, train.Len(), false), rng)
	return tb.Clients(train, part)
}
