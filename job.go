package fedsched

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

// JobConfig describes one federated run: the job API's request body
// (fedserve), the flags of fedtrain, and the on-disk job.json. The zero
// value of every field means "use the default" (WithDefaults). Two
// identical configs always produce bit-identical histories and traces —
// the config carries every seed.
type JobConfig struct {
	// Name is a free-form label echoed back in statuses.
	Name string `json:"name,omitempty"`
	// Engine selects the aggregation mode: sync (default, resumable from
	// a checkpoint), async or gossip (run to completion).
	Engine string `json:"engine,omitempty"`
	// Testbed picks the paper testbed (1, 2 or 3) whose simulated
	// devices the clients run on; 0 (the default) builds Clients
	// synthetic participants with no device simulation — fast, for
	// functional jobs where only model quality matters.
	Testbed int `json:"testbed,omitempty"`
	// Clients is the participant count for testbed 0 (default 4); a
	// device testbed has one client per device and must leave it 0.
	Clients int `json:"clients,omitempty"`
	// Dataset: smnist (default) or scifar.
	Dataset string `json:"dataset,omitempty"`
	// Scheduler sizes the data partition on a device testbed: fedlbap
	// (default), fedminavg, prop, random or equal. Testbed 0 jobs always
	// partition equally and must leave it empty.
	Scheduler string `json:"scheduler,omitempty"`
	// ClassesPerUser, when positive, makes the job non-IID: every device
	// holds that many of the 10 classes (drawn from Seed). Needs a device
	// testbed; fedminavg needs it.
	ClassesPerUser int `json:"classes_per_user,omitempty"`
	// Alpha and Beta are Fed-MinAvg's accuracy-cost weight (default
	// 1000) and unseen-class reward (default 2) on a non-IID job; like
	// Momentum, a negative value spells zero.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`

	Rounds      int     `json:"rounds,omitempty"`       // default 3
	Samples     int     `json:"samples,omitempty"`      // training samples, default 600
	TestSamples int     `json:"test_samples,omitempty"` // default 200
	BatchSize   int     `json:"batch_size,omitempty"`   // default 20
	LR          float64 `json:"lr,omitempty"`           // default 0.02
	Momentum    float64 `json:"momentum,omitempty"`     // default 0.9; negative means 0
	Seed        int64   `json:"seed,omitempty"`
	Precision   string  `json:"precision,omitempty"` // f64 (default) | f32
	// Workers bounds intra-job parallelism (fl.Config.Workers: training
	// for sync and gossip, only the final evaluation for async); it is
	// also a fedserve job's lane budget for admission.
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
	// SecureAgg aggregates through pairwise-mask secure aggregation
	// (sync only, incompatible with Quorum).
	SecureAgg bool `json:"secure_agg,omitempty"`

	// MaxUpdates bounds an async job's server merges (default 50).
	MaxUpdates int `json:"max_updates,omitempty"`
	// Topology selects the gossip pattern: ring (default) or random.
	Topology string `json:"topology,omitempty"`
}

// The names a JobConfig may use, and what they build.
var (
	jobDatasets = map[string]func(n int, seed int64) *data.Dataset{
		"smnist": data.SMNIST, "scifar": data.SCIFAR,
	}
	jobSchedulers = map[string]sched.Scheduler{
		"fedlbap": FedLBAP, "fedminavg": FedMinAvg,
		"prop": Proportional, "random": RandomSched, "equal": Equal,
	}
)

// jobClasses is the class count of both datasets.
const jobClasses = 10

// orDefault resolves a float knob whose zero is a legal setting: the
// JSON zero value means "field unset", so zero itself is spelled as any
// negative number.
func orDefault(v, def float64) float64 {
	switch {
	case v == 0: //fedlint:allow floateq — JSON zero value means "field unset"
		return def
	case v < 0:
		return 0
	}
	return v
}

// WithDefaults fills zero fields with their documented defaults; a
// negative count or rate is left for Validate to reject. It is applied
// once, to a config as submitted; the result is what Validate, BuildJob
// and job.json see.
func (c JobConfig) WithDefaults() JobConfig {
	if c.Engine == "" {
		c.Engine = "sync"
	}
	if c.Dataset == "" {
		c.Dataset = "smnist"
	}
	if c.Testbed == 0 && c.Clients == 0 {
		c.Clients = 4
	}
	if c.Testbed > 0 && c.Scheduler == "" {
		c.Scheduler = "fedlbap"
	}
	if c.ClassesPerUser > 0 {
		c.Alpha = orDefault(c.Alpha, 1000)
		c.Beta = orDefault(c.Beta, 2)
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Samples == 0 {
		c.Samples = 600
	}
	if c.TestSamples == 0 {
		c.TestSamples = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.LR == 0 { //fedlint:allow floateq — JSON zero value means "field unset"
		c.LR = 0.02
	}
	c.Momentum = orDefault(c.Momentum, 0.9)
	if c.Engine == "async" && c.MaxUpdates == 0 {
		c.MaxUpdates = 50
	}
	if c.Engine == "gossip" && c.Topology == "" {
		c.Topology = "ring"
	}
	return c
}

// participants is the job's client count: the synthetic cohort, or one
// per testbed device.
func (c JobConfig) participants() int {
	if c.Testbed == 0 {
		return c.Clients
	}
	return len(device.Testbed(c.Testbed))
}

// Validate checks a defaulted config; fedserve maps the error to a 400.
// It is deliberately strict — a daemon accepts jobs from afar, so
// anything out of range is rejected at admission, not discovered rounds
// into a run.
func (c JobConfig) Validate() error {
	// JSON cannot carry NaN or ±Inf, but fedtrain's flags can.
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"lr", c.LR}, {"momentum", c.Momentum}, {"alpha", c.Alpha}, {"beta", c.Beta}, {"deadline_seconds", c.DeadlineSeconds}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v (want a finite number)", f.name, f.v)
		}
	}
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
		if c.ClassesPerUser != 0 {
			return fmt.Errorf("classes_per_user needs a device testbed (testbed 1-3)")
		}
	} else {
		if c.Clients != 0 {
			return fmt.Errorf("clients %d needs testbed 0 (a device testbed has one client per device)", c.Clients)
		}
		if jobSchedulers[c.Scheduler] == nil {
			return fmt.Errorf("scheduler %q (want fedlbap, fedminavg, prop, random or equal)", c.Scheduler)
		}
	}
	if c.ClassesPerUser < 0 || c.ClassesPerUser > jobClasses {
		return fmt.Errorf("classes_per_user %d (want 0-%d)", c.ClassesPerUser, jobClasses)
	}
	if c.ClassesPerUser == 0 {
		if c.Scheduler == "fedminavg" {
			return fmt.Errorf("scheduler fedminavg needs classes_per_user > 0")
		}
		if c.Alpha != 0 || c.Beta != 0 { //fedlint:allow floateq — zero is "field unset"
			return fmt.Errorf("alpha and beta only apply with classes_per_user > 0")
		}
	}
	if jobDatasets[c.Dataset] == nil {
		return fmt.Errorf("dataset %q (want smnist or scifar)", c.Dataset)
	}
	if c.Rounds < 1 || c.Rounds > 100000 {
		return fmt.Errorf("rounds %d (want 1-100000)", c.Rounds)
	}
	if c.Samples < 20 || c.Samples > 1000000 {
		return fmt.Errorf("samples %d (want 20-1000000)", c.Samples)
	}
	if c.TestSamples < 1 || c.TestSamples > 1000000 {
		return fmt.Errorf("test_samples %d (want 1-1000000)", c.TestSamples)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("batch_size %d (want >= 1)", c.BatchSize)
	}
	if !(c.LR > 0) {
		return fmt.Errorf("lr %v (want > 0)", c.LR)
	}
	if c.CohortSize < 0 {
		return fmt.Errorf("cohort_size %d is negative", c.CohortSize)
	}
	if n := c.participants(); c.CohortSize > n {
		return fmt.Errorf("cohort_size %d exceeds the job's %d clients", c.CohortSize, n)
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
	if c.MaxUpdates < 0 || c.MaxUpdates > 1000000 {
		return fmt.Errorf("max_updates %d (want 1-1000000)", c.MaxUpdates)
	}
	if c.Engine != "sync" && (c.Quorum > 0 || c.MinParticipants > 0 || c.DeadlineSeconds > 0 || c.SecureAgg) {
		return fmt.Errorf("quorum, min_participants, deadline_seconds and secure_agg only apply to sync jobs (%s has no server-closed rounds)", c.Engine)
	}
	if c.SecureAgg && c.Quorum > 0 {
		return fmt.Errorf("secure_agg is incompatible with quorum (a discarded masked share is unrecoverable)")
	}
	return nil
}

// Job is a JobConfig materialized and ready to Run: deterministic given
// the config, so rebuilding it recreates the exact run a checkpoint can
// resume into. The embedded fl.Config is the engine configuration;
// callers set its Cancel, CheckpointEvery/CheckpointSink and Resume
// hooks before Run.
type Job struct {
	fl.Config
	Clients []*fl.Client
	Test    *data.Dataset
	// Assignment is the paper-scale schedule behind the partition (nil
	// on testbed 0, which partitions equally); Sizes is the partition
	// itself, in samples per client.
	Assignment *sched.Assignment
	Sizes      []int

	engine     string
	maxUpdates int
	topology   fl.Topology
}

// BuildJob materializes a defaulted config: datasets, the paper's
// profile → schedule → partition pipeline (or an equal split over
// synthetic clients), clients and the engine config. Scheduling emits
// its KindSchedule/KindSolver events into rec (which may be nil).
func BuildJob(cfg JobConfig, rec *trace.Recorder) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prec, err := nn.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, err
	}
	plan, err := fault.ParseSpec(cfg.Faults, fault.PlanSeed(cfg.FaultSeed, cfg.Seed))
	if err != nil {
		return nil, err
	}
	gen := jobDatasets[cfg.Dataset]
	train, test := gen(cfg.Samples, cfg.Seed), gen(cfg.TestSamples, cfg.Seed)

	j := &Job{
		Config: fl.Config{
			Arch:   nn.LeNetSmall(train.C, train.H, train.W, train.Classes),
			Rounds: cfg.Rounds, BatchSize: cfg.BatchSize,
			LR: cfg.LR, Momentum: cfg.Momentum, Seed: cfg.Seed,
			Precision: prec, Workers: cfg.Workers, EvalEvery: 1,
			SecureAgg: cfg.SecureAgg, DeadlineSeconds: cfg.DeadlineSeconds,
			Quorum: cfg.Quorum, MinParticipants: cfg.MinParticipants,
			Faults: plan, Trace: rec,
		},
		Test:       test,
		engine:     cfg.Engine,
		maxUpdates: cfg.MaxUpdates,
	}
	if cfg.Topology == "random" {
		j.topology = fl.RandomPairs
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var part data.Partition
	if cfg.Testbed == 0 {
		// Synthetic participants: equal partition, no device simulation.
		part = data.IIDEqual(train, cfg.Clients, rng)
		links := make([]network.Link, cfg.Clients)
		for i := range links {
			links[i] = network.WiFi()
		}
		j.Clients, err = fl.BuildClients(make([]*device.Device, cfg.Clients), links, part.Materialize(train))
	} else {
		// Paper-scale scheduling decides the partition shape; the shard
		// counts are then rescaled onto the reduced training set.
		arch := nn.LeNet(train.C, 28, 28, jobClasses)
		tb := NewTestbed(cfg.Testbed)
		var req *sched.Request
		if req, err = tb.Request(arch, 60000); err != nil {
			return nil, err
		}
		req.Trace = rec
		nonIID := cfg.ClassesPerUser > 0
		var classSets [][]int
		if nonIID {
			classSets = make([][]int, len(req.Users))
			for u, user := range req.Users {
				classSets[u] = append([]int(nil), rng.Perm(jobClasses)[:cfg.ClassesPerUser]...)
				user.Classes = classSets[u]
			}
			req.K, req.Alpha, req.Beta = jobClasses, cfg.Alpha, cfg.Beta
		}
		if j.Assignment, err = jobSchedulers[cfg.Scheduler].Schedule(req, rng); err != nil {
			return nil, err
		}
		sizes := j.Assignment.Rescale(req.TotalShards, train.Len(), nonIID)
		if nonIID {
			part = data.ByClassSets(train, classSets, sizes, rng)
		} else {
			part = data.IIDSizes(train, sizes, rng)
		}
		j.Clients, err = tb.Clients(train, part)
	}
	if err != nil {
		return nil, err
	}
	j.Sizes = part.Sizes()

	if cfg.CohortSize > 0 {
		// Validate bounds the cohort by the client count; a schedule may
		// still leave some of those clients without data.
		active := 0
		for _, c := range j.Clients {
			if c.Local != nil && c.Local.Len() > 0 {
				active++
			}
		}
		if cfg.CohortSize > active {
			return nil, fmt.Errorf("cohort_size %d exceeds the %d data-holding clients", cfg.CohortSize, active)
		}
		j.Sampler = sample.NewUniform(active, cfg.CohortSize, cfg.Seed+31)
	}
	return j, nil
}

// Outcome is what a finished (or interrupted) job reports, in one shape
// for every engine.
type Outcome struct {
	// Done counts completed units of progress: rounds, or server merges
	// for an async job.
	Done int
	// Accuracy is the final test accuracy (the mean over client models
	// for a gossip job); Seconds is the simulated duration.
	Accuracy float64
	Seconds  float64
	// Sync is the synchronous engine's full history — per-round stats,
	// final model, energy, confusion matrix; nil for async and gossip.
	Sync *fl.History
}

// Run drives the job on its engine. Like the engines, it returns what
// completed alongside a mid-run error (fl.ErrCancelled included); the
// Outcome is zero when nothing did.
func (j *Job) Run() (Outcome, error) {
	switch j.engine {
	case "async":
		h, err := fl.RunAsync(fl.AsyncConfig{Config: j.Config, MaxUpdates: j.maxUpdates}, j.Clients, j.Test)
		if h == nil {
			return Outcome{}, err
		}
		return Outcome{Done: h.Updates, Accuracy: h.FinalAccuracy, Seconds: h.VirtualSeconds}, err
	case "gossip":
		h, err := fl.RunGossip(fl.GossipConfig{Config: j.Config, Topology: j.topology}, j.Clients, j.Test)
		if h == nil {
			return Outcome{}, err
		}
		return Outcome{Done: h.Rounds, Accuracy: h.MeanAccuracy, Seconds: h.TotalSeconds}, err
	}
	h, err := fl.Run(j.Config, j.Clients, j.Test)
	if h == nil {
		return Outcome{}, err
	}
	return Outcome{Done: len(h.Rounds), Accuracy: h.FinalAccuracy, Seconds: h.TotalSeconds, Sync: h}, err
}
