package main

import (
	"encoding/json"
	"time"

	"fedsched/internal/serve"
)

// size scales a run. The timed phase of every workload lasts `seconds`
// and always covers at least the minimum number of units that submits
// every distinct config twice; smoke runs only that minimum, on jobs cut
// to about a twentieth of the work.
type size struct {
	seconds float64
	smoke   bool
}

func fullSize(seconds float64) size { return size{seconds: seconds} }
func smokeSize() size               { return size{smoke: true} }

// Set-up is repeated, and its median reported: at least minSetups times,
// and up to maxSetups while all of them together stay under setupBudget —
// a half-second set-up needs more repetitions to read steadily than a
// two-second one, and can afford them.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 4 * time.Second
)

// moreSetups says whether to set up again after n set-ups since t0.
func (sz size) moreSetups(n int, t0 time.Time) bool {
	if sz.smoke {
		return n < 1
	}
	return n < minSetups || (n < maxSetups && time.Since(t0)*time.Duration(n+1)/time.Duration(n) < setupBudget)
}

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name string
	why  string
	// endToEnd measures with span recording off; traced is the separate
	// pass that records spans and replays the configs layer by layer.
	endToEnd func(h *harness, seed int64, sz size) (*e2eResult, error)
	traced   func(h *harness, seed int64, sz size, log *spanLog) (*layerResult, error)
}

var workloads = []*workload{
	serveWorkload(trainHeavy),
	serveWorkload(roundChurn),
	serveWorkload(engineMix),
	popScaleWorkload,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobSpec is one job to submit: which template it instantiates and the
// exact JSON body the daemon will receive.
type jobSpec struct {
	template string
	cfg      serve.JobConfig
}

func (s jobSpec) body() []byte {
	b, err := json.Marshal(s.cfg)
	if err != nil {
		panic(err) // JobConfig holds only strings and numbers
	}
	return b
}

// template is one shape of job. Jobs of a template differ only in seed.
type template struct {
	name string
	// weight is how many jobs of this template one cycle of the workload
	// submits; per-layer numbers aggregate over templates by it.
	weight int
	make   func(smoke bool) serve.JobConfig
}

// phase is one closed loop: each submitter posts its next batch only
// after every job of the previous one is terminal.
type phase struct {
	share      float64 // of the timed phase
	submitters int
	minBatches int // per submitter; enough to submit every config twice
	// batch returns submitter sub's n-th batch. It depends on nothing but
	// its arguments: the same seed gives byte-identical job JSON.
	batch func(seed int64, smoke bool, sub, n int) []jobSpec
}

// serveSpec describes a workload that runs through fedserve.
type serveSpec struct {
	name      string
	why       string
	templates []template
	phases    []phase
}

// jobSeed derives a job seed from the workload seed. stream separates
// templates; k indexes the small pool of seeds each template cycles
// through, so that every config recurs and its outputs can be compared.
func jobSeed(seed int64, stream, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(k) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x%(1<<31-1)) + 1
}

// seedPool is how many distinct seeds a template cycles through.
const seedPool = 2

func withSeed(t template, smoke bool, seed int64, stream, k int) jobSpec {
	cfg := t.make(smoke)
	cfg.Seed = jobSeed(seed, stream, k%seedPool)
	return jobSpec{template: t.name, cfg: cfg}
}

// ---- train_heavy ----

func trainHeavyJob(precision string) func(bool) serve.JobConfig {
	return func(smoke bool) serve.JobConfig {
		c := serve.JobConfig{Name: "train-" + precision, Testbed: 2, Samples: 1200, Rounds: 4,
			TestSamples: 200, Workers: 2, Precision: precision}
		if smoke {
			c.Samples, c.Rounds, c.TestSamples = 120, 2, 40
		}
		return c
	}
}

var trainHeavyTemplates = []template{
	{name: "sync-f64", weight: 1, make: trainHeavyJob("f64")},
	{name: "sync-f32", weight: 1, make: trainHeavyJob("f32")},
}

func trainHeavyPhase(stream int) phase {
	t := trainHeavyTemplates[stream]
	return phase{
		share: 0.5, submitters: 1, minBatches: 2 * seedPool,
		batch: func(seed int64, smoke bool, _, n int) []jobSpec {
			return []jobSpec{withSeed(t, smoke, seed, stream, n)}
		},
	}
}

var trainHeavy = serveSpec{
	name:      "train_heavy",
	why:       "Few long rounds of client training: nn, tensor and the fl worker pool do nearly all the work, so a kernel, train-step or pool change shows here and a persistence or daemon change must not.",
	templates: trainHeavyTemplates,
	phases:    []phase{trainHeavyPhase(0), trainHeavyPhase(1)},
}

// ---- round_churn ----

var roundChurnTemplates = []template{{
	name: "sync-churn", weight: 1,
	make: func(smoke bool) serve.JobConfig {
		c := serve.JobConfig{Name: "churn", Clients: 4, Samples: 20, BatchSize: 5, TestSamples: 20,
			Rounds: 400, Workers: 1}
		if smoke {
			c.Rounds = 20
		}
		return c
	},
}}

var roundChurn = serveSpec{
	name:      "round_churn",
	why:       "400 rounds of one 5-sample batch per client: per-round fixed cost (checkpoint encode and write, trace flush, eval, aggregate, pool fork/join) is as large a share as the job schema allows.",
	templates: roundChurnTemplates,
	phases: []phase{{
		// One submitter per core; the two start on different seeds of the
		// pool and swap, so every config runs on both.
		share: 1, submitters: 2, minBatches: seedPool,
		batch: func(seed int64, smoke bool, sub, n int) []jobSpec {
			return []jobSpec{withSeed(roundChurnTemplates[0], smoke, seed, 0, sub+n)}
		},
	}},
}

// ---- engine_mix ----

const mixFaults = "crash=0.15,flap=0.1,corrupt=0.05,degrade=0.3,slow=4"

func mixJob(c serve.JobConfig) func(bool) serve.JobConfig {
	return func(smoke bool) serve.JobConfig {
		c := c
		c.Samples, c.TestSamples, c.Workers = 300, 100, 1
		if smoke {
			c.Samples, c.TestSamples = 100, 40
			if c.MaxUpdates > 0 {
				c.MaxUpdates = 8
			}
		}
		return c
	}
}

var engineMixTemplates = []template{
	{name: "sync-faulty", weight: 2, make: mixJob(serve.JobConfig{Name: "faulty", Testbed: 3, CohortSize: 8, Quorum: 6,
		MinParticipants: 3, Faults: mixFaults})},
	{name: "async", weight: 2, make: mixJob(serve.JobConfig{Name: "async", Engine: "async", Testbed: 1, MaxUpdates: 24})},
	{name: "gossip", weight: 2, make: mixJob(serve.JobConfig{Name: "gossip", Engine: "gossip", Clients: 6, Rounds: 3,
		Topology: "random"})},
	{name: "sync-f32-prop", weight: 1, make: mixJob(serve.JobConfig{Name: "f32-prop", Testbed: 1, Scheduler: "prop",
		Precision: "f32"})},
	{name: "sync-scifar", weight: 1, make: mixJob(serve.JobConfig{Name: "scifar", Dataset: "scifar", Clients: 4})},
}

// mixSweep is one sweep of engine_mix: every template at its weight, each
// copy on its own seed of the pool, templates interleaved. The starting
// position comes from the seed and advances by one per sweep, so over any
// eight sweeps every job takes every queue position once: which job waits
// behind which is varied, yet every run sees the same set of orders. (A
// free shuffle per sweep made the median latency depend on the seed by
// +-20%: the order decides who queues behind the long async jobs.)
func mixSweep(seed int64, smoke bool, _, n int) []jobSpec {
	var jobs []jobSpec
	for k := 0; k < 2; k++ {
		for ti, t := range engineMixTemplates {
			if k < t.weight {
				jobs = append(jobs, withSeed(t, smoke, seed, ti, k))
			}
		}
	}
	start := (int(jobSeed(seed, 100, 0)) + n) % len(jobs)
	return append(jobs[start:len(jobs):len(jobs)], jobs[:start]...)
}

var engineMix = serveSpec{
	name:      "engine_mix",
	why:       "The only workload with a queue: sweeps of 8 short jobs across all three daemon engines compete for 2 running slots, so admission, the lane budget and the async/gossip engines set the result.",
	templates: engineMixTemplates,
	phases:    []phase{{share: 1, submitters: 1, minBatches: 2, batch: mixSweep}},
}
