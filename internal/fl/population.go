package fl

import (
	"fmt"
	"math/rand"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/profile"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

// PopulationConfig drives a population-scale simulation: a Sampler draws
// a cohort from a lazily-materialized device.Population each round, a
// Scheduler partitions the round's shards across the cohort, and the
// device simulator plays the round out. This is the paper's actual
// regime — millions of battery-powered phones of which a handful
// participate per round — which the testbed path (tens of devices, all
// participating) cannot reach.
type PopulationConfig struct {
	// Arch is the model being trained (drives compute cost and payload).
	Arch *nn.Arch
	// Population describes the client fleet by construction (O(1) memory
	// regardless of size).
	Population *device.Population
	// Sampler selects each round's cohort; its Population() must equal
	// Population.N.
	Sampler sample.Sampler
	// Scheduler partitions TotalShards across the cohort. Nil defaults to
	// sched.FedLBAP.
	Scheduler sched.Scheduler
	// Link is the uplink/downlink model shared by all clients (zero value
	// defaults to WiFi).
	Link network.Link
	// Rounds is the number of rounds to simulate (default 1).
	Rounds int
	// TotalShards per round (default 600) of ShardSize samples (default
	// 100 — the paper's granularity).
	TotalShards int
	ShardSize   int
	// BatchSize for the device compute simulation (default 20).
	BatchSize int
	// Workers bounds intra-round parallelism, with the same contract as
	// Config.Workers: results and traces are bit-identical for any value.
	Workers int
	// BatteryBudget, when positive, caps each cohort member's shards at
	// what that fraction of its remaining battery affords per round
	// (capacity C_j, §VI-A).
	BatteryBudget float64
	// Faults, when non-nil, injects deterministic client faults
	// (internal/fault) keyed by (round, client id) — O(selected), like
	// everything else here: only cohort members are ever drawn. Faulted
	// slots burn simulated time and energy but never count as
	// participants.
	Faults *fault.Plan
	// Quorum, when positive, closes the round after the first Quorum
	// surviving slots ordered by realized span (ties by client id);
	// later survivors are flagged late and dropped. Pair it with an
	// over-selecting Sampler so faults eat the margin, not the round.
	Quorum int
	// MinParticipants, when positive, marks rounds that aggregate fewer
	// surviving slots as failed (PopulationRound.Failed) — the
	// minimum-participation floor of production FL.
	MinParticipants int
	// Trace, when non-nil, receives solver probes, per-user schedule
	// events, per-client round events and round summaries — the same
	// schema as the training engines, bit-identical for any Workers.
	Trace *trace.Recorder
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Scheduler == nil {
		c.Scheduler = sched.FedLBAP{}
	}
	if c.Link.Name == "" && !(c.Link.UpMbps > 0) {
		c.Link = network.WiFi()
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.TotalShards <= 0 {
		c.TotalShards = 600
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	return c
}

// PopulationRound summarizes one simulated population round.
type PopulationRound struct {
	Round int
	// Selected is the cohort size the sampler drew; Participants how many
	// of them the scheduler gave non-zero work.
	Selected     int
	Participants int
	// Samples is the total training data simulated this round.
	Samples int
	// MakespanS is the realized round time; PredictedS the scheduler's
	// predicted makespan for its assignment.
	MakespanS  float64
	PredictedS float64
	// Straggler is the client id defining the makespan (−1 if none).
	Straggler int
	EnergyJ   float64
	Throttles int
	// Faulted and Late count cohort slots lost to injected faults and to
	// the quorum cut; Failed marks a round that closed below
	// MinParticipants (or with no survivors under a fault plan).
	Faulted int
	Late    int
	Failed  bool
}

// PopulationHistory is the result of SimulatePopulationRounds.
type PopulationHistory struct {
	Rounds       []PopulationRound
	TotalSeconds float64
	TotalEnergyJ float64
}

// popCost is one cohort slot's scheduler-facing cost curve: the
// archetype's profiled T(D) line scaled by the client's speed factor
// (device.Population applies the same factor to throughput, so predicted
// and simulated time agree to first order). The slot's sched.User binds
// its Cost to the predict method once; overwriting the struct each round
// re-targets the existing closure with zero allocation.
type popCost struct {
	line  profile.Line
	speed float64
}

func (c *popCost) predict(samples int) float64 {
	return c.line.Predict(samples) / c.speed
}

// PopulationRunner executes population rounds with O(selected) live
// state: every slice below is sized by the sampler's maximum cohort, not
// by Population.N, and per-client state exists only while the client is
// in the current cohort. Clients are therefore stateless across rounds —
// each selection re-materializes the device from the population seed
// (battery drain and thermal state do not persist between selections;
// persisting them would be O(population) by definition).
type PopulationRunner struct {
	cfg PopulationConfig

	// lines[a] is archetype a's profiled cost line for cfg.Arch, resolved
	// once so the solver's cost evaluations are two flops and a divide.
	lines []profile.Line

	rng *rand.Rand // for schedulers that draw (Random baseline)

	comm float64 // per-round communication seconds (uniform link)

	// rc is the shared round core (round.go): cohort draw, fault strike,
	// device burn and meter, quorum cut, reduction, sampler reports and
	// trace emission, over its own cohort-sized scratch.
	rc *roundCore

	// Cohort-sized scratch, reused every round.
	devs  []device.Device
	costs []popCost
	users []sched.User
	uptrs []*sched.User
	rings []*trace.Recorder // per-slot event rings (tracing only)
}

// NewPopulationRunner validates the config, resolves each archetype's cost
// line from its offline profile (profile.BuildTestbed: measured once per
// process, the expensive part) and allocates the cohort-sized scratch.
func NewPopulationRunner(cfg PopulationConfig) (*PopulationRunner, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil {
		return nil, fmt.Errorf("fl: population: no architecture")
	}
	if cfg.Population == nil {
		return nil, fmt.Errorf("fl: population: no population")
	}
	if err := cfg.Population.Check(); err != nil {
		return nil, err
	}
	if cfg.Sampler == nil {
		return nil, fmt.Errorf("fl: population: no sampler")
	}
	if got, want := cfg.Sampler.Population(), cfg.Population.N; got != want {
		return nil, fmt.Errorf("fl: population: sampler over %d clients, population has %d", got, want)
	}
	k := cfg.Sampler.CohortSize()
	if k <= 0 {
		return nil, fmt.Errorf("fl: population: sampler cohort size %d, want > 0", k)
	}

	if err := cfg.Faults.Check(); err != nil {
		return nil, fmt.Errorf("fl: population: %w", err)
	}

	r := &PopulationRunner{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Population.Seed*0x5deece66d + 11)),
		rc:    newRoundCore(cfg.Arch, cfg.BatchSize, k, cfg.Sampler, cfg.Faults, cfg.Trace),
		devs:  make([]device.Device, k),
		costs: make([]popCost, k),
		users: make([]sched.User, k),
		uptrs: make([]*sched.User, k),
	}
	r.rc.quorum, r.rc.floor = cfg.Quorum, cfg.MinParticipants
	r.comm = cfg.Link.RoundTripTime(r.rc.modelBytes)

	profs, err := profile.BuildTestbed(cfg.Population.Profiles, cfg.Arch.InC, cfg.Arch.InH, cfg.Arch.InW, cfg.Arch.Classes)
	if err != nil {
		return nil, fmt.Errorf("fl: population: %w", err)
	}
	r.lines = make([]profile.Line, len(profs))
	for a, dp := range profs {
		r.lines[a] = dp.Line(cfg.Arch)
	}

	// Bind each slot's cost closure once; rounds only overwrite the
	// popCost fields the closure reads through the pointer.
	for i := range r.users {
		r.users[i].Cost = r.costs[i].predict
		r.uptrs[i] = &r.users[i]
	}
	if cfg.Trace != nil {
		r.rings = make([]*trace.Recorder, k)
		for i := range r.rings {
			r.rings[i] = trace.New(clientRingCapacity)
		}
	}
	return r, nil
}

// Round simulates one population round: sample the cohort, materialize
// its devices, schedule the shards, fan the device simulation out over
// the worker pool, and close the round in one streaming pass post-join.
// It is the population policy over the round core (round.go): the cohort
// is drawn from the whole fleet and re-materialized every round, each
// member's work is what the scheduler assigned it, a model exchange is
// one round trip, and nothing merges — no model is trained. Steady-state
// heap growth is O(selected) per round — nothing here scales with
// Population.N — and the emitted trace is bit-identical for any Workers
// value (per-slot rings drained in slot order after the join).
//
// fedlint:hotpath
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func (r *PopulationRunner) Round(round int) (PopulationRound, error) {
	cfg, rc := r.cfg, r.rc
	pr := PopulationRound{Round: round, Straggler: -1}

	cohort := rc.draw(round)
	k := len(cohort)
	pr.Selected = k
	if k == 0 {
		// Nobody available (availability sampling at a dead hour): an
		// empty round, recorded as such.
		rc.emit(round, 0, &roundClose{straggler: -1}, -1, -1)
		return pr, nil
	}

	// Materialize the cohort into the reusable slots (sequential: the
	// population hash chains and profile lookups are cheap).
	for i, id := range cohort {
		d := &r.devs[i]
		cfg.Population.Materialize(id, d)
		r.costs[i] = popCost{
			line:  r.lines[cfg.Population.ArchetypeOf(id)],
			speed: cfg.Population.SpeedOf(id),
		}
		u := &r.users[i]
		u.CommSeconds = r.comm
		u.MeanFreqGHz = d.MeanFreqGHz()
		u.CapacityShards = 0
		if cfg.BatteryBudget > 0 {
			// CapacityShards ≤ 0 would mean "unlimited" to the scheduler;
			// a nearly-dead phone still carries one shard.
			u.CapacityShards = max(1, d.CapacityShards(cfg.Arch, cfg.ShardSize, cfg.BatteryBudget))
		}
		if r.rings != nil {
			r.rings[i].Reset()
			d.Tracer = r.rings[i]
			d.TraceID = id
		}
	}

	req := &sched.Request{
		TotalShards: cfg.TotalShards,
		ShardSize:   cfg.ShardSize,
		Users:       r.uptrs[:k],
		Trace:       cfg.Trace,
	}
	asg, err := cfg.Scheduler.Schedule(req, r.rng)
	if err != nil {
		return pr, fmt.Errorf("fl: population round %d: %w", round, err)
	}
	pr.PredictedS = asg.PredictedMakespan

	// Device simulation fans out across the worker pool; each slot owns
	// its device, ring and result cells, so workers share nothing.
	// Unscheduled slots (no shards) sit the round out.
	forEach(workerCount(cfg.Workers, k), k, func(i int) {
		rc.step(i, round, cohort[i], asg.Shards[i]*cfg.ShardSize, &r.devs[i], cfg.Link)
	})

	// Faulted and late slots never participate and do not extend the
	// makespan (the round closes without them); their wasted energy and
	// throttles still count.
	cl := rc.close(round, cohort)
	pr.Participants, pr.Samples = cl.survivors, cl.samples
	pr.MakespanS, pr.Straggler = cl.makespan, cl.straggler
	pr.EnergyJ, pr.Throttles = cl.energyJ, cl.throttles
	pr.Faulted, pr.Late, pr.Failed = cl.faulted, cl.late, cl.failed
	rc.emit(round, k, &cl, -1, -1)
	return pr, nil
}

// SimulatePopulationRounds builds a runner and simulates cfg.Rounds
// rounds. Same-seed runs are bit-identical (history and trace) for any
// Workers value. A mid-run scheduler error returns the completed rounds
// as a partial history alongside the error.
func SimulatePopulationRounds(cfg PopulationConfig) (*PopulationHistory, error) {
	r, err := NewPopulationRunner(cfg)
	if err != nil {
		return nil, err
	}
	hist := &PopulationHistory{Rounds: make([]PopulationRound, 0, r.cfg.Rounds)}
	for round := 0; round < r.cfg.Rounds; round++ {
		pr, err := r.Round(round)
		if err != nil {
			return hist, err
		}
		hist.Rounds = append(hist.Rounds, pr)
		hist.TotalSeconds += pr.MakespanS
		hist.TotalEnergyJ += pr.EnergyJ
	}
	return hist, nil
}
