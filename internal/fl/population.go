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
	"fedsched/internal/tensor"
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
	// Rounds is the number of rounds to simulate (0: 1).
	Rounds int
	// TotalShards per round (0: 600), of popShardSize samples each.
	TotalShards int
	// Workers, resolved like Config.Workers (0: GOMAXPROCS, < 0: 1),
	// overlaps SimulatePopulationRounds' plan and play: at ≥ 2 a
	// tensor.FanOut worker holding one lane of the process budget plays
	// a batch of rounds while the other plans the next batch; at 1 (or
	// with no lane free) the two run one after the other. Results and
	// traces are bit-identical for any value.
	Workers int
	// BatteryBudget, a fraction in [0, 1], caps each cohort member's
	// shards at what that fraction of its remaining battery affords per
	// round (capacity C_j, §VI-A); 0 leaves them uncapped.
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

// Every population client trains popShardSize-sample shards (the
// paper's granularity) in mini-batches of popBatchSize and exchanges its
// model over WiFi.
const (
	popShardSize = 100
	popBatchSize = 20
)

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Scheduler == nil {
		c.Scheduler = sched.FedLBAP{}
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.TotalShards == 0 {
		c.TotalShards = 600
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

	link network.Link // every client's uplink/downlink: WiFi
	comm float64      // per-round communication seconds over link

	// rc is the shared round core (round.go): fault strike, device burn
	// and meter, quorum cut, reduction and trace emission over its own
	// cohort-sized scratch — the play half of a round. Its reporter is
	// unset: population rounds report to the sampler at plan time (rep).
	rc  *roundCore
	rep sample.FailureReporter

	// plans[0] serves Round; SimulatePopulationRounds alternates two
	// batches of pipelineBatch plans.
	plans []*popPlan
}

// popPlan is one planned population round: everything plan decides —
// cohort, devices, assignment, fault draws — in cohort-sized buffers of
// its own, so round r+1 can be planned into one while round r plays from
// the other.
type popPlan struct {
	round     int
	cohort    []int // the sampler's pick, in sel's storage
	sel       []int
	shards    []int // the assignment, per cohort slot
	predicted float64
	faults    []fault.Fault
	devs      []device.Device
	costs     []popCost
	users     []sched.User
	uptrs     []*sched.User
	// log stages the solver's KindSolver/KindSchedule events until play
	// drains them into the run trace ahead of the round's own — where the
	// solver used to emit them directly. A log never drops, so the run
	// ring keeps and drops exactly what it did (nil when untraced).
	log *trace.Recorder
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
	switch {
	case cfg.Rounds < 0, cfg.TotalShards < 0, cfg.Quorum < 0, cfg.MinParticipants < 0:
		return nil, fmt.Errorf("fl: population: negative count (rounds %d, shards %d, quorum %d, min participants %d)",
			cfg.Rounds, cfg.TotalShards, cfg.Quorum, cfg.MinParticipants)
	case !(cfg.BatteryBudget >= 0 && cfg.BatteryBudget <= 1):
		return nil, fmt.Errorf("fl: population: battery budget %g outside [0, 1]", cfg.BatteryBudget)
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
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Population.Seed*0x5deece66d + 11)),
		link: network.WiFi(),
		rc:   newRoundCore(cfg.Arch, popBatchSize, k, cfg.Sampler, cfg.Faults, cfg.Trace),
	}
	r.rep, r.rc.rep = r.rc.rep, nil
	r.rc.quorum, r.rc.floor, r.rc.discard = cfg.Quorum, cfg.MinParticipants, true
	r.comm = r.link.RoundTripTime(r.rc.modelBytes)

	profs, err := profile.BuildTestbed(cfg.Population.Profiles, cfg.Arch.InC, cfg.Arch.InH, cfg.Arch.InW, cfg.Arch.Classes)
	if err != nil {
		return nil, fmt.Errorf("fl: population: %w", err)
	}
	r.lines = make([]profile.Line, len(profs))
	for a, dp := range profs {
		r.lines[a] = dp.Line(cfg.Arch)
	}
	r.plans = []*popPlan{r.newPlan(k)}
	return r, nil
}

// newPlan allocates one plan's cohort-sized buffers.
func (r *PopulationRunner) newPlan(k int) *popPlan {
	p := &popPlan{
		sel:    make([]int, k),
		faults: make([]fault.Fault, k),
		devs:   make([]device.Device, k),
		costs:  make([]popCost, k),
		users:  make([]sched.User, k),
		uptrs:  make([]*sched.User, k),
	}
	// Bind each slot's cost closure once; rounds only overwrite the
	// popCost fields the closure reads through the pointer.
	for i := range p.users {
		p.users[i].Cost = p.costs[i].predict
		p.uptrs[i] = &p.users[i]
	}
	if r.cfg.Trace != nil {
		p.log = trace.NewLog(2*k + 64)
	}
	return p
}

// Round simulates one population round — plan, then play, on one buffer:
// sample the cohort, materialize its devices, schedule the shards, strike
// the faults and report the outcomes to the sampler; then burn the
// cohort's compute two phones at a time and close the round in one
// streaming pass. It is the population policy over the round core
// (round.go): the cohort is drawn from the whole fleet and
// re-materialized every round, each member's work is what the scheduler
// assigned it, a model exchange is one round trip, and nothing merges —
// no model is trained. Steady-state heap growth is O(selected) per round
// — nothing here scales with Population.N.
//
// fedlint:hotpath
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func (r *PopulationRunner) Round(round int) (PopulationRound, error) {
	p := r.plans[0]
	if err := r.plan(round, p); err != nil {
		r.rc.trace.Drain(p.log)
		return PopulationRound{Round: round, Selected: len(p.cohort), Straggler: -1}, err
	}
	return r.play(p), nil
}

// plan decides round `round` into p: draw the cohort, materialize it,
// schedule the shards, strike the faults and report each scheduled
// slot's outcome to a failure-aware sampler, in slot order. A population
// slot fails exactly when it holds shards and a fault strikes it — no
// deadline, divergence or anything play computes enters the outcome — so
// reporting here feeds the sampler the calls close would make, in the
// same order, before the next round's draw: plan(r+1) depends on nothing
// play(r) does.
//
// fedlint:hotpath
// fedlint:deterministic
func (r *PopulationRunner) plan(round int, p *popPlan) error {
	cfg := r.cfg
	p.round, p.shards, p.predicted = round, nil, 0
	p.log.Reset()
	p.cohort = cfg.Sampler.Cohort(round, p.sel)
	k := len(p.cohort)
	if k == 0 {
		// Nobody available (availability sampling at a dead hour): an
		// empty round, recorded as such.
		return nil
	}

	// Materialize the cohort into the reusable slots (the population hash
	// chains and profile lookups are cheap).
	for i, id := range p.cohort {
		d := &p.devs[i]
		cfg.Population.Materialize(id, d)
		p.costs[i] = popCost{
			line:  r.lines[cfg.Population.ArchetypeOf(id)],
			speed: cfg.Population.SpeedOf(id),
		}
		u := &p.users[i]
		u.CommSeconds = r.comm
		u.MeanFreqGHz = d.MeanFreqGHz()
		u.CapacityShards = d.UserCapacity(cfg.Arch, popShardSize, cfg.BatteryBudget)
	}

	req := &sched.Request{
		TotalShards: cfg.TotalShards,
		ShardSize:   popShardSize,
		Users:       p.uptrs[:k],
		Trace:       p.log,
	}
	asg, err := cfg.Scheduler.Schedule(req, r.rng)
	if err != nil {
		return fmt.Errorf("fl: population round %d: %w", round, err)
	}
	p.shards, p.predicted = asg.Shards, asg.PredictedMakespan

	for i, id := range p.cohort {
		p.faults[i] = fault.Fault{}
		if p.shards[i] > 0 {
			p.faults[i] = cfg.Faults.Fault(round, id)
			if r.rep != nil {
				if p.faults[i].Kind != fault.None {
					r.rep.ReportFailure(id, round)
				} else {
					r.rep.ReportSuccess(id)
				}
			}
		}
	}
	return nil
}

// play runs planned round p to its close: strike every slot, burn the
// cohort's compute in device lockstep, settle every slot, close the round
// and emit it — the plan's solver events first, as if the solver had
// emitted them into the run trace itself. Faulted and late slots never
// participate and do not extend the makespan (the round closes without
// them); their wasted energy and throttles still count.
//
// fedlint:hotpath
// fedlint:deterministic
func (r *PopulationRunner) play(p *popPlan) PopulationRound {
	rc := r.rc
	k := len(p.cohort)
	pr := PopulationRound{Round: p.round, Selected: k, PredictedS: p.predicted, Straggler: -1}
	rc.trace.Drain(p.log)
	if k == 0 {
		rc.emit(p.round, 0, &roundClose{straggler: -1}, -1, -1)
		return pr
	}
	for s, id := range p.cohort {
		rc.strike(s, id, p.shards[s]*popShardSize, &p.devs[s], r.link, p.faults[s])
	}
	cl := rc.play(p.round, p.cohort)
	pr.Participants, pr.Samples = cl.survivors, cl.samples
	pr.MakespanS, pr.Straggler = cl.makespan, cl.straggler
	pr.EnergyJ, pr.Throttles = cl.energyJ, cl.throttles
	pr.Faulted, pr.Late, pr.Failed = cl.faulted, cl.late, cl.failed
	rc.emit(p.round, k, &cl, -1, -1)
	return pr
}

// SimulatePopulationRounds builds a runner and simulates cfg.Rounds
// rounds in batches of pipelineBatch: each step is a two-task FanOut
// that plays the batch planned last while it plans the next, on two
// goroutines when Workers and a free lane allow, one after the other
// otherwise (see PopulationConfig.Workers). Plans run in round order and
// plays in round order, and no plan depends on a play (see plan), so
// same-seed runs are bit-identical (history and trace) for any Workers
// value. A mid-run scheduler error returns the completed rounds as a
// partial history alongside the error: every round planned before the
// failure still plays, then the failed plan's partial solver events are
// drained after theirs.
func SimulatePopulationRounds(cfg PopulationConfig) (*PopulationHistory, error) {
	r, err := NewPopulationRunner(cfg)
	if err != nil {
		return nil, err
	}
	hist := &PopulationHistory{Rounds: make([]PopulationRound, 0, r.cfg.Rounds)}
	for len(r.plans) < 2*pipelineBatch {
		r.plans = append(r.plans, r.newPlan(len(r.plans[0].sel)))
	}
	var played []*popPlan
	var failed *popPlan
	for b, next := 0, 0; ; b = 1 - b {
		var planning []*popPlan
		if err == nil {
			planning = r.plans[b*pipelineBatch : b*pipelineBatch+min(pipelineBatch, r.cfg.Rounds-next)]
		}
		if len(played) == 0 && len(planning) == 0 {
			break
		}
		planned := 0
		tensor.FanOut(r.cfg.Workers, 2, struct{}{}, nil, func(task int, _ struct{}) {
			if task == 0 {
				for _, p := range played {
					hist.add(r.play(p))
				}
				return
			}
			for ; planned < len(planning); planned++ {
				if err = r.plan(next+planned, planning[planned]); err != nil {
					failed = planning[planned]
					return
				}
			}
		})
		played, next = planning[:planned], next+planned
	}
	if failed != nil {
		r.rc.trace.Drain(failed.log)
	}
	return hist, err
}

// pipelineBatch is how many rounds one step of SimulatePopulationRounds
// plans and plays. The two tasks meet once per batch, not twice per
// round: a round takes a few hundred microseconds, and waking a parked
// goroutine for each one ate the overlap (on a host whose second vCPU
// was contended, a per-round handoff ran 12 % slower than inline). Two
// batches of plans stay resident (a plan is ~75 KB at cohort 96);
// batches of 8 were 3 % faster for twice the memory.
const pipelineBatch = 4

// add appends one simulated round to the history.
func (h *PopulationHistory) add(pr PopulationRound) {
	h.Rounds = append(h.Rounds, pr)
	h.TotalSeconds += pr.MakespanS
	h.TotalEnergyJ += pr.EnergyJ
}
