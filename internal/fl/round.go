package fl

import (
	"fmt"
	"math/rand"
	"sort"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// This file is the one implementation of the paper's round cost model —
// a round lasts as long as its slowest surviving participant's compute +
// communication — and of everything the engines agree on around it:
//
//	strike → burn-or-train → meter → classify → quorum cut → reduce → report → idle → emit
//
// Run, RunGossip, PopulationRunner.Round and SimulateRoundsTraced are
// policies over it: each supplies who is in the cohort, what a model
// exchange costs on the link, how surviving updates merge and whether a
// snapshot is taken. RunAsync has no rounds but shares the client-side
// primitives (strike, burn, meter, train).

// engine names a training engine for set-up and config validation.
type engine uint8

const (
	syncEngine engine = iota
	asyncEngine
	gossipEngine
)

func (e engine) String() string { return [...]string{"sync", "async", "gossip"}[e] }

// check validates the config for engine e. Every combination an engine
// cannot honour is rejected by name here, never silently ignored.
func (c *Config) check(e engine) error {
	if c.Arch == nil {
		return fmt.Errorf("fl: no architecture")
	}
	if err := c.Faults.Check(); err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if c.SecureAgg && c.Quorum > 0 {
		// The quorum cut discards late masked shares by design, and the
		// pairwise-mask protocol cannot recover them (see DESIGN).
		return fmt.Errorf("fl: Quorum is incompatible with SecureAgg")
	}
	if e == syncEngine {
		return nil
	}
	// Async has no rounds to close, gossip no server to close them at;
	// neither checkpoints mid-run.
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Quorum", c.Quorum > 0},
		{"MinParticipants", c.MinParticipants > 0},
		{"DeadlineSeconds", c.DeadlineSeconds > 0},
		{"SecureAgg", c.SecureAgg},
		{"CheckpointSink", c.CheckpointSink != nil},
		{"Resume", c.Resume != nil},
		{"LRSchedule", c.LRSchedule != nil},
	} {
		if f.set {
			return fmt.Errorf("fl: the %s engine does not support Config.%s", e, f.name)
		}
	}
	return nil
}

// setup is the training engines' shared start: validate the config, keep
// the data-holding clients, check the sampler against them, build the
// global model and give every participant its trainer, seeded RNG and
// throttle-trace ring.
func setup(cfg *Config, e engine, clients []*Client) (active []*Client, global *nn.Network, err error) {
	if err := cfg.check(e); err != nil {
		return nil, nil, err
	}
	for i, c := range clients {
		c.at = i
		if c.Local != nil && c.Local.Len() > 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return nil, nil, fmt.Errorf("fl: no client holds data")
	}
	if e == gossipEngine && len(active) < 2 {
		return nil, nil, fmt.Errorf("fl: gossip needs ≥2 clients with data, have %d", len(active))
	}
	if s := cfg.Sampler; s != nil {
		if got := s.Population(); got != len(active) {
			return nil, nil, fmt.Errorf("fl: sampler over %d clients, run has %d with data", got, len(active))
		}
		if k := s.CohortSize(); k <= 0 {
			return nil, nil, fmt.Errorf("fl: sampler cohort size %d, want > 0", k)
		}
		if e == asyncEngine {
			// Async has no synchronous rounds to re-sample at, so the
			// cohort is drawn once (round 0) and cycles for the whole run.
			sel := s.Cohort(0, nil)
			if len(sel) == 0 {
				return nil, nil, fmt.Errorf("fl: async sampler drew an empty cohort")
			}
			sub := make([]*Client, len(sel))
			for i, idx := range sel {
				sub[i] = active[idx]
			}
			active = sub
		}
	}

	rootRNG := rand.New(rand.NewSource(cfg.Seed))
	global = cfg.Arch.Build(rootRNG)
	for _, c := range active {
		// Geometry clone at the configured precision; the engines
		// overwrite its weights before the first local epoch.
		c.net = nn.NewTrainer(cfg.Precision, cfg.Arch, rootRNG, cfg.LR, cfg.Momentum)
		c.rng = rand.New(rand.NewSource(cfg.Seed + int64(c.ID)*7919 + 1))
		if cfg.Trace != nil && c.Device != nil {
			// Round engines train clients concurrently, so each device
			// gets a private ring that emit drains post-join in cohort
			// order — the merged trace is bit-identical for any worker
			// count. Async device work runs on the event-loop goroutine
			// only, so its devices share the run recorder.
			c.Device.TraceID = c.ID
			c.Device.Tracer = cfg.Trace
			if e != asyncEngine {
				c.Device.Tracer = trace.New(clientRingCapacity)
			}
		}
	}
	return active, global, nil
}

// clientRingCapacity bounds each client's private throttle ring. A round
// produces a handful of governor transitions per device (engage/release
// pairs plus rare hard trips), so 1024 is generous without being wasteful
// per client.
const clientRingCapacity = 1024

// localEpoch runs one shuffled pass of minibatch SGD over local and
// returns the mean batch loss — the only place gradient descent happens.
//
// fedlint:hotpath
func localEpoch(net nn.Trainer, local *data.Dataset, rng *rand.Rand, batch int) float64 {
	local.Shuffle(rng)
	n := local.Len()
	lossSum, batches := 0.0, 0
	for i := 0; i < n; i += batch {
		x, y := local.Batch(i, min(i+batch, n))
		lossSum += net.TrainBatch(x, y)
		net.Step()
		batches++
	}
	return lossSum / float64(batches)
}

// train runs the client's local epoch, starting from the given weights
// (nil: from its own model, as gossip peers do).
//
// fedlint:hotpath
func (c *Client) train(cfg *Config, from []*tensor.Tensor) float64 {
	if from != nil {
		c.net.SetWeights(from)
	}
	c.net.ResetOpt()
	if cfg.LRSchedule != nil {
		c.net.SetLR(cfg.LRSchedule(c.round))
	}
	c.round++
	return localEpoch(c.net, c.Local, c.rng, cfg.BatchSize)
}

// burnt returns how many of a member's n assigned samples its device gets
// through: all of them, or — when a crash or battery death strikes — the
// fraction Point of them.
func burnt(n int, f fault.Fault) int {
	if f.Kind == fault.Crash || f.Kind == fault.Battery {
		n = int(f.Point * float64(n))
	}
	return n
}

// burn spends a member's compute on its device (burnt of its samples),
// after which a dead battery also empties its account.
//
// fedlint:hotpath
func burn(cr *ClientRound, dev *device.Device, arch *nn.Arch, batch int, f fault.Fault) {
	cr.ComputeS = dev.Train(arch, burnt(cr.Samples, f), batch)
	if f.Kind == fault.Battery {
		dev.DrainBattery()
	}
}

// meter reads a device's cumulative counters around a stretch of work and
// charges the difference to a ClientRound.
type meter struct {
	dev *device.Device
	e0  float64
	th0 int
}

func meterOn(dev *device.Device) meter { return meter{dev, dev.EnergyJ, dev.Throttles} }

// fedlint:hotpath
func (m meter) read(cr *ClientRound) {
	cr.EnergyJ = m.dev.EnergyJ - m.e0
	cr.Temperature = m.dev.TempC
	cr.Throttles = m.dev.Throttles - m.th0
	cr.BatteryFrac = m.dev.BatteryRemaining()
}

// roundCore holds a round engine's rules and cohort-sized scratch. Slot s
// of every slice belongs to the s-th cohort member of the current round.
type roundCore struct {
	arch       *nn.Arch
	batch      int
	modelBytes int
	faults     *fault.Plan
	trace      *trace.Recorder
	sampler    sample.Sampler         // nil: everyone, every round
	rep        sample.FailureReporter // sampler, if failure-aware

	// Round-close rules (zero = off).
	deadline float64
	quorum   int
	floor    int // MinParticipants

	// Policy: what a model exchange is. False: a server round trip
	// (download the global model, upload the update). True: a gossip
	// peer swap (upload own model, then download the peer's).
	swap bool
	// Pinned for golden compatibility: Run has always idled a device for
	// makespan − compute − comm, the other engines for makespan − span;
	// the two differ in the last bit and Idle is sensitive to it.
	idleByParts bool

	sel    []int // cohort scratch: the sampler's buffer, or the identity
	crs    []ClientRound
	spans  []float64
	devs   []*device.Device
	meters []meter
	order  []int // close: candidates for the cut, then the surviving slots
	sorter spanOrder
	lpt    shardOrder // longestFirst's scratch
}

// newRoundCore sizes the scratch for cohorts of up to n members — the
// sampler's cohort size when one is set.
func newRoundCore(arch *nn.Arch, batch, n int, s sample.Sampler, faults *fault.Plan, rec *trace.Recorder) *roundCore {
	if s != nil {
		n = s.CohortSize()
	}
	rc := &roundCore{
		arch: arch, batch: batch, modelBytes: arch.SizeBytes(),
		faults: faults, trace: rec, sampler: s,
		sel: make([]int, n), crs: make([]ClientRound, n), spans: make([]float64, n),
		devs: make([]*device.Device, n), order: make([]int, n), meters: make([]meter, n),
	}
	rc.rep, _ = s.(sample.FailureReporter)
	rc.sorter.spans, rc.sorter.crs = rc.spans, rc.crs
	rc.lpt.idx, rc.lpt.samples = make([]int, n), make([]int, n)
	for i := range rc.sel {
		rc.sel[i] = i
	}
	return rc
}

// draw returns the round's cohort as indices into the engine's member
// list: the sampler's pick, or everyone. The slice is reused next round.
//
// fedlint:hotpath
func (rc *roundCore) draw(round int) []int {
	if rc.sampler == nil {
		return rc.sel
	}
	return rc.sampler.Cohort(round, rc.sel)
}

// step plays slot s's round for one member on its device and link:
// strike the fault plan, burn the compute it gets through and settle. A
// member with no samples sits the round out (its device is reported at
// rest); one with no device costs nothing. Slots own their cells and
// fault draws are pure hashes of (round, id), so steps run concurrently.
//
// fedlint:hotpath
func (rc *roundCore) step(s, round, id, samples int, dev *device.Device, link network.Link) fault.Fault {
	var f fault.Fault
	if samples > 0 {
		f = rc.faults.Fault(round, id)
	}
	if n := rc.strike(s, id, samples, dev, f); n >= 0 {
		rc.settle(s, dev.Train(rc.arch, n, rc.batch), f, link)
	}
	return f
}

// strike opens slot s for member id holding samples, struck by fault f
// (the caller's draw; the zero Fault when samples ≤ 0). It returns how many
// samples the member's device must burn before settle — −1 when the slot
// sits the round out: no samples (its device is reported at rest) or no
// device (nothing to burn or settle).
//
// fedlint:hotpath
func (rc *roundCore) strike(s, id, samples int, dev *device.Device, f fault.Fault) int {
	cr := &rc.crs[s]
	*cr = ClientRound{ClientID: id, Samples: samples}
	rc.spans[s], rc.devs[s] = 0, dev
	if samples <= 0 {
		if dev != nil {
			cr.BatteryFrac, cr.Temperature = dev.BatteryRemaining(), dev.TempC
		}
		return -1
	}
	cr.Fault = f.Kind
	if dev == nil {
		return -1
	}
	rc.meters[s] = meterOn(dev)
	return burnt(samples, f)
}

// settle closes slot s once its device has burned computeS seconds: a
// battery death empties the account, the model exchange is charged on the
// (possibly degraded) link and the device is metered.
//
// fedlint:hotpath
func (rc *roundCore) settle(s int, computeS float64, f fault.Fault, link network.Link) {
	cr := &rc.crs[s]
	cr.ComputeS = computeS
	if f.Kind == fault.Battery {
		rc.devs[s].DrainBattery()
	}
	link = link.Degraded(f.Slow)
	switch {
	case f.Kind == fault.Crash || f.Kind == fault.Battery:
		// Died mid-shard: nothing is ever transmitted.
	case f.Kind == fault.LinkFlap && rc.swap:
		// The link dies Point of the way through the upload; the peer's
		// model is never fetched.
		cr.CommS = f.Point * link.UploadTime(rc.modelBytes)
	case f.Kind == fault.LinkFlap:
		cr.CommS = f.Point * link.RoundTripTime(rc.modelBytes)
	case !rc.swap:
		cr.CommS = link.RoundTripTime(rc.modelBytes)
	}
	rc.spans[s] = cr.ComputeS + cr.CommS
	if rc.swap && !f.Kind.Aborts() {
		// Pinned for golden compatibility: a completed peer swap has
		// always been summed leg by leg, its comm reported as span −
		// compute.
		rc.spans[s] = cr.ComputeS + link.UploadTime(rc.modelBytes) + link.DownloadTime(rc.modelBytes)
		cr.CommS = rc.spans[s] - cr.ComputeS
	}
	rc.meters[s].read(cr)
}

// stepClient is step for a member that also trains for real. A fault that
// aborts the round skips the gradient work entirely — the update would be
// discarded anyway, and leaving the trainer, RNG and round counter
// untouched means a resumed run replays only completed training — while
// step still charges the simulated cost spent before the failure.
// Corrupt clients train normally; the damage happens on the wire.
//
// fedlint:hotpath
func (rc *roundCore) stepClient(s, round int, c *Client, cfg *Config, from []*tensor.Tensor) {
	f := rc.step(s, round, c.ID, c.Local.Len(), c.Device, c.Link)
	rc.crs[s].TrainLoss = -1
	if !f.Kind.Aborts() {
		rc.crs[s].TrainLoss = c.train(cfg, from)
	}
}

// longestFirst returns the order in which a pool of `workers` takes cohort
// sel's slots (slot s trains members[sel[s]]): longest local shard first,
// ties by slot. Fed-LBAP gives heterogeneous phones deliberately unequal
// shards, and in cohort order the pool can start a long shard last and
// wait on it alone; longest-first (Graham's LPT rule) bounds that tail by
// the shortest shard. A sequential pool takes the cohort order. Slots own
// their cells and everything order-sensitive happens after the join, so
// no output depends on the order. The slice is reused next round.
//
// fedlint:hotpath
func (rc *roundCore) longestFirst(workers int, sel []int, members []*Client) []int {
	o := &rc.lpt
	o.idx = o.idx[:len(sel)]
	for s, m := range sel {
		o.idx[s], o.samples[s] = s, members[m].Local.Len()
	}
	if workers > 1 {
		sort.Sort(o)
	}
	return o.idx
}

// shardOrder sorts slot indices by (local shard size desc, slot asc) via a
// pointer receiver and pre-bound slices, like spanOrder.
type shardOrder struct {
	idx, samples []int
}

func (o *shardOrder) Len() int      { return len(o.idx) }
func (o *shardOrder) Swap(a, b int) { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }
func (o *shardOrder) Less(a, b int) bool {
	x, y := o.idx[a], o.idx[b]
	if o.samples[x] != o.samples[y] {
		return o.samples[x] > o.samples[y]
	}
	return x < y
}

// spanOrder sorts slot indices by (realized span asc, client id asc) — a
// strict total order, so the cut is deterministic — via a pointer
// receiver and pre-bound slices: no closures, no allocation.
type spanOrder struct {
	idx   []int
	spans []float64
	crs   []ClientRound
}

func (s *spanOrder) Len() int      { return len(s.idx) }
func (s *spanOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *spanOrder) Less(a, b int) bool {
	x, y := s.idx[a], s.idx[b]
	if s.spans[x] < s.spans[y] {
		return true
	}
	if s.spans[y] < s.spans[x] {
		return false
	}
	return s.crs[x].ClientID < s.crs[y].ClientID
}

// roundClose is what a closed round reduces to. The surviving slots are
// left in roundCore.order[:survivors], ascending.
type roundClose struct {
	makespan  float64 // max surviving span (at least the deadline if it cut anyone)
	straggler int     // client id defining the makespan, −1 if none
	survivors int     // members whose update counts
	samples   int     // Σ survivors' samples
	lossSum   float64 // Σ survivors' TrainLoss·Samples, in cohort order
	energyJ   float64 // Σ over the whole cohort, wasted work included
	throttles int
	faulted   int
	dropped   int
	late      int
	// failed: the round closed below the participation floor (or with no
	// survivor at all) in a run that expects attrition — a deadline, a
	// floor or a fault plan. Without one, zero survivors is the engine's
	// call (Run treats it as a run error).
	failed bool
}

// close ends the round over cohort sel, whose members occupy slots
// [0, len(sel)), in one allocation-free pass each:
//
//	classify — faulted and diverged updates are out; deadline overruns
//	           drop; idle slots (no samples) are neither;
//	cut      — with a quorum, the round closes after the first Quorum
//	           candidates by (span, client id); the rest are late;
//	reduce   — in cohort order (bit-identical float sums): only survivors
//	           extend the makespan — the server stops waiting the moment
//	           it learns an update is lost — but everyone's energy counts;
//	report   — outcomes feed a failure-aware sampler (late survivors did
//	           finish, so they count as successes). Population rounds
//	           report when they plan instead, and leave rep unset.
//
// fedlint:hotpath
func (rc *roundCore) close(round int, sel []int) roundClose {
	k := len(sel)
	n := 0
	for s := 0; s < k; s++ {
		cr := &rc.crs[s]
		if cr.Samples <= 0 || cr.Fault != fault.None || cr.Diverged {
			continue
		}
		if rc.deadline > 0 && rc.spans[s] > rc.deadline {
			cr.Dropped = true
			continue
		}
		rc.order[n] = s
		n++
	}
	if rc.quorum > 0 && n > rc.quorum {
		rc.sorter.idx = rc.order[:n]
		sort.Sort(&rc.sorter)
		for _, s := range rc.order[rc.quorum:n] {
			rc.crs[s].Late = true
		}
	}

	out := roundClose{straggler: -1}
	for s := 0; s < k; s++ {
		cr := &rc.crs[s]
		out.energyJ += cr.EnergyJ
		out.throttles += cr.Throttles
		switch {
		case cr.Fault != fault.None:
			out.faulted++
		case cr.Diverged:
		case cr.Late:
			out.late++
		case cr.Dropped:
			out.dropped++
			if rc.deadline > out.makespan {
				out.makespan = rc.deadline
			}
		case cr.Samples > 0:
			rc.order[out.survivors] = s
			out.survivors++
			out.samples += cr.Samples
			out.lossSum += float64(cr.TrainLoss * float64(cr.Samples))
			if rc.spans[s] > out.makespan {
				out.makespan = rc.spans[s]
				out.straggler = cr.ClientID
			}
		}
		if rc.rep != nil && cr.Samples > 0 {
			if cr.Fault != fault.None || cr.Diverged || cr.Dropped {
				rc.rep.ReportFailure(sel[s], round)
			} else {
				rc.rep.ReportSuccess(sel[s])
			}
		}
	}
	if out.survivors == 0 || out.survivors < rc.floor {
		out.failed = rc.deadline > 0 || rc.floor > 0 || rc.faults.Active()
	}
	return out
}

// idle parks the first k slots' devices for the rest of the round, so
// stragglers' heat and fast devices' cooling evolve realistically.
func (rc *roundCore) idle(k int, makespan float64) {
	for s := 0; s < k; s++ {
		if rc.devs[s] == nil {
			continue
		}
		rest := makespan - rc.spans[s]
		if rc.idleByParts {
			rest = makespan - rc.crs[s].ComputeS - rc.crs[s].CommS
		}
		rc.devs[s].Idle(rest)
	}
}

// emit merges one finished round over the first k slots into the run
// trace: per-device throttle rings (drained in cohort order, stamped with
// the round), one KindClientRound event per member — immediately followed
// by a KindFault event for fault victims — and the KindRoundSummary
// aggregate. k = 0 records an empty round (nobody available). Runs on
// the engine goroutine after the round's join.
//
// fedlint:hotpath
func (rc *roundCore) emit(round, k int, cl *roundClose, loss, accuracy float64) {
	root := rc.trace
	if root == nil {
		return
	}
	for s := 0; s < k; s++ {
		cr := &rc.crs[s]
		if rc.devs[s] != nil && rc.devs[s].Tracer != nil {
			root.DrainRound(rc.devs[s].Tracer, round)
		}
		flag := trace.ClientOK
		switch {
		case cr.Fault != fault.None:
			flag = trace.ClientFaulted
		case cr.Diverged:
			flag = trace.ClientDiverged
		case cr.Dropped:
			flag = trace.ClientDropped
		case cr.Late:
			flag = trace.ClientLate
		}
		root.Emit(trace.Event{
			Kind: trace.KindClientRound, Round: round, Client: cr.ClientID,
			Samples: cr.Samples, Throttles: cr.Throttles, Flag: flag,
			ComputeS: cr.ComputeS, CommS: cr.CommS, EnergyJ: cr.EnergyJ,
			Battery: cr.BatteryFrac, TempC: cr.Temperature,
			Loss: trace.Sanitize(cr.TrainLoss),
		})
		if cr.Fault != fault.None {
			// The fault event carries what the failure cost: time and
			// energy burned before the update was lost, and the victim's
			// post-fault battery level. Flag is the fault.Kind wire value.
			root.Emit(trace.Event{
				Kind: trace.KindFault, Round: round, Client: cr.ClientID,
				Samples: cr.Samples, Flag: int(cr.Fault),
				ComputeS: cr.ComputeS, CommS: cr.CommS, EnergyJ: cr.EnergyJ,
				Battery: cr.BatteryFrac,
			})
		}
	}
	root.Emit(trace.Event{
		Kind: trace.KindRoundSummary, Round: round, Client: -1,
		Samples: cl.samples, Throttles: cl.throttles, Straggler: cl.straggler,
		Flag: cl.dropped, MakespanS: cl.makespan, EnergyJ: cl.energyJ,
		Loss: trace.Sanitize(loss), Accuracy: accuracy,
	})
}
