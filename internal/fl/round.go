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
// a round lasts as long as its slowest surviving participant's
// T^d(M) + T^c + T^u(M) — and of everything the engines agree on around
// it:
//
//	strike → exchange legs around burn-or-train → meter → classify → quorum cut → reduce → report → wait → emit
//
// It also owns the device timeline: a device's clock advances through
// every leg of its round in protocol order (exchange), then waits until
// the round closes (close). A synchronous round is played here and
// nowhere else, through one of two entry points: train, for rounds whose
// members train for real (Run, RunGossip), and play, for train-free
// rounds burned in device lockstep (PopulationRunner, SimulateRounds).
// The engines are policies over them: each supplies who is in the
// cohort, whether a model exchange is a server round trip or a peer swap,
// how surviving updates merge and whether a snapshot is taken. RunAsync
// has no rounds; each client cycle is a one-slot stepClient of the same
// core.

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
// global model and give every participant its trainer and seeded RNG.
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
		if e == asyncEngine && cfg.Trace != nil && c.Device != nil {
			// Async device work runs on the event-loop goroutine only,
			// so its devices share the run recorder; the round engines'
			// devices log through their cohort slot (strike).
			c.Device.TraceID = c.ID
			c.Device.Tracer = cfg.Trace
		}
	}
	return active, global, nil
}

// clientLogCapacity is the starting size of each cohort slot's throttle
// log. A log never drops: a large shard on a hot device makes thousands
// of governor transitions in one round (a Nexus 6 training VGG6 on
// 15,000 samples makes over 4,000), and the log grows to hold them, then
// keeps that storage for later rounds.
const clientLogCapacity = 1024

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

	// Policy: what a model exchange is (see exchange). False: a server
	// round trip. True: a gossip peer swap.
	swap bool
	// Policy: the devices leave the simulation at close (population
	// rounds re-materialize them on their next selection), so no output
	// can read their wait and close skips it.
	discard bool

	sel    []int // cohort scratch: the sampler's buffer, or the identity
	crs    []ClientRound
	spans  []float64
	post   []float64 // the exchange leg a slot's device plays after its compute
	devs   []*device.Device
	meters []meter
	burns  []int     // samples a slot's device burns (strike), −1: none
	secs   []float64 // play: the compute seconds each burn took
	// logs are the slots' device throttle logs (traced runs only), made
	// on a slot's first device and drained by emit every round, so a slot
	// holds only its current member's events. Slots own their logs, so
	// concurrent steps and TrainLockstep never share one.
	logs   []*trace.Recorder
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
		sel: make([]int, n), crs: make([]ClientRound, n), spans: make([]float64, n), post: make([]float64, n),
		devs: make([]*device.Device, n), order: make([]int, n), meters: make([]meter, n),
		burns: make([]int, n), secs: make([]float64, n),
	}
	if rec != nil {
		rc.logs = make([]*trace.Recorder, n)
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

// strike opens slot s for member id holding samples, struck by fault f
// (the caller's draw; the zero Fault when samples ≤ 0), attaches the
// slot's throttle log to the member's device, prices its model exchange
// on link and plays the leg before the compute. It records and returns
// how many samples the member's device must burn before settle — −1 when
// the slot sits the round out: no samples (its device is reported at
// rest) or no device (nothing to time, burn or settle).
//
// fedlint:hotpath
func (rc *roundCore) strike(s, id, samples int, dev *device.Device, link network.Link, f fault.Fault) int {
	cr := &rc.crs[s]
	*cr = ClientRound{ClientID: id, Samples: samples}
	rc.spans[s], rc.devs[s], rc.burns[s] = 0, dev, -1
	if rc.logs != nil && dev != nil {
		if rc.logs[s] == nil {
			rc.logs[s] = trace.NewLog(clientLogCapacity)
		}
		dev.Tracer, dev.TraceID = rc.logs[s], id
	}
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
	var pre float64
	pre, rc.post[s] = exchange(link, rc.modelBytes, rc.swap, f)
	cr.CommS = pre + rc.post[s]
	dev.Idle(pre)
	rc.burns[s] = burnt(samples, f)
	return rc.burns[s]
}

// exchange prices a member's model exchange on link under fault f as the
// two legs its device plays around the compute: pre, the server's model
// download (a gossip swap has none), and post, the upload — for a swap
// followed by the peer's model download. f.Slow degrades both. A crash or
// battery death strikes mid-compute: the download was paid, nothing is
// sent. A link flap cuts the upload at f.Point, and no later leg happens.
// A completed exchange costs link.RoundTripTime either way. The one
// definition of what a fault does to an exchange, for every engine.
func exchange(link network.Link, bytes int, swap bool, f fault.Fault) (pre, post float64) {
	link = link.Degraded(f.Slow)
	if !swap {
		pre = link.DownloadTime(bytes)
	}
	switch {
	case f.Kind == fault.Crash || f.Kind == fault.Battery:
	case f.Kind == fault.LinkFlap:
		post = f.Point * link.UploadTime(bytes)
	case swap:
		post = link.RoundTripTime(bytes)
	default:
		post = link.UploadTime(bytes)
	}
	return pre, post
}

// settle closes slot s once its device has burned computeS seconds: a
// battery death (the fault strike recorded) empties the account, the
// device plays the exchange leg after the compute and is metered.
//
// fedlint:hotpath
func (rc *roundCore) settle(s int, computeS float64) {
	cr := &rc.crs[s]
	cr.ComputeS = computeS
	if cr.Fault == fault.Battery {
		rc.devs[s].DrainBattery()
	}
	rc.devs[s].Idle(rc.post[s])
	rc.spans[s] = cr.ComputeS + cr.CommS
	rc.meters[s].read(cr)
}

// train plays round `round` of cohort sel, whose slot s trains
// members[sel[s]] from the weights `from` (nil: from its own model): the
// slots fan out across the worker pool longest shard first, then the
// round closes. Every member owns its network, optimizer, RNG, local
// shard and simulated device and every slot its cells, so workers never
// share mutable state; everything order-sensitive happens in close and
// later, in cohort order.
func (rc *roundCore) train(round int, sel []int, members []*Client, cfg *Config, from []*tensor.Tensor) roundClose {
	workers := tensor.WorkerCount(cfg.Workers, len(sel))
	order := rc.longestFirst(workers, sel, members)
	forEach(workers, len(sel), func(i int) {
		rc.stepClient(order[i], round, members[sel[order[i]]], cfg, from)
	})
	return rc.close(round, sel)
}

// play closes a train-free round over cohort sel once the caller has
// struck every slot: the burns strike recorded run in device lockstep
// (device.TrainLockstep, bit-identical to training phone by phone), then
// every burned slot settles and the round closes.
//
// fedlint:hotpath
func (rc *roundCore) play(round int, sel []int) roundClose {
	k := len(sel)
	device.TrainLockstep(rc.arch, rc.batch, rc.devs[:k], rc.burns[:k], rc.secs[:k])
	for s := 0; s < k; s++ {
		if rc.burns[s] >= 0 {
			rc.settle(s, rc.secs[s])
		}
	}
	return rc.close(round, sel)
}

// stepClient plays slot s's round for member c, which trains for real:
// strike the fault plan, burn the compute the device gets through on its
// own (Device.Train), settle, then run the local epoch (update). Fault
// draws are pure hashes of (round, id), so steps run concurrently.
//
// fedlint:hotpath
func (rc *roundCore) stepClient(s, round int, c *Client, cfg *Config, from []*tensor.Tensor) {
	if n := rc.strike(s, c.ID, c.Local.Len(), c.Device, c.Link, rc.faults.Fault(round, c.ID)); n >= 0 {
		rc.settle(s, c.Device.Train(rc.arch, n, rc.batch))
	}
	c.update(cfg, from, &rc.crs[s])
}

// update trains c into cr unless the fault strike recorded aborts its
// round. An aborted round skips the gradient work entirely — the update
// would be discarded anyway, and leaving the trainer, RNG and round
// counter untouched means a resumed run replays only completed training
// — and reports loss −1.
// Corrupt clients train normally; the damage happens on the wire. A
// clean update with non-finite weights is Diverged: the server, or a
// gossip peer, rejects it.
//
// fedlint:hotpath
func (c *Client) update(cfg *Config, from []*tensor.Tensor, cr *ClientRound) {
	cr.TrainLoss = -1
	if !cr.Fault.Aborts() {
		cr.TrainLoss = c.train(cfg, from)
		cr.Diverged = cr.Fault == fault.None && c.net.HasNonFinite()
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
//	           report when they plan instead, and leave rep unset;
//	wait     — every cohort device idles until the round closes, so its
//	           clock reads its open clock plus the makespan; a member the
//	           close did not wait for (a victim, a late or a dropped
//	           member) whose own span is longer ends at open plus span.
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
	for s := 0; s < k && !rc.discard; s++ {
		if rc.devs[s] != nil {
			rc.devs[s].Idle(out.makespan - rc.spans[s])
		}
	}
	return out
}

// emit merges one finished round over the first k slots into the run
// trace: per-device throttle logs (drained in cohort order, stamped with
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
		root.DrainRound(rc.logs[s], round)
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
