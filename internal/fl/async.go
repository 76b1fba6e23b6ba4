package fl

import (
	"fmt"
	"math"

	"fedsched/internal/data"
	"fedsched/internal/fault"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// AsyncConfig drives an asynchronous federated run. The paper (§II-B)
// argues for synchronous aggregation because "inconsistent gradients could
// easily lead to divergence and amortize the savings in computation time";
// this mode implements the asynchronous alternative (staleness-weighted
// server merging à la Ho et al. [11] / Zheng et al. [12]) so the trade-off
// can be measured instead of assumed.
type AsyncConfig struct {
	Config
	// MaxUpdates stops the run after this many server merges.
	MaxUpdates int
	// Duration stops the run after this much simulated time (seconds).
	// Zero means unbounded (MaxUpdates must then be set).
	Duration float64
	// MixRate is the base server mixing rate η; an update with staleness s
	// is applied with weight η/(1+s)^StalenessPower.
	MixRate float64
	// StalenessPower controls how aggressively stale updates are damped.
	StalenessPower float64
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	c.Config = c.Config.withDefaults()
	if c.MixRate <= 0 {
		c.MixRate = 0.3
	}
	if c.StalenessPower < 0 {
		c.StalenessPower = 0
	}
	if c.MaxUpdates <= 0 && c.Duration <= 0 {
		c.MaxUpdates = 100
	}
	return c
}

// AsyncHistory summarizes an asynchronous run.
type AsyncHistory struct {
	Updates          int
	VirtualSeconds   float64
	FinalAccuracy    float64
	MeanStaleness    float64
	UpdatesPerClient []int
	TotalEnergyJ     float64
}

// cycle is one active client's current iteration — download → local
// epoch → upload — and the one event it has pending: its download landing
// or, once uploaded is set, its upload landing. RunAsync's event queue is
// one cycle per client, and an iteration's state is data in its record,
// not captures in a chain of callbacks.
type cycle struct {
	at       float64 // virtual time the pending event lands
	seq      int     // scheduling order: equal times run first-scheduled first
	uploaded bool    // the pending event is the upload landing, not the download

	c                *Client
	n                int              // iterations before this one: the fault-draw round
	f                fault.Fault      // this iteration's injected fault
	commDown, commUp float64          // the exchange legs (see exchange)
	version          int              // global model version at the pull
	pulled           []*tensor.Tensor // the weights pulled at the iteration's start; one buffer for all of them
	cr               ClientRound      // the iteration's step, reported at the upload
}

// eventQueue is RunAsync's virtual clock and its pending events, one per
// cycle.
type eventQueue struct {
	now    float64
	seq    int
	cycles []cycle
}

// after schedules cy's next event delay virtual seconds from now (never in
// the past).
//
// fedlint:hotpath
func (q *eventQueue) after(cy *cycle, delay float64) {
	q.seq++
	cy.at, cy.seq = q.now+max(delay, 0), q.seq
}

// next advances the clock to the earliest pending event — equal times in
// scheduling order — and returns its cycle, or nil when that event lies
// past deadline. A linear scan: one record per client costs nothing next
// to a local epoch.
//
// fedlint:hotpath
func (q *eventQueue) next(deadline float64) *cycle {
	first := &q.cycles[0]
	for i := range q.cycles {
		if cy := &q.cycles[i]; cy.at < first.at || cy.at == first.at && cy.seq < first.seq { //fedlint:allow floateq — exact-equality tie-break; equal times fall through to the seq ordering
			first = cy
		}
	}
	if first.at > deadline {
		return nil
	}
	q.now = first.at
	return first
}

// RunAsync executes staleness-weighted asynchronous federated learning on
// the simulated testbed. Every client loops download → local epoch →
// upload; the server merges each upload immediately, so fast devices never
// wait for stragglers — at the price of stale gradients. There are no
// rounds to close, so the engine keeps its own virtual-time event loop —
// one pending event per client, the earliest dispatched next — but a
// client cycle is one step of a one-slot round core (round.go), played
// when its download lands: the same fault strike, exchange legs, compute
// burn, device meter and local epoch as a round. The run stops at the
// first event past Duration, or when MaxUpdates merges or Config.Cancel
// (both checked at every event) end it.
//
// Every local epoch runs on the event loop's goroutine, when the
// client's download lands, from the weights it pulled when its cycle
// began: server merges happen in exact virtual-time order, and between
// two events no training is in flight. So one trainer, the one-slot
// core's lane 0, trains every client, and each client holds its update
// in its own weights until the upload lands. Config.Workers bounds only
// the final evaluation.
//
// Injected faults (Config.Faults) are drawn per (client cycle, client
// id): a fault that aborts the cycle wastes its virtual time and energy
// without ever merging (the weights and RNG are untouched, exactly as in
// the synchronous engine) — then the client starts its next cycle, like a
// restarted app — and a corrupted upload is rejected at the server
// without advancing the model version (the client trained for real, so
// only the merge is lost). Each costs one KindFault event. A clean update
// with non-finite weights is rejected the same way and recorded as a
// KindClientRound event flagged ClientDiverged.
//
// fedlint:deterministic
// fedlint:trace KindSimStep,KindMerge,KindFault,KindClientRound
func RunAsync(cfg AsyncConfig, clients []*Client, test *data.Dataset) (*AsyncHistory, error) {
	cfg = cfg.withDefaults()
	active, global, err := setup(&cfg.Config, asyncEngine, clients)
	if err != nil {
		return nil, err
	}
	globalW := global.GetWeights()
	version := 0

	hist := &AsyncHistory{UpdatesPerClient: make([]int, len(clients))}
	stalenessSum := 0.0
	rc := newRoundCore(cfg.Arch, cfg.BatchSize, 1, nil, cfg.Faults, nil)
	deadline := cfg.Duration
	if deadline <= 0 {
		deadline = math.Inf(1)
	}
	// cancelled latches the first true poll of Config.Cancel so every
	// later done() check agrees; the run stops at the current virtual
	// time, like hitting MaxUpdates.
	cancelled := false
	done := func() bool {
		cancelled = cancelled || cfg.Cancel != nil && cfg.Cancel()
		return cancelled || cfg.MaxUpdates > 0 && hist.Updates >= cfg.MaxUpdates
	}

	// begin starts cy's next iteration now: draw its fault, pull a
	// snapshot of the model, and schedule the download landing. An aborted
	// iteration pulls nothing and never trains.
	q := eventQueue{cycles: make([]cycle, len(active))}
	begin := func(cy *cycle) {
		f := cfg.Faults.Fault(cy.n, cy.c.ID)
		cy.f, cy.uploaded = f, false
		cy.commDown, cy.commUp = exchange(cy.c.Link, rc.modelBytes, false, f)
		if !f.Kind.Aborts() {
			// The last pull was read when its download landed, so its
			// buffer is free again. An aborted iteration never trains, so
			// it reads no pull.
			if cy.pulled == nil {
				cy.pulled = cloneWeights(globalW)
			} else {
				copyWeights(cy.pulled, globalW)
			}
			cy.version = version
		}
		q.after(cy, cy.commDown)
	}
	for i, c := range active {
		q.cycles[i].c = c
		begin(&q.cycles[i])
	}

	for !done() {
		cy := q.next(deadline)
		if cy == nil {
			break
		}
		cfg.Trace.Emit(trace.Event{Kind: trace.KindSimStep, Round: cy.seq, Client: -1, AtS: q.now})
		c, f := cy.c, cy.f
		if !cy.uploaded {
			// The download landed: play the cycle's round on the device
			// (the download, the compute, the upload), run the local
			// epoch and schedule the upload's landing.
			rc.stepClient(0, cy.n, c, rc.trainer(0, &cfg.Config), &cfg.Config, cy.pulled)
			cy.cr, cy.uploaded = rc.crs[0], true
			q.after(cy, cy.cr.ComputeS+cy.commUp)
			continue
		}
		// The upload landed: merge it with staleness damping, or report the
		// fault or divergence that lost it.
		ev := trace.Event{
			Kind: trace.KindFault, Round: cy.n, Client: c.ID,
			Samples: cy.cr.Samples, Flag: int(f.Kind), AtS: q.now,
			ComputeS: cy.cr.ComputeS, CommS: cy.commDown + cy.commUp,
			EnergyJ: cy.cr.EnergyJ, Battery: cy.cr.BatteryFrac,
		}
		switch {
		case f.Kind != fault.None:
		case cy.cr.Diverged:
			ev.Kind, ev.Flag = trace.KindClientRound, trace.ClientDiverged
		default:
			staleness := float64(version - cy.version)
			eta := cfg.MixRate / math.Pow(1+staleness, cfg.StalenessPower)
			scaleWeights(globalW, 1-eta)
			accumulateWeighted(globalW, c.w, eta)
			version++
			hist.Updates++
			hist.UpdatesPerClient[c.at]++
			stalenessSum += staleness
			ev.Kind, ev.Round, ev.Flag, ev.Staleness = trace.KindMerge, hist.Updates-1, 0, int(staleness)
		}
		cfg.Trace.Emit(ev)
		if !done() { // a finished run begins no new iteration
			cy.n++
			begin(cy)
		}
	}
	hist.VirtualSeconds = q.now
	if hist.Updates > 0 {
		hist.MeanStaleness = stalenessSum / float64(hist.Updates)
	}
	global.SetWeights(globalW)
	if test != nil {
		hist.FinalAccuracy = evaluate(global, test, 256, cfg.Workers, nil).Accuracy()
	}
	for _, c := range active {
		if c.Device != nil {
			hist.TotalEnergyJ += c.Device.EnergyJ
		}
	}
	if cancelled {
		return hist, fmt.Errorf("fl: async run stopped after %d merges: %w", hist.Updates, ErrCancelled)
	}
	return hist, nil
}
