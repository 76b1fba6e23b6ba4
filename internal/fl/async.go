package fl

import (
	"fmt"
	"math"
	"sync"

	"fedsched/internal/data"
	"fedsched/internal/fault"
	"fedsched/internal/sim"
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

// RunAsync executes staleness-weighted asynchronous federated learning on
// the simulated testbed. Every client loops download → local epoch →
// upload; the server merges each upload immediately, so fast devices never
// wait for stragglers — at the price of stale gradients. There are no
// rounds to close, so the engine keeps its own virtual-time event loop,
// but a client cycle is built from the round core's primitives (round.go):
// the same fault strike, compute burn, device meter and local epoch.
//
// Real wall-clock parallelism: a client's local epoch is a pure function
// of the weights it pulled and its own RNG/optimizer state, both fixed
// the moment its cycle starts, so with Workers > 1 the gradient descent
// runs ahead on a bounded pool of background futures while the virtual
// event loop advances other clients. The loop joins each future at the
// client's merge event, which keeps every server merge in exact virtual
// time order — results are bit-identical to the sequential engine.
//
// Injected faults (Config.Faults) are drawn per (client cycle, client
// id): a fault that aborts the cycle wastes its virtual time and energy
// without ever merging (the trainer and RNG are untouched, exactly as in
// the synchronous engine) — then the client starts its next cycle, like a
// restarted app — and a corrupted upload is rejected at the server
// without advancing the model version (the client trained for real, so
// only the merge is lost). Each costs one KindFault event.
//
// fedlint:deterministic
// fedlint:trace KindMerge,KindFault
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
	modelBytes := cfg.Arch.SizeBytes()
	deadline := cfg.Duration
	if deadline <= 0 {
		deadline = math.Inf(1)
	}

	var engine sim.Engine
	engine.Tracer = cfg.Trace
	// cancelled latches the first true poll of Config.Cancel so every
	// later done() check agrees — in-flight event callbacks all no-op
	// from that moment and the run winds down at the current virtual
	// time, like hitting MaxUpdates.
	cancelled := false
	done := func() bool {
		if !cancelled && cfg.Cancel != nil && cfg.Cancel() {
			cancelled = true
		}
		return cancelled || (cfg.MaxUpdates > 0 && hist.Updates >= cfg.MaxUpdates) || engine.Now() > deadline
	}

	workers := workerCount(cfg.Workers, len(active))
	// outstanding counts in-flight training futures; it is only touched
	// from the event-loop goroutine. inflight joins every future before
	// RunAsync returns so no goroutine outlives the engine.
	outstanding := 0
	var inflight sync.WaitGroup

	// cycles counts each client's started iterations — the "round" key for
	// its fault draws. Touched only on the event-loop goroutine.
	cycles := make([]int, len(active))

	// cycle runs one client iteration: the closure chain mirrors the
	// download → train → upload pipeline in virtual time.
	var cycle func(ci int)
	cycle = func(ci int) {
		if done() {
			return
		}
		c := active[ci]
		fcycle := cycles[ci]
		cycles[ci]++
		f := cfg.Faults.Fault(fcycle, c.ID)
		aborted := f.Kind.Aborts()
		link := c.Link.Degraded(f.Slow)
		commDown := link.DownloadTime(modelBytes)
		commUp := link.UploadTime(modelBytes)
		switch f.Kind {
		case fault.Crash, fault.Battery:
			commUp = 0 // died mid-shard: nothing is uploaded
		case fault.LinkFlap:
			commUp *= f.Point // the link dies Point of the way through the upload
		}

		// Speculatively start the local epoch on a background future when
		// the pool has room and the lane budget allows it. The inputs are
		// frozen (pulled is a snapshot; c's state is untouched until the
		// join below), so the future computes exactly what the inline
		// path would. An aborted cycle never trains.
		var (
			versionAtPull int
			pulled        []*tensor.Tensor
			trained       chan struct{}
		)
		if !aborted {
			versionAtPull, pulled = version, cloneWeights(globalW)
			if workers > 1 && outstanding < workers && tensor.TryAcquireLanes(1) == 1 {
				outstanding++
				trained = make(chan struct{})
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					c.train(&cfg.Config, pulled)
					tensor.ReleaseLanes(1)
					close(trained)
				}()
			}
		}
		engine.After(commDown, func() {
			if trained != nil {
				<-trained // join before anything can observe c's state
				outstanding--
			}
			if done() {
				return
			}
			if !aborted && trained == nil {
				// Sequential path: real gradient descent inline.
				c.train(&cfg.Config, pulled)
			}
			cr := ClientRound{Samples: c.Local.Len(), BatteryFrac: 1}
			if c.Device != nil {
				m := meterOn(c.Device)
				burn(&cr, c.Device, cfg.Arch, cfg.BatchSize, f)
				if !aborted {
					c.Device.Idle(commUp)
				}
				m.read(&cr)
			}
			engine.After(cr.ComputeS+commUp, func() {
				if done() {
					return
				}
				ev := trace.Event{
					Kind: trace.KindFault, Round: fcycle, Client: c.ID,
					Samples: cr.Samples, Flag: int(f.Kind), AtS: engine.Now(),
					ComputeS: cr.ComputeS, CommS: commDown + commUp,
					EnergyJ: cr.EnergyJ, Battery: cr.BatteryFrac,
				}
				if f.Kind == fault.None {
					// Server merge with staleness damping.
					staleness := float64(version - versionAtPull)
					eta := cfg.MixRate / math.Pow(1+staleness, cfg.StalenessPower)
					scaleWeights(globalW, 1-eta)
					accumulateWeighted(globalW, c.net.Weights(), eta)
					version++
					hist.Updates++
					hist.UpdatesPerClient[c.at]++
					stalenessSum += staleness
					ev.Kind, ev.Round, ev.Flag, ev.Staleness = trace.KindMerge, hist.Updates-1, 0, int(staleness)
				}
				cfg.Trace.Emit(ev)
				cycle(ci) // immediately start the next iteration
			})
		})
	}

	for ci := range active {
		cycle(ci)
	}
	if math.IsInf(deadline, 1) {
		// Unbounded duration: run events until MaxUpdates hits; remaining
		// callbacks see done() and no-op.
		for engine.Pending() > 0 && !done() {
			engine.Step()
		}
	} else {
		engine.RunUntil(deadline)
	}
	// Join any futures whose merge events never fired (run ended first):
	// nothing may mutate client state after we return.
	inflight.Wait()

	hist.VirtualSeconds = engine.Now()
	if hist.Updates > 0 {
		hist.MeanStaleness = stalenessSum / float64(hist.Updates)
	}
	global.SetWeights(globalW)
	if test != nil {
		hist.FinalAccuracy = Evaluate(global, test, 256)
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
