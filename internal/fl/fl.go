// Package fl holds the federated-learning engines: a parameter server
// aggregating FedAvg updates from simulated mobile clients (Run), its
// asynchronous (RunAsync) and serverless (RunGossip) variants, and the
// train-free population-scale and round simulators. Round wall time is
// the makespan over surviving participants of simulated computation
// (device package) plus communication (network package); model quality
// comes from real gradient descent on the nn package. The round itself —
// client step and round close — is implemented once, in round.go; the
// engines are policies over it.
//
// Clients within a round are independent by construction, so the engines
// train them concurrently on a bounded worker pool (Config.Workers) and
// then close the round in cohort order after the join — a run is
// bit-identical for any Workers value at a fixed Seed.
package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// ErrCancelled reports a run stopped early through Config.Cancel. The
// engines wrap it with the stopping round; match with errors.Is. The
// History returned alongside it holds every completed round and the
// global model as of the stop — a checkpointed run can later resume
// past the same point.
var ErrCancelled = errors.New("run cancelled")

// Client is one federated participant. It owns its data, device, link,
// RNG and model weights, but no trainer: a run trains its clients on one
// nn.Trainer per worker lane (see roundCore.train), so a run's training
// memory follows its workers, not its client count.
type Client struct {
	ID     int
	Name   string
	Device *device.Device // nil disables time simulation for this client
	Link   network.Link
	Local  *data.Dataset // local training data (nil or empty → skipped)

	// w is the client's model as float64 tensors, laid out like the run
	// architecture's parameters (set by setup): the update it trained last
	// (Run, RunAsync) or its own model (RunGossip). A lane's trainer,
	// bound to w, trains in it in place at float64 and widens into it at
	// float32.
	w     []*tensor.Tensor
	rng   *rand.Rand
	round int // rounds this client has trained (drives LR schedules)
	at    int // position in the run's client list (set by setup)
}

// NewClient constructs a client. dev may be nil when only accuracy (not
// time) is being measured.
func NewClient(id int, name string, dev *device.Device, link network.Link, local *data.Dataset) *Client {
	return &Client{ID: id, Name: name, Device: dev, Link: link, Local: local}
}

// Config drives a federated run. Run honours every field; RunAsync and
// RunGossip reject the ones they cannot honour — Quorum, MinParticipants,
// DeadlineSeconds, SecureAgg, CheckpointSink, Resume, LRSchedule — by
// name instead of ignoring them (Config.check).
type Config struct {
	Arch      *nn.Arch
	Rounds    int
	BatchSize int
	LR        float64
	Momentum  float64
	// Seed makes the whole run deterministic (init, shuffles, dropout).
	Seed int64
	// Precision selects the element type clients train in (nn.F64, the
	// default, or nn.F32). Server-side state — the global model, the
	// FedAvg reduction, evaluation — stays float64 either way, so the
	// deterministic post-join reduction guarantees are precision-
	// independent: histories are bit-identical for any Workers value at
	// a fixed (Seed, Precision).
	Precision nn.Precision
	// Workers bounds how many clients train concurrently within a round
	// (Run and RunGossip; RunAsync trains on its event loop and uses it
	// only for its final evaluation). Zero means runtime.GOMAXPROCS(0);
	// negative values clamp to 1 (strictly sequential, no goroutines);
	// the effective count never exceeds the participant count. The
	// History is bit-identical for every Workers value at a fixed Seed:
	// aggregation always happens after the round's join, in client order.
	Workers int
	// EvalEvery evaluates test accuracy every k rounds (and always on the
	// final round). Zero means final-round only.
	EvalEvery int
	// SecureAgg aggregates client updates through pairwise-mask secure
	// aggregation (internal/secagg) instead of plaintext averaging — the
	// protection the paper's system model assumes (§IV-A). The server then
	// sees only the weighted sum, never an individual update. Costs one
	// fixed-point quantization (~2⁻²⁴ per weight) per round.
	SecureAgg bool
	// DeadlineSeconds, when positive, drops any participant whose
	// compute+comm time exceeds it from that round's aggregation — the
	// hard straggler dropout of Bonawitz et al. [5] that the paper
	// criticizes for "not attempting to make best use from their data"
	// (§II-B). The round's makespan is then capped at the deadline.
	DeadlineSeconds float64
	// LRSchedule, when set, overrides LR per round (see nn.StepDecayLR,
	// nn.CosineLR).
	LRSchedule nn.LRSchedule
	// Sampler, when set, draws each round's cohort from the data-holding
	// clients: Cohort(round, …) returns indices into that list, and only
	// those clients train, aggregate and idle that round — the rest of the
	// fleet does no work at all (their devices stay untouched and their
	// personal round counters, which drive LRSchedule, do not advance).
	// Its Population() must equal the data-holding client count. Nil means
	// every client participates every round, the pre-sampling behavior.
	// Run (per-round cohorts) and RunGossip (per-round, rounds with < 2
	// eligible clients idle) honour it; RunAsync draws one cohort at run
	// start, since it has no synchronous rounds to re-sample at.
	Sampler sample.Sampler
	// Trace, when non-nil, receives the run's round-trace: per-client
	// round events (compute/comm seconds, energy, battery, temperature,
	// DVFS throttle transitions, assigned samples) and per-round
	// aggregates (makespan, straggler id, loss, accuracy). Each client
	// buffers its events in a private log during the parallel section;
	// the engine merges them post-join in client order, so the trace is
	// bit-identical for any Workers value — same contract as the History.
	Trace *trace.Recorder
	// Faults, when non-nil, injects deterministic client faults
	// (internal/fault): crashes and battery death mid-shard, link flaps
	// and degradation, corrupted updates. Faulted updates never
	// aggregate; the time, energy and heat spent before the failure are
	// still simulated. Draws are pure hashes of (kind, round, client,
	// Faults.Seed), so faulty runs stay bit-identical for any Workers.
	Faults *fault.Plan
	// Quorum, when positive, closes each round after the first Quorum
	// surviving updates, ordered by realized round span (ties by client
	// id). Later survivors are flagged late and their updates discarded
	// — the over-selection pattern of production FL: draw
	// ⌈S·(1+margin)⌉ clients with the Sampler and set Quorum = S, so
	// stragglers and faults eat the margin instead of the round.
	// Incompatible with SecureAgg (a discarded masked share is
	// unrecoverable; see DESIGN).
	Quorum int
	// MinParticipants, when positive, is the round's participation
	// floor: a round that aggregates fewer surviving updates is recorded
	// as failed (RoundStats.Failed; the global model stands) instead of
	// aborting the run. With the floor unset, a round with zero
	// participants remains a run error (legacy behavior), except under a
	// deadline or a fault plan, where wasted rounds are expected.
	MinParticipants int
	// CheckpointEvery, when positive with CheckpointSink set, snapshots
	// the run every k completed rounds: the global model, every client's
	// round/RNG position and device state, the sampler's cooldown state
	// and the history so far. Resuming from the snapshot (Resume)
	// reproduces the uninterrupted run bit-identically — history and
	// trace — at any Workers value.
	CheckpointEvery int
	// CheckpointSink receives each snapshot; typically it serializes via
	// Checkpoint.Save (or, round by round, AppendState + AppendRounds).
	// The snapshot's HistoryRounds shares the run's completed rounds —
	// read, never written. Its Model bytes are valid only during the
	// call: the run rewrites the same buffer at its next snapshot, so a
	// sink that keeps the checkpoint keeps a copy of Model. A sink error
	// aborts the run (returning the partial History).
	CheckpointSink func(*Checkpoint) error
	// Resume, when non-nil, restores a checkpointed run: the
	// configuration must match the checkpointed one (seed, rounds,
	// clients), and the run continues from Checkpoint.NextRound.
	Resume *Checkpoint
	// Cancel, when non-nil, is polled between rounds (all three round
	// engines honour it; RunAsync polls it at every virtual event).
	// When it reports true the run stops at that boundary and returns
	// the partial History alongside ErrCancelled — completed rounds are
	// never discarded, exactly like the mid-run error paths. The poll
	// runs on the engine goroutine, so the callback may read shared
	// state guarded elsewhere (an atomic flag is the intended shape);
	// it must not block.
	Cancel func() bool
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	return c
}

// ClientRound records one client's contribution to a round.
type ClientRound struct {
	ClientID    int
	Samples     int
	ComputeS    float64
	CommS       float64
	TrainLoss   float64
	EnergyJ     float64
	Temperature float64
	// Throttles counts the device's DVFS governor transitions (soft
	// engage/release, hard trip/recover) during this round's training.
	Throttles int
	// BatteryFrac is the battery fraction remaining after the round.
	BatteryFrac float64
	// Dropped marks a participant cut by the round deadline; its update
	// was discarded.
	Dropped bool
	// Diverged marks a participant whose local update contained non-finite
	// weights (exploding gradients); the server rejects such updates — the
	// fault-tolerance concern of Smith et al. [10].
	Diverged bool
	// Fault records the injected fault that hit this client this round
	// (fault.None when unaffected). Faulted updates never aggregate.
	Fault fault.Kind
	// Late marks a survivor that finished after the quorum closed
	// (Config.Quorum); its update was discarded.
	Late bool
}

// RoundStats aggregates one synchronous round.
type RoundStats struct {
	Round     int
	Makespan  float64 // max participant compute+comm seconds
	TrainLoss float64 // sample-weighted mean local loss
	Accuracy  float64 // test accuracy (NaN when not evaluated)
	// Failed marks a round that closed below the participation floor
	// (Config.MinParticipants) or with no usable updates at all: nothing
	// aggregated and the global model is unchanged.
	Failed  bool
	Clients []ClientRound
}

// History is the result of a federated run.
type History struct {
	Rounds        []RoundStats
	FinalAccuracy float64
	// Confusion is the final model's confusion matrix on the test set
	// (nil when no test set was given).
	Confusion *Confusion
	// Model is the final global model (checkpoint it with
	// Model.SaveWeights).
	Model        *nn.Network
	TotalSeconds float64 // Σ round makespans
	TotalEnergyJ float64
}

// Run executes synchronous FedAvg. test may be nil to skip evaluation.
// The history and trace are bit-identical for any Workers value at a
// fixed seed, and every round emits its per-client and summary events
// (plus one KindFault event per injected fault).
//
// Run is the parameter-server policy over the round core (round.go): the
// cohort is the sampler's pick of the data-holding clients, a model
// exchange is one round trip, surviving updates merge by sample-weighted
// FedAvg (plaintext or secure), and a checkpoint may follow every round.
//
// When a mid-run error occurs (a failed round below the legacy no-floor
// path, a secure-aggregation dropout, a checkpoint-sink failure), the
// completed rounds are NOT discarded: the partial History — including
// the global model as of the last completed round — is returned
// alongside the error.
//
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func Run(cfg Config, clients []*Client, test *data.Dataset) (*History, error) {
	cfg = cfg.withDefaults()
	active, global, err := setup(&cfg, syncEngine, clients)
	if err != nil {
		return nil, err
	}
	rc := newRoundCore(cfg.Arch, cfg.BatchSize, len(active), cfg.Sampler, cfg.Faults, cfg.Trace)
	rc.deadline, rc.quorum, rc.floor = cfg.DeadlineSeconds, cfg.Quorum, cfg.MinParticipants

	hist := &History{}
	globalW := global.GetWeights()
	// sumW is the plaintext aggregation scratch, allocated once and
	// reused (zeroed) every round instead of cloning per participant;
	// evalNets are the evaluation pool's spare networks, likewise.
	var sumW []*tensor.Tensor
	var evalNets []*nn.Network
	// final is the last round's evaluation of the weights the run ends
	// with, nil when that round did not evaluate.
	var final *Confusion
	// ckModel is the snapshots' model encoding, one buffer rewritten by
	// every snapshot (see Config.CheckpointSink).
	var ckModel []byte

	// finish stamps the run-final fields; it is shared by the success
	// path and the partial-History error paths so callers can always
	// checkpoint or inspect what completed.
	finish := func() *History {
		global.SetWeights(globalW)
		hist.Model = global
		for _, c := range clients {
			if c.Device != nil {
				hist.TotalEnergyJ += c.Device.EnergyJ
			}
		}
		return hist
	}

	startRound := 0
	if cfg.Resume != nil {
		if startRound, err = resumeRun(cfg, active, global, hist); err != nil {
			return nil, err
		}
		globalW = global.GetWeights()
	}

	for round := startRound; round < cfg.Rounds; round++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			return finish(), fmt.Errorf("fl: run stopped before round %d: %w", round, ErrCancelled)
		}
		// An empty cohort (availability sampling at a dead hour) is an
		// idle round, recorded as such.
		stats := RoundStats{Round: round, TrainLoss: math.NaN(), Accuracy: -1}
		cl := roundClose{straggler: -1}
		sel := rc.draw(round)
		if len(sel) > 0 {
			cl = rc.train(round, sel, active, &cfg, globalW)
			stats.Makespan, stats.Failed = cl.makespan, cl.failed
			stats.Clients = append(stats.Clients, rc.crs[:len(sel)]...)
		}
		switch {
		case len(sel) == 0 || cl.failed:
			// Idle, or below the floor: nothing aggregates and the global
			// model stands.
		case cl.survivors == 0:
			return finish(), fmt.Errorf("fl: round %d had no participants", round)
		default:
			survivors := rc.order[:cl.survivors]
			if cfg.SecureAgg {
				if cl.survivors < len(sel) {
					// The pairwise masks were exchanged across the whole
					// cohort before training; a member that never delivers
					// leaves its mask shares unsummed, and this simulation has
					// no share-recovery round. Silently aggregating would
					// yield a mask-polluted model, so fail loudly instead (see
					// DESIGN).
					return finish(), fmt.Errorf(
						"fl: secure aggregation round %d lost %d of %d masked cohort members; "+
							"pairwise mask shares cannot be recovered — disable SecureAgg to tolerate dropouts",
						round, len(sel)-cl.survivors, len(sel))
				}
				agg, err := secureRound(global, active, sel, rc.crs)
				if err != nil {
					return finish(), err
				}
				globalW = agg
			} else {
				// FedAvg, Σ (n_k/n)·w_k, straight from the live client
				// weights (no per-client clone), in cohort order: a lone
				// survivor's update becomes the global model bit for bit.
				// globalW may alias sumW from the previous round — by now
				// every reader of the old global weights has finished.
				sumW = ensureWeightsLike(sumW, globalW)
				for _, si := range survivors {
					accumulateWeighted(sumW, active[sel[si]].w, float64(rc.crs[si].Samples)/float64(cl.samples))
				}
				globalW = sumW
			}
			stats.TrainLoss = cl.lossSum / float64(cl.samples)
			if test != nil && (round == cfg.Rounds-1 || (cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0)) {
				global.SetWeights(globalW)
				conf := evaluate(global, test, 256, cfg.Workers, &evalNets)
				stats.Accuracy = conf.Accuracy()
				if round == cfg.Rounds-1 {
					final = conf
				}
			}
		}
		rc.emit(round, len(sel), &cl, stats.TrainLoss, stats.Accuracy)
		hist.Rounds = append(hist.Rounds, stats)
		hist.TotalSeconds += stats.Makespan

		// Snapshot once the round has fully completed (history appended,
		// devices at the close), when the cadence says so.
		if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil && (round+1)%cfg.CheckpointEvery == 0 {
			ck := buildCheckpoint(cfg, active, global, globalW, hist, round+1, ckModel[:0])
			ckModel = ck.Model
			if err := cfg.CheckpointSink(ck); err != nil {
				return finish(), fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
			}
		}
	}

	finish()
	if test != nil {
		// The last round evaluated the final model already, unless it was
		// idle, failed or all-dropped (reported -1) or a resume left no
		// round to run.
		if final == nil {
			final = evaluate(global, test, 256, cfg.Workers, &evalNets)
		}
		hist.Confusion = final
		hist.FinalAccuracy = final.Accuracy()
	}
	return hist, nil
}

// Evaluate computes test accuracy in batches of at most batch samples.
// Batches fan out across network clones on a pool of up to GOMAXPROCS
// workers; see evaluate.
func Evaluate(net *nn.Network, test *data.Dataset, batch int) float64 {
	return evaluate(net, test, batch, 0, nil).Accuracy()
}

// evaluate is the one batched evaluator; the engines call it with their
// Config.Workers, so a job evaluates inside the lane budget it trains in,
// and with the run's spare networks (see forEachBatch). The test set
// splits into batches of at most batch samples and into at least one
// batch per worker, so no worker idles on a test set smaller than
// workers × batch. Predictions are per sample and the counts are integers
// merged in batch order, so neither the split nor the worker count
// changes the matrix.
func evaluate(net *nn.Network, test *data.Dataset, batch, workers int, spares *[]*nn.Network) *Confusion {
	if batch <= 0 {
		batch = 256
	}
	c := newConfusion(test.Classes)
	n := test.Len()
	if n == 0 {
		return c
	}
	workers = tensor.WorkerCount(workers, n)
	batch = min(batch, (n+workers-1)/workers)
	nb := (n + batch - 1) / batch
	preds := make([][]int, nb)
	forEachBatch(net, spares, workers, nb, func(bi int, m *nn.Network) {
		x, _ := test.Batch(bi*batch, min((bi+1)*batch, n))
		preds[bi] = predict(m, x)
	})
	for bi, p := range preds {
		c.Add(test.Labels[bi*batch:bi*batch+len(p)], p)
	}
	return c
}
