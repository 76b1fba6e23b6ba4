package fl

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/trace"
)

// Centralized trains one model on the full dataset for the given number of
// epochs — the paper's centralized-learning reference in Fig 2.
func Centralized(cfg Config, train, test *data.Dataset) (float64, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil {
		return 0, fmt.Errorf("fl: no architecture")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := nn.NewTrainer(cfg.Precision, cfg.Arch, rng, cfg.LR, cfg.Momentum)
	local := train.Subset(seq(train.Len())) // private copy; the epoch shuffles in place
	for e := 0; e < cfg.Rounds; e++ {
		localEpoch(tr, local, rng, cfg.BatchSize)
	}
	return Evaluate(tr.EvalNetwork(), test, 256), nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BuildClients wires devices, links and per-user datasets into clients.
// devices[i] may be nil (no time simulation). All slices must have equal
// length.
func BuildClients(devices []*device.Device, links []network.Link, datasets []*data.Dataset) ([]*Client, error) {
	if len(devices) != len(datasets) || len(links) != len(datasets) {
		return nil, fmt.Errorf("fl: mismatched lengths: %d devices, %d links, %d datasets",
			len(devices), len(links), len(datasets))
	}
	clients := make([]*Client, len(datasets))
	for i := range datasets {
		name := fmt.Sprintf("client-%d", i)
		if devices[i] != nil {
			name = fmt.Sprintf("%s-%d", devices[i].Model, i)
		}
		clients[i] = NewClient(i, name, devices[i], links[i], datasets[i])
	}
	return clients, nil
}

// SimulateRounds plays `rounds` synchronous rounds of the given per-user
// sample counts without training any model: devices simulate computation
// (with persistent thermal state across rounds) and links add the model
// transfer time. This is what the computation-time experiments (Figs 5, 7)
// measure; accuracy experiments use Run instead. Each round returns the
// record Run returns — its makespan and every member's ClientRound —
// with TrainLoss NaN and Accuracy −1, since nothing trains (a member's
// TrainLoss reads 0). With a non-nil rec, devices emit their throttle
// transitions and each round closes with per-client KindClientRound
// events plus a KindRoundSummary (makespan, straggler). It is the
// simplest policy over the round core (round.go): everyone participates
// with a fixed sample count, nothing trains and nothing merges.
func SimulateRounds(arch *nn.Arch, devices []*device.Device, links []network.Link, samples []int, batch, rounds int, rec *trace.Recorder) ([]RoundStats, error) {
	if len(devices) != len(samples) || len(links) != len(samples) {
		return nil, fmt.Errorf("fl: mismatched lengths: %d devices, %d links, %d sample counts",
			len(devices), len(links), len(samples))
	}
	k := len(devices)
	rc := newRoundCore(arch, batch, k, nil, nil, rec)
	out := make([]RoundStats, 0, rounds)
	for r := 0; r < rounds; r++ {
		for i, dev := range devices {
			rc.strike(i, i, samples[i], dev, links[i], fault.Fault{})
		}
		cl := rc.play(r, rc.sel)
		out = append(out, RoundStats{
			Round: r, Makespan: cl.makespan, TrainLoss: math.NaN(), Accuracy: -1,
			Failed: cl.failed, Clients: append([]ClientRound(nil), rc.crs[:k]...),
		})
		rc.emit(r, k, &cl, -1, -1)
	}
	return out, nil
}
