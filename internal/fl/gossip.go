package fl

import (
	"fmt"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/nn"
)

// Topology selects the gossip communication pattern.
type Topology int

const (
	// Ring pairs each client with its successor, alternating even/odd
	// offsets per round so information flows both ways.
	Ring Topology = iota
	// RandomPairs draws a fresh random perfect matching each round.
	RandomPairs
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Ring:
		return "ring"
	case RandomPairs:
		return "random-pairs"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// GossipConfig drives a decentralized run: there is no parameter server;
// each round clients train locally and then average weights pairwise with
// a peer (decentralized parallel SGD in the style of Lian et al. [8],
// which the paper's system model says the framework is amenable to,
// §IV-A).
type GossipConfig struct {
	Config
	Topology Topology
}

// GossipHistory summarizes a decentralized run.
type GossipHistory struct {
	Rounds       int
	MeanAccuracy float64   // mean over client models
	BestAccuracy float64   // best single client model
	Disagreement float64   // mean max |w_i − w_j| over weights, final round
	PerClient    []float64 // final per-client accuracy
	TotalSeconds float64   // Σ round makespans (compute + peer exchange)
}

// RunGossip executes decentralized training. test may be nil (accuracy
// fields stay zero).
//
// RunGossip is the serverless policy over the round core (round.go): the
// cohort is the sampler's pick (rounds with fewer than two members idle),
// a model exchange is a peer swap — upload own model, download the
// peer's; a flapping link loses the upload — and surviving models merge
// by pairwise averaging. Only clean clients pair: fault victims never
// sent a model and corrupted senders are rejected by their peers; neither
// extends the round makespan.
//
// fedlint:deterministic
// fedlint:trace KindClientRound,KindRoundSummary,KindFault
func RunGossip(cfg GossipConfig, clients []*Client, test *data.Dataset) (*GossipHistory, error) {
	cfg.Config = cfg.Config.withDefaults()
	active, global, err := setup(&cfg.Config, gossipEngine, clients)
	if err != nil {
		return nil, err
	}
	// There is no server: every peer starts from the same initial model,
	// as its network would hold it — rounded through float32 on the f32
	// path, like every pair average below.
	init := global.Weights()
	for _, c := range active {
		copyWeights(c.w, init)
		if cfg.Precision == nn.F32 {
			roundToFloat32(c.w)
		}
	}
	rc := newRoundCore(cfg.Arch, cfg.BatchSize, len(active), cfg.Sampler, cfg.Faults, cfg.Trace)
	rc.swap = true

	hist := &GossipHistory{Rounds: cfg.Rounds}
	pairRNG := rand.New(rand.NewSource(cfg.Seed + 13))
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.Cancel != nil && cfg.Cancel() {
			hist.Rounds = round
			return hist, fmt.Errorf("fl: gossip stopped before round %d: %w", round, ErrCancelled)
		}
		sel := rc.draw(round)
		if len(sel) < 2 {
			// Gossip needs a pair; a round with fewer eligible clients
			// idles (no training, no exchange), recorded as empty.
			rc.emit(round, 0, &roundClose{straggler: -1}, -1, -1)
			continue
		}
		cl := rc.train(round, sel, active, &cfg.Config, nil)
		hist.TotalSeconds += cl.makespan
		loss := -1.0
		if cl.samples > 0 {
			loss = cl.lossSum / float64(cl.samples)
		}
		rc.emit(round, len(sel), &cl, loss, -1)

		// Pairwise averaging in float64: b's model adds into a's, the sum
		// halves, and both partners keep the average (rounded through
		// float32 on the f32 path). Pairings draw over the round's
		// survivors, so the peer graph follows the sampler; with no fault
		// plan that is the whole cohort.
		pairable := rc.order[:cl.survivors]
		for _, pair := range pairings(len(pairable), round, cfg.Topology, pairRNG) {
			a, b := active[sel[pairable[pair[0]]]], active[sel[pairable[pair[1]]]]
			accumulateWeighted(a.w, b.w, 1)
			scaleWeights(a.w, 0.5)
			if cfg.Precision == nn.F32 {
				roundToFloat32(a.w)
			}
			copyWeights(b.w, a.w)
		}
	}

	hist.Disagreement = weightDisagreement(active)
	if test != nil {
		// Each peer's model is evaluated on the global network, which
		// gossip leaves unused after the initial model.
		hist.PerClient = make([]float64, len(active))
		var evalNets []*nn.Network
		for i, c := range active {
			global.SetWeights(c.w)
			acc := evaluate(global, test, 256, cfg.Workers, &evalNets).Accuracy()
			hist.PerClient[i] = acc
			hist.MeanAccuracy += acc
			if acc > hist.BestAccuracy {
				hist.BestAccuracy = acc
			}
		}
		hist.MeanAccuracy /= float64(len(active))
	}
	return hist, nil
}

// pairings returns index pairs for the round under the chosen topology.
// With an odd client count one client sits the round out.
func pairings(n, round int, topo Topology, rng *rand.Rand) [][2]int {
	var out [][2]int
	switch topo {
	case RandomPairs:
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			out = append(out, [2]int{perm[i], perm[i+1]})
		}
	default: // Ring
		// Alternate the pairing offset so averages propagate around the
		// ring: round 0 pairs (0,1)(2,3)…, round 1 pairs (1,2)(3,4)…
		start := round % 2
		for i := start; i+1 < n; i += 2 {
			out = append(out, [2]int{i, i + 1})
		}
		if start == 1 && n%2 == 0 {
			out = append(out, [2]int{n - 1, 0}) // close the ring
		}
	}
	return out
}

// weightDisagreement reports the largest per-weight spread across client
// models (0 when fully converged to consensus).
func weightDisagreement(clients []*Client) float64 {
	if len(clients) < 2 {
		return 0
	}
	ref := clients[0].w
	worst := 0.0
	for _, c := range clients[1:] {
		for k := range ref {
			diff := ref[k].Clone()
			diff.AddScaled(-1, c.w[k])
			if m := diff.MaxAbs(); m > worst {
				worst = m
			}
		}
	}
	return worst
}
