package fl

import (
	"math"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/nn"
)

func TestDivergedClientRejected(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 101), 400, 150)
	part := data.IIDEqual(train, 2, newTestRand())
	clients := clientsFromPartition(t, train, part)
	// Poison client 1's local data so its gradients explode immediately.
	poison := clients[1].Local.X.Data()
	for i := range poison {
		poison[i] = 1e154 // squares to +Inf in the loss
	}
	cfg := smallConfig(3)
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	sawDiverged := false
	for _, r := range hist.Rounds {
		for _, cr := range r.Clients {
			if cr.ClientID == 1 && cr.Diverged {
				sawDiverged = true
			}
		}
	}
	if !sawDiverged {
		t.Fatal("poisoned client never flagged as diverged")
	}
	// The global model survives: finite weights and real accuracy from the
	// healthy client's data alone.
	if hasNonFinite(hist.Model) {
		t.Fatal("global model corrupted by diverged update")
	}
	if hist.FinalAccuracy < 0.5 || math.IsNaN(hist.FinalAccuracy) {
		t.Fatalf("accuracy %.3f — healthy client should still train the model", hist.FinalAccuracy)
	}
}

func TestLRScheduleApplied(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 102), 400, 150)
	run := func(sched nn.LRSchedule) float64 {
		part := data.IIDEqual(train, 2, newTestRand())
		clients := clientsFromPartition(t, train, part)
		cfg := smallConfig(4)
		cfg.LRSchedule = sched
		hist, err := Run(cfg, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return hist.FinalAccuracy
	}
	// A zero-LR schedule must freeze learning at the initial (chance)
	// accuracy, proving the schedule actually drives the optimizer.
	frozen := run(func(int) float64 { return 0 })
	if frozen > 0.3 {
		t.Fatalf("zero-LR run reached %.3f — schedule not applied", frozen)
	}
	trained := run(nn.StepDecayLR(0.02, 0.5, 2))
	if trained < 0.6 {
		t.Fatalf("decaying-LR run only reached %.3f", trained)
	}
}

func TestHasNonFinite(t *testing.T) {
	net := nn.MLP(4, 3, 2).Build(newTestRand())
	if hasNonFinite(net) {
		t.Fatal("fresh network flagged")
	}
	net.Params()[0].W.Data()[0] = math.Inf(-1)
	if !hasNonFinite(net) {
		t.Fatal("Inf weight missed")
	}
}

// hasNonFinite reports whether any weight of the float64 network is NaN or
// ±Inf (clients check their own models through Trainer.HasNonFinite).
func hasNonFinite(net *nn.Network) bool {
	for _, p := range net.Params() {
		for _, v := range p.W.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}
