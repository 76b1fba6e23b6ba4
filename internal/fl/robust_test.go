package fl

import (
	"math"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/nn"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

func TestDivergedClientRejected(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 101), 400, 150)
	part := data.IIDEqual(train, 2, newTestRand())
	clients := partitionClients(t, train, part, false)
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
	if hasNonFinite(hist.Model.Weights()) {
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
		clients := partitionClients(t, train, part, false)
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
	if hasNonFinite(net.Weights()) {
		t.Fatal("fresh network flagged")
	}
	net.Params()[0].W.Data()[0] = math.Inf(-1)
	if !hasNonFinite(net.Weights()) {
		t.Fatal("Inf weight missed")
	}
}

// hasNonFinite reports whether any of the float64 weights ws — a
// network's, or a client's — is NaN or ±Inf (the engines check a trained
// update through Trainer.HasNonFinite).
func hasNonFinite(ws []*tensor.Tensor) bool {
	for _, w := range ws {
		for _, v := range w.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// TestNonFiniteUpdateRejected: every training engine rejects an update
// with non-finite weights. Client 1's shard holds one NaN pixel, so its
// first local epoch turns its weights to NaN; the other client's model —
// the global model, or the gossip peer's — must stay finite. Run marks
// the update Diverged, gossip leaves the member unpaired, and async
// neither merges it nor advances the version, tracing a client_round
// event flagged diverged instead of a merge.
func TestNonFiniteUpdateRejected(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 103), 300, 100)
	poisoned := func() []*Client {
		clients := asyncClients(t, train, 2, true)
		clients[1].Local.X.Data()[0] = math.NaN()
		return clients
	}
	diverged := func(t *testing.T, rec *trace.Recorder) {
		t.Helper()
		n := 0
		for _, e := range rec.Events() {
			switch {
			case e.Kind == trace.KindMerge && e.Client == 1:
				t.Fatalf("the non-finite update merged: %+v", e)
			case e.Kind == trace.KindClientRound && e.Client == 1 && e.Flag == trace.ClientDiverged:
				n++
			}
		}
		if n == 0 {
			t.Fatal("no rejected update traced")
		}
	}

	t.Run("run", func(t *testing.T) {
		clients, rec := poisoned(), trace.New(0)
		cfg := smallConfig(3)
		cfg.Trace = rec
		hist, err := Run(cfg, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		diverged(t, rec)
		if hasNonFinite(hist.Model.Weights()) {
			t.Fatal("global model corrupted by the non-finite update")
		}
	})
	t.Run("gossip", func(t *testing.T) {
		clients, rec := poisoned(), trace.New(0)
		cfg := GossipConfig{Config: smallConfig(3)}
		cfg.Trace = rec
		if _, err := RunGossip(cfg, clients, test); err != nil {
			t.Fatal(err)
		}
		diverged(t, rec)
		if !hasNonFinite(clients[1].w) {
			t.Fatal("fixture: the poisoned member never diverged")
		}
		if hasNonFinite(clients[0].w) {
			t.Fatal("the peer paired with the non-finite model")
		}
	})
	t.Run("async", func(t *testing.T) {
		clients, rec := poisoned(), trace.New(0)
		cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 6, MixRate: 0.5}
		cfg.Trace = rec
		hist, err := RunAsync(cfg, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		diverged(t, rec)
		if hist.Updates != 6 || hist.UpdatesPerClient[1] != 0 {
			t.Fatalf("updates %d, per client %v: want 6, all from client 0", hist.Updates, hist.UpdatesPerClient)
		}
		// Client 0 trains from the global model it pulls every cycle.
		if hasNonFinite(clients[0].w) || math.IsNaN(hist.FinalAccuracy) || hist.FinalAccuracy < 0.3 {
			t.Fatalf("global model corrupted: client 0 non-finite %v, accuracy %v", hasNonFinite(clients[0].w), hist.FinalAccuracy)
		}
	})
}
