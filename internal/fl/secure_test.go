package fl

import (
	"math"
	"math/rand"
	"testing"

	"fedsched/internal/data"
)

func TestSecureAggMatchesPlaintext(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 55), 600, 200)
	run := func(secure bool) *History {
		part := data.IIDEqual(train, 3, rand.New(rand.NewSource(1)))
		clients := partitionClients(t, train, part, false)
		cfg := smallConfig(3)
		cfg.SecureAgg = secure
		hist, err := Run(cfg, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	plain := run(false)
	secure := run(true)
	// The protocols differ only by fixed-point quantization (~2⁻²⁴ per
	// weight per round), far below what can move test accuracy.
	if math.Abs(plain.FinalAccuracy-secure.FinalAccuracy) > 0.02 {
		t.Fatalf("secure aggregation diverged: plain %.4f vs secure %.4f",
			plain.FinalAccuracy, secure.FinalAccuracy)
	}
	for r := range plain.Rounds {
		if math.Abs(plain.Rounds[r].TrainLoss-secure.Rounds[r].TrainLoss) > 0.05 {
			t.Fatalf("round %d loss diverged: %.4f vs %.4f",
				r, plain.Rounds[r].TrainLoss, secure.Rounds[r].TrainLoss)
		}
	}
}

func TestSecureAggSingleParticipant(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 56), 200, 100)
	part := data.IIDEqual(train, 1, rand.New(rand.NewSource(1)))
	clients := partitionClients(t, train, part, false)
	cfg := smallConfig(2)
	cfg.SecureAgg = true
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalAccuracy <= 0.2 {
		t.Fatalf("single-participant secure run accuracy %.3f", hist.FinalAccuracy)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 57), 50, 10)
	_ = train
	cfg := smallConfig(1)
	rng := rand.New(rand.NewSource(9))
	net := cfg.Arch.Build(rng)
	ws := net.GetWeights()
	flat := flattenWeights(ws, 2.0, nil)
	back := net.GetWeights()
	unflattenInto(back, flat, 0.5)
	for i := range ws {
		for k, v := range ws[i].Data() {
			if math.Abs(back[i].Data()[k]-v) > 1e-12 {
				t.Fatalf("tensor %d index %d: %v vs %v", i, k, back[i].Data()[k], v)
			}
		}
	}
	// Reusing the scratch buffer must not reallocate.
	flat2 := flattenWeights(ws, 1, flat)
	if &flat2[0] != &flat[0] {
		t.Fatal("scratch buffer not reused")
	}
}
