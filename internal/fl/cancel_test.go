package fl

import (
	"errors"
	"math/rand"
	"testing"

	"fedsched/internal/data"
)

// countingCancel returns a Cancel callback that reports true from the
// stopAfter-th poll on, plus a pointer to the poll count.
func countingCancel(stopAfter int) (func() bool, *int) {
	polls := 0
	return func() bool {
		polls++
		return polls > stopAfter
	}, &polls
}

func TestRunCancelledReturnsPartialHistory(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 5), 300, 100)
	part := data.IIDEqual(train, 3, rand.New(rand.NewSource(2)))
	clients := partitionClients(t, train, part, false)

	cfg := smallConfig(6)
	// The poll runs once before each round: allowing two polls stops the
	// run before round 2.
	cfg.Cancel, _ = countingCancel(2)
	hist, err := Run(cfg, clients, test)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if hist == nil || len(hist.Rounds) != 2 {
		t.Fatalf("want 2 completed rounds in the partial history, got %+v", hist)
	}
	if hist.Model == nil {
		t.Fatal("partial history is missing the global model")
	}
}

func TestRunCancelledMatchesUninterruptedPrefix(t *testing.T) {
	mk := func(cancelAfter int) *History {
		train, _ := data.TrainTest(data.SMNISTConfig(0, 11), 300, 100)
		part := data.IIDEqual(train, 3, rand.New(rand.NewSource(2)))
		clients := partitionClients(t, train, part, false)
		cfg := smallConfig(4)
		cfg.EvalEvery = 1
		if cancelAfter > 0 {
			cfg.Cancel, _ = countingCancel(cancelAfter)
		}
		hist, err := Run(cfg, clients, nil)
		if cancelAfter > 0 && !errors.Is(err, ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		if cancelAfter == 0 && err != nil {
			t.Fatal(err)
		}
		return hist
	}
	full := mk(0)
	part := mk(2)
	if len(part.Rounds) != 2 {
		t.Fatalf("partial run recorded %d rounds, want 2", len(part.Rounds))
	}
	for i, r := range part.Rounds {
		if r.TrainLoss != full.Rounds[i].TrainLoss || r.Makespan != full.Rounds[i].Makespan {
			t.Fatalf("round %d of the cancelled run diverges from the uninterrupted prefix: %+v vs %+v",
				i, r, full.Rounds[i])
		}
	}
}

func TestGossipCancelled(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 5), 240, 0)
	part := data.IIDEqual(train, 4, rand.New(rand.NewSource(3)))
	clients := partitionClients(t, train, part, false)

	cfg := GossipConfig{Config: smallConfig(5)}
	cfg.Cancel, _ = countingCancel(2)
	hist, err := RunGossip(cfg, clients, nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if hist == nil || hist.Rounds != 2 {
		t.Fatalf("want 2 completed gossip rounds, got %+v", hist)
	}
}

func TestAsyncCancelled(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 5), 240, 0)
	part := data.IIDEqual(train, 3, rand.New(rand.NewSource(4)))
	clients := partitionClients(t, train, part, false)

	cfg := AsyncConfig{Config: smallConfig(1), MaxUpdates: 50}
	// done() is polled at every virtual event on the loop goroutine, so a
	// poll-count trigger is deterministic: the latch flips long before the
	// 50-merge budget.
	cfg.Cancel, _ = countingCancel(10)
	hist, err := RunAsync(cfg, clients, nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if hist == nil || hist.Updates >= 50 {
		t.Fatalf("want the run stopped short of MaxUpdates, got %+v", hist)
	}
}
