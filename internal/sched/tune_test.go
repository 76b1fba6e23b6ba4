package sched

import (
	"math"
	"math/rand"
	"testing"
)

func TestTuneAlphaPicksTimeOptimal(t *testing.T) {
	req := nonIIDRequest(40, 0 /* overwritten */, 0)
	best, sweep, err := TuneAlpha(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(DefaultAlphaGrid()) {
		t.Fatalf("sweep has %d entries", len(sweep))
	}
	for _, r := range sweep {
		if r.Assignment.PredictedMakespan < best.Assignment.PredictedMakespan-1e-9 {
			t.Fatalf("α=%g beats the reported best", r.Alpha)
		}
	}
	// With β=0 time rises with α, so the best should sit at the low end.
	if best.Alpha != 100 {
		t.Fatalf("best α = %g, expected 100 for a time objective with β=0", best.Alpha)
	}
	// The caller's request must be untouched.
	if req.Alpha != 0 {
		t.Fatalf("TuneAlpha mutated the request: α=%v", req.Alpha)
	}
}

func TestTuneAlphaCustomObjective(t *testing.T) {
	req := nonIIDRequest(40, 0, 0)
	// Objective: maximize participants (minimize the negation).
	best, _, err := TuneAlpha(req, []float64{100, 5000}, func(a *Assignment) float64 {
		return -float64(a.Participants())
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Alpha != 100 {
		t.Fatalf("participation objective should favour small α, got %g", best.Alpha)
	}
}

func TestTuneAlphaErrorPropagates(t *testing.T) {
	req := nonIIDRequest(10, 0, 0)
	req.K = 0 // Fed-MinAvg requires K
	if _, _, err := TuneAlpha(req, nil, nil); err == nil {
		t.Fatal("expected error from invalid request")
	}
}

func TestRandomClassSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := RandomClassSets(20, 10, 6, rng)
	if len(sets) != 20 {
		t.Fatalf("%d sets", len(sets))
	}
	for _, s := range sets {
		if len(s) < 1 || len(s) > 6 {
			t.Fatalf("set size %d out of [1,6]", len(s))
		}
		seen := map[int]bool{}
		for _, c := range s {
			if c < 0 || c >= 10 || seen[c] {
				t.Fatalf("bad class set %v", s)
			}
			seen[c] = true
		}
	}
	// maxClasses out of range falls back to k.
	sets = RandomClassSets(5, 4, 99, rng)
	for _, s := range sets {
		if len(s) > 4 {
			t.Fatalf("set larger than k: %v", s)
		}
	}
}

// A Fed-MinAvg assignment under capacities is a fragmentable packing of
// the dataset into user bins: Validate checks the packing (every shard
// placed once, no bin over capacity), and the capped users are asserted
// explicitly so a Validate regression cannot hide an overfull bin.
func TestFedMinAvgFormsValidPacking(t *testing.T) {
	req := nonIIDRequest(30, 200, 2)
	caps := []int{12, 15, 20}
	for j, c := range caps {
		req.Users[j].CapacityShards = c
	}
	asg, err := FedMinAvg{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, asg); err != nil {
		t.Fatalf("Fed-MinAvg assignment is not a valid packing: %v", err)
	}
	for j, c := range caps {
		if asg.Shards[j] > c {
			t.Fatalf("user %d holds %d shards, capacity %d", j, asg.Shards[j], c)
		}
	}
}

func TestTuneAlphaSweepMonotoneTimeWithBetaZero(t *testing.T) {
	// Fig 6 top panels: with β=0, predicted makespan is non-decreasing in
	// α (more accuracy weight → less parallelism).
	req := nonIIDRequest(60, 0, 0)
	_, sweep, err := TuneAlpha(req, []float64{100, 500, 2000, 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := -math.MaxFloat64
	for _, r := range sweep {
		if r.Assignment.PredictedMakespan < prev-1e-9 {
			t.Fatalf("makespan decreased at α=%g", r.Alpha)
		}
		prev = r.Assignment.PredictedMakespan
	}
}
