package privacy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fedsched/internal/sched"
)

func TestNewReporterValidation(t *testing.T) {
	if _, err := NewReporter(0, 10); err == nil {
		t.Fatal("epsilon 0 must fail")
	}
	if _, err := NewReporter(-1, 10); err == nil {
		t.Fatal("negative epsilon must fail")
	}
	if _, err := NewReporter(1, 0); err == nil {
		t.Fatal("zero classes must fail")
	}
}

func TestHighEpsilonNearTruthful(t *testing.T) {
	r, err := NewReporter(10, 10) // e^10/(1+e^10) ≈ 0.99995
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	classes := []int{1, 4, 7}
	report := r.Randomize(classes, rng)
	want := map[int]bool{1: true, 4: true, 7: true}
	for c, b := range report {
		if b != want[c] {
			t.Fatalf("bit %d flipped at epsilon 10 (p_flip=%.2e)", c, r.FlipProbability())
		}
	}
	if set := r.EstimateSet(report); len(set) != 3 {
		t.Fatalf("estimated set %v", set)
	}
}

func TestFlipProbabilityMonotone(t *testing.T) {
	prev := 1.0
	for _, eps := range []float64{0.1, 0.5, 1, 2, 5} {
		r, _ := NewReporter(eps, 10)
		p := r.FlipProbability()
		if p >= prev {
			t.Fatalf("flip probability not decreasing in epsilon: %v at %v", p, eps)
		}
		if p <= 0 || p >= 0.5 {
			t.Fatalf("flip probability out of (0, 0.5): %v", p)
		}
		prev = p
	}
}

func TestRandomizeIgnoresOutOfRangeClasses(t *testing.T) {
	r, _ := NewReporter(5, 4)
	rng := rand.New(rand.NewSource(3))
	report := r.Randomize([]int{-1, 2, 99}, rng)
	if len(report) != 4 {
		t.Fatalf("report length %d", len(report))
	}
}

func TestPrivatizedSchedulingStillValid(t *testing.T) {
	// End-to-end: Fed-MinAvg fed privatized class sets must still produce
	// valid assignments for any epsilon.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := 0.5 + rng.Float64()*4
		r, err := NewReporter(eps, 10)
		if err != nil {
			return false
		}
		users := make([]*sched.User, 4)
		for j := range users {
			slope := 0.01 + rng.Float64()*0.05
			truth := rng.Perm(10)[:1+rng.Intn(5)]
			users[j] = &sched.User{
				Name:    "u",
				Cost:    func(n int) float64 { return slope * float64(n) },
				Classes: r.EstimateSet(r.Randomize(truth, rng)),
			}
		}
		req := &sched.Request{TotalShards: 30, ShardSize: 100, Users: users, K: 10, Alpha: 500, Beta: 2}
		asg, err := sched.FedMinAvg{}.Schedule(req, nil)
		if err != nil {
			// Legitimate only if randomization erased every class set.
			for _, u := range users {
				if len(u.Classes) > 0 {
					return false
				}
			}
			return true
		}
		return sched.Validate(req, asg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
