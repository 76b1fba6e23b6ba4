package sched

import (
	"math"
	"testing"
)

// fuzzMix is a splitmix64-style hash used to derive deterministic
// per-user cost parameters from the fuzz seed, so every fuzz input maps
// to exactly one scheduling problem.
func fuzzMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fuzzRequest builds a well-formed scheduling problem from fuzzed
// parameters. Cost curves are a·n + b·√n with a, b ≥ 0, so they are
// nondecreasing in the sample count — Property 1 holds on the raw
// curves, FedLBAP's precondition and the regime where it is specified
// to be bit-identical to the dense oracle. User 0 is always uncapped so the
// request passes the total-capacity check for any fuzzed capacities.
func fuzzRequest(seed uint64, nUsers, totalShards, shardSize int) *Request {
	n := 1 + abs(nUsers)%48
	s := 1 + abs(totalShards)%200
	sz := 1 + abs(shardSize)%8
	users := make([]*User, n)
	for j := 0; j < n; j++ {
		h := fuzzMix(seed + uint64(j)*0x100000001b3)
		rate := float64(h%1000+1) / 1000
		root := float64((h>>10)%100) / 10
		comm := float64((h>>20)%500) / 100
		capShards := 0 // unlimited
		if j > 0 && h%3 == 0 {
			capShards = 1 + int((h>>32)%uint64(s))
		}
		users[j] = &User{
			Name: "u",
			Cost: func(samples int) float64 {
				return rate*float64(samples) + root*math.Sqrt(float64(samples))
			},
			CommSeconds:    comm,
			CapacityShards: capShards,
		}
	}
	return &Request{TotalShards: s, ShardSize: sz, Users: users}
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return math.MaxInt
		}
		return -v
	}
	return v
}

// FuzzFedLBAP cross-checks the O(n + s·polylog) solver against the dense
// O(ns) oracle on random monotone-cost problems: a valid assignment, the
// same shard vector and the same predicted makespan. The bracketed
// threshold search must also replay the full-range reference's probe and
// schedule events exactly; its PredictedMakespan, a max over the
// survivors only, must be Makespan's to the bit; and a trace must not
// change the assignment.
func FuzzFedLBAP(f *testing.F) {
	f.Add(uint64(1), 8, 40, 2)
	f.Add(uint64(42), 1, 1, 1)
	f.Add(uint64(7), 30, 5, 3)   // n > s: quickselect bound + pruning path
	f.Add(uint64(99), 4, 199, 1) // deep curves: bisection + exact walk
	f.Fuzz(func(t *testing.T, seed uint64, nUsers, totalShards, shardSize int) {
		req := fuzzRequest(seed, nUsers, totalShards, shardSize)
		assertSparseMatchesDense(t, req)
		assertSparseMatchesReference(t, req)
		assertTraceFree(t, req)
	})
}

// assertTraceFree solves req untraced and traced and requires the same
// assignment, with PredictedMakespan bit-equal to Makespan's.
func assertTraceFree(t *testing.T, req *Request) {
	t.Helper()
	plain, err := FedLBAP{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain.PredictedMakespan, Makespan(req, plain); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PredictedMakespan %v (%#x), Makespan %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	traced, _ := solveTraced(t, req, func(r *Request) (*Assignment, error) { return FedLBAP{}.Schedule(r, nil) })
	for j := range plain.Shards {
		if plain.Shards[j] != traced.Shards[j] {
			t.Fatalf("user %d: %d shards untraced, %d traced", j, plain.Shards[j], traced.Shards[j])
		}
	}
	if math.Float64bits(plain.PredictedMakespan) != math.Float64bits(traced.PredictedMakespan) {
		t.Fatalf("makespan %v untraced, %v traced", plain.PredictedMakespan, traced.PredictedMakespan)
	}
}
