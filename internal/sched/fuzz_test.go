package sched

import (
	"math"
	"math/rand"
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
// curves, the regime where SparseFedLBAP is specified to be
// bit-identical to the dense solver. User 0 is always uncapped so the
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

// FuzzSparseFedLBAP cross-checks the O(n + s·polylog) sparse solver
// against the dense O(ns) solver on random monotone-cost problems: both
// must produce a valid assignment, the same shard vector, and the same
// predicted makespan. The bracketed threshold search must also replay the
// full-range reference's probe and schedule events exactly.
func FuzzSparseFedLBAP(f *testing.F) {
	f.Add(uint64(1), 8, 40, 2)
	f.Add(uint64(42), 1, 1, 1)
	f.Add(uint64(7), 30, 5, 3)   // n > s: quickselect bound + pruning path
	f.Add(uint64(99), 4, 199, 1) // deep curves: bisection + exact walk
	f.Fuzz(func(t *testing.T, seed uint64, nUsers, totalShards, shardSize int) {
		req := fuzzRequest(seed, nUsers, totalShards, shardSize)
		rng := rand.New(rand.NewSource(1)) // unused by both solvers; passed for interface shape
		dense, err := (FedLBAP{}).Schedule(req, rng)
		if err != nil {
			t.Fatalf("dense solver rejected a well-formed request: %v", err)
		}
		sparse, err := (SparseFedLBAP{}).Schedule(req, rng)
		if err != nil {
			t.Fatalf("sparse solver rejected a well-formed request: %v", err)
		}
		if err := Validate(req, dense); err != nil {
			t.Fatalf("dense assignment invalid: %v", err)
		}
		if err := Validate(req, sparse); err != nil {
			t.Fatalf("sparse assignment invalid: %v", err)
		}
		if len(dense.Shards) != len(sparse.Shards) {
			t.Fatalf("shard vectors differ in length: dense %d, sparse %d", len(dense.Shards), len(sparse.Shards))
		}
		for j := range dense.Shards {
			if dense.Shards[j] != sparse.Shards[j] {
				t.Fatalf("shard vectors diverge at user %d: dense %v, sparse %v", j, dense.Shards, sparse.Shards)
			}
		}
		if dense.PredictedMakespan != sparse.PredictedMakespan { //fedlint:allow floateq — the sparse solver's contract is bit-identical output
			t.Fatalf("makespans diverge: dense %v, sparse %v", dense.PredictedMakespan, sparse.PredictedMakespan)
		}
		assertSparseMatchesReference(t, req)
	})
}
