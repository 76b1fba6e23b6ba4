package sched

import (
	"fmt"
	"math"
	"slices"
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

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return math.MaxInt
		}
		return -v
	}
	return v
}

// FuzzFedLBAP runs conform — every check of the conformance table that
// the request's size admits — on hashed-jitter requests of 1–48 users and
// 1–200 shards of 1–8 samples: concave nondecreasing curves, caps and
// class sets, so every oracle runs on every input.
func FuzzFedLBAP(f *testing.F) {
	f.Add(uint64(1), 8, 40, 2)
	f.Add(uint64(42), 1, 1, 1)
	f.Add(uint64(7), 30, 5, 3)   // n > s: selected bound + pruning path
	f.Add(uint64(99), 4, 199, 1) // deep curves: bisection + exact walk
	f.Fuzz(func(t *testing.T, seed uint64, nUsers, totalShards, shardSize int) {
		conform(t, jitterRequest(seed, 1+abs(nUsers)%48, 1+abs(totalShards)%200, 1+abs(shardSize)%8))
	})
}

// fuzzMinAvgRequest builds a well-formed non-IID problem: 1–8 users,
// 1–200 shards of 1–8 samples, K in 2–10 test classes, each user's
// classes a bitmask over them (possibly empty), affine nondecreasing
// costs a·n + b, comm times, capacities, α in [0, 5000] and β in [0, 5].
// User 0 holds a class and is uncapped, so every request is solvable.
func fuzzMinAvgRequest(seed uint64, nUsers, totalShards, k, alpha, beta int) *Request {
	n := 1 + abs(nUsers)%8
	s := 1 + abs(totalShards)%200
	req := &Request{
		TotalShards: s,
		ShardSize:   1 + int(fuzzMix(seed)%8),
		K:           2 + abs(k)%9,
		Alpha:       float64(abs(alpha)%500001) / 100,
		Beta:        float64(abs(beta)%501) / 100,
		Users:       make([]*User, n),
	}
	for j := range req.Users {
		h := fuzzMix(seed + uint64(j+1)*0x100000001b3)
		mask := h % (1 << req.K)
		if j == 0 && mask == 0 {
			mask = 1
		}
		var classes []int
		for c := 0; c < req.K; c++ {
			if mask&(1<<c) != 0 {
				classes = append(classes, c)
			}
		}
		rate := float64((h>>10)%1000) / 1000
		fixed := float64((h>>20)%500) / 100
		capShards := 0 // unlimited
		if j > 0 && (h>>30)%3 == 0 {
			capShards = 1 + int((h>>32)%uint64(s))
		}
		req.Users[j] = &User{
			Name:           "u",
			Cost:           func(samples int) float64 { return rate*float64(samples) + fixed },
			CommSeconds:    float64((h>>40)%300) / 100,
			CapacityShards: capShards,
			Classes:        classes,
		}
	}
	return req
}

// FuzzFedMinAvg holds Algorithm 2 to Algorithm 1's standard: on random
// non-IID problems FedMinAvg places every shard, within every capacity
// and never on a classless user, its shards and PredictedAvgCost are
// bit-equal to referenceMinAvg's, and with α = β = 0 it is the plain
// greedy that gives each shard to the user whose time — comm included
// on opening — grows least. With comm zeroed and β = 0 it is OLAR on
// shifted costs (minAvgIsOLAR), whatever α.
func FuzzFedMinAvg(f *testing.F) {
	f.Add(uint64(1), 4, 40, 4, 100000, 200)
	f.Add(uint64(7), 8, 200, 10, 500000, 500)
	f.Add(uint64(42), 1, 1, 2, 0, 0)
	f.Add(uint64(99), 6, 120, 6, 0, 0)
	f.Add(uint64(3), 5, 75, 8, 2500, 150)
	f.Fuzz(func(t *testing.T, seed uint64, nUsers, totalShards, k, alpha, beta int) {
		req := fuzzMinAvgRequest(seed, nUsers, totalShards, k, alpha, beta)
		asg, err := FedMinAvg{}.Schedule(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for j, u := range req.Users {
			got := asg.Shards[j]
			sum += got
			if got > u.capacity(req.TotalShards) {
				t.Fatalf("user %d: %d shards over capacity %d", j, got, u.CapacityShards)
			}
			if len(u.Classes) == 0 && got != 0 {
				t.Fatalf("classless user %d got %d shards", j, got)
			}
		}
		if sum != req.TotalShards {
			t.Fatalf("shards sum to %d, want %d", sum, req.TotalShards)
		}
		want, wantAvg := referenceMinAvg(req)
		if !slices.Equal(asg.Shards, want) {
			t.Fatalf("shards %v, reference %v", asg.Shards, want)
		}
		if math.Float64bits(asg.PredictedAvgCost) != math.Float64bits(wantAvg) {
			t.Fatalf("PredictedAvgCost %v, reference %v", asg.PredictedAvgCost, wantAvg)
		}
		if req.Alpha == 0 && req.Beta == 0 {
			if greedy := minTimeGreedy(req); !slices.Equal(asg.Shards, greedy) {
				t.Fatalf("α = β = 0: shards %v, min-time greedy %v", asg.Shards, greedy)
			}
		}
		minAvgIsOLAR(t, req)
	})
}

// minTimeGreedy gives each shard in turn to the user whose time grows
// least — T_j((l_j+1)·d), plus comm on its first shard — among users
// with classes and spare capacity, lowest index on ties.
func minTimeGreedy(req *Request) []int {
	s, d := req.TotalShards, req.ShardSize
	shards := make([]int, len(req.Users))
	for range s {
		best, bestCost := -1, math.Inf(1)
		for j, u := range req.Users {
			if len(u.Classes) == 0 || shards[j] >= u.capacity(s) {
				continue
			}
			cost := u.Cost((shards[j] + 1) * d)
			if shards[j] == 0 {
				cost += u.CommSeconds
			}
			if cost < bestCost {
				best, bestCost = j, cost
			}
		}
		shards[best]++
	}
	return shards
}

// FuzzKthSmallest holds prune's sampled-pivot selection of FedLBAP's
// cost ceiling to a sorted copy at lengths FuzzFedLBAP's instances never
// reach: fuzzed length, k and value order — hashed, few distinct values,
// ascending, descending, and the sampled positions filled from either far
// end, so the chunks outgrow their spans or the pivot misses and the pass
// runs again.
func FuzzKthSmallest(f *testing.F) {
	f.Add(uint64(1), 5000, 50, uint8(0))
	f.Add(uint64(2), 1025, 1023, uint8(1))
	f.Add(uint64(3), 9000, 30, uint8(4))
	f.Add(uint64(4), 9000, 8990, uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, length, k int, order uint8) {
		n := 1 + abs(length)%20_000
		k = abs(k) % n
		m := min(n, selectSample)
		sampled := make([]bool, n)
		for i := range m {
			sampled[i*n/m] = true
		}
		a := make([]float64, n)
		for i := range a {
			h := fuzzMix(seed + uint64(i))
			switch order % 6 {
			case 0:
				a[i] = float64(h>>11) / (1 << 53)
			case 1:
				a[i] = float64(h % 4)
			case 2:
				a[i] = float64(i)
			case 3:
				a[i] = float64(n - i)
			case 4, 5:
				a[i] = float64(h % 1000)
				if sampled[i] == (order%6 == 4) {
					a[i] += 1000
				}
			}
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		pruneOver(t, fmt.Sprintf("n=%d", n), a, k, sorted[k])
	})
}
