package sched

import (
	"fmt"
	"math/rand"
	"sort"
)

// Proportional assigns shards proportional to each device's mean maximum
// CPU frequency per core — the paper's heuristic benchmark for "processing
// power".
type Proportional struct{}

// Name implements Scheduler.
func (Proportional) Name() string { return "Prop." }

// Schedule implements Scheduler (rng unused; deterministic).
func (Proportional) Schedule(req *Request, _ *rand.Rand) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	weights := make([]float64, len(req.Users))
	sum := 0.0
	for j, u := range req.Users {
		w := u.MeanFreqGHz
		if w <= 0 {
			w = 1 // unknown frequency: treat as unit weight
		}
		weights[j] = w
		sum += w
	}
	return weightedSplit(req, weights, sum, "Prop.")
}

// Random draws uniformly random partition weights each round — the paper's
// randomized benchmark.
type Random struct{}

// Name implements Scheduler.
func (Random) Name() string { return "Random" }

// Schedule implements Scheduler.
func (Random) Schedule(req *Request, rng *rand.Rand) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("sched: Random requires an rng")
	}
	weights := make([]float64, len(req.Users))
	sum := 0.0
	for j := range weights {
		// Float64 ends in a multiply (by 2⁻⁵³): converted so the sum
		// cannot fuse with it (`make nofma`).
		weights[j] = float64(rng.Float64())
		sum += weights[j]
	}
	return weightedSplit(req, weights, sum, "Random")
}

// Equal assigns equal shares to every user — the FedAvg default.
type Equal struct{}

// Name implements Scheduler.
func (Equal) Name() string { return "Equal" }

// Schedule implements Scheduler (rng unused; deterministic).
func (Equal) Schedule(req *Request, _ *rand.Rand) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	weights := make([]float64, len(req.Users))
	for j := range weights {
		weights[j] = 1
	}
	return weightedSplit(req, weights, float64(len(weights)), "Equal")
}

// weightedSplit rounds a fractional weighted partition to integer shards
// summing to TotalShards, then pushes any capacity overflow to the users
// with spare room (largest fractional remainder first).
func weightedSplit(req *Request, weights []float64, sum float64, algo string) (*Assignment, error) {
	n, s := len(req.Users), req.TotalShards
	shards := make([]int, n)
	frac := make([]float64, n)
	assigned := 0
	for j := range shards {
		exact := float64(weights[j] / sum * float64(s))
		shards[j] = int(exact)
		frac[j] = exact - float64(shards[j])
		if cap := req.Users[j].capacity(s); shards[j] > cap {
			shards[j] = cap
			frac[j] = -1 // full: lowest priority for extras
		}
		assigned += shards[j]
	}
	// Distribute the remainder by largest fractional part among users with
	// spare capacity.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for i := 0; assigned < s; i = (i + 1) % n {
		j := order[i]
		if shards[j] < req.Users[j].capacity(s) {
			shards[j]++
			assigned++
		}
	}
	asg := &Assignment{Shards: shards, Algorithm: algo}
	asg.PredictedMakespan = Makespan(req, asg)
	emitSchedule(req, asg)
	return asg, nil
}
