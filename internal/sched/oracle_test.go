package sched

import (
	"math"
	"sort"

	"fedsched/internal/trace"
)

// Three oracles for FedLBAP, from most to least like it: referenceSparse
// pins the event stream, denseFedLBAP the assignment bits, bruteForce the
// optimality claim.

// referenceSparse is the implicit-matrix solver without the per-survivor
// brackets: every threshold probe re-runs a full-range binary search per
// survivor (kmaxAt over [0, cap_j]). It is the oracle FedLBAP.Schedule
// must match event for event — same probe sequence, same feasible
// counts, same assignment — and the yardstick for its cost-evaluation
// budget.
func referenceSparse(req *Request) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	n, s := len(req.Users), req.TotalShards

	// ec is the matrix value C[j][k], floored at 0.
	ec := func(j, k int) float64 {
		c := userCost(req, j, k)
		if c < 0 {
			c = 0
		}
		return c
	}

	caps := make([]int, n)
	first := make([]float64, n)
	for j := range req.Users {
		caps[j] = req.Users[j].capacity(s)
		first[j] = ec(j, 1)
	}

	// Feasible upper bound c_hi on the optimal threshold.
	var chi float64
	if n > s {
		// s users can each take one shard at the s-th smallest first-shard
		// cost, so g(c_hi) ≥ s. Quickselect permutes, so work on a copy.
		scratch := make([]float64, n)
		copy(scratch, first)
		chi = selectKth(scratch, s-1)
	} else {
		// Full capacities are feasible by req.check(): Σ cap_j ≥ s.
		for j := range caps {
			if c := ec(j, caps[j]); c > chi {
				chi = c
			}
		}
	}

	// Prune: a user with first-shard cost above c_hi (beyond float slack)
	// holds zero shards at every threshold ≤ c_hi, in particular at c*,
	// and none of its matrix values can be c* (they all exceed c_hi ≥ c*).
	surv := make([]int, n)
	m := 0
	for j := range first {
		if almostLE(first[j], chi) {
			surv[m] = j
			m++
		}
	}
	surv = surv[:m]

	// kmaxAt = max{k ≤ cap_j : C[j][k] ≤ c}, by binary search on the
	// implicit nondecreasing curve. Never evaluates k = 0.
	kmaxAt := func(j int, c float64) int {
		lo, hi := 0, caps[j]
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if almostLE(ec(j, mid), c) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	// feasibleAt = g(c) over the survivors, early-capped at s.
	feasibleAt := func(c float64) int {
		total := 0
		for _, j := range surv {
			total += kmaxAt(j, c)
			if total >= s {
				return total
			}
		}
		return total
	}

	// Real-valued bisection: shrink (lov, hiv] keeping g(lov) < s and
	// g(hiv) ≥ s, one KindSolver event per probe. ~60 iterations reach
	// float resolution; the break fires when the midpoint stops making
	// progress.
	lov, hiv := -1.0, chi
	iter := 0
	for i := 0; i < 64; i++ {
		mid := lov + (hiv-lov)/2
		if mid <= lov || mid >= hiv {
			break
		}
		feasible := feasibleAt(mid)
		flag := 0
		if feasible >= s {
			flag = 1
			hiv = mid
		} else {
			lov = mid
		}
		req.Trace.Emit(trace.Event{
			Kind: trace.KindSolver, Round: iter, Client: -1,
			Samples: feasible, Flag: flag, MakespanS: mid,
		})
		iter++
	}

	// Exact walk: advance lov through actual matrix values until g first
	// reaches s. Every matrix value ≤ lov has g < s (g is monotone), so
	// the first candidate with g ≥ s is exactly c* = min{v in the matrix :
	// g(v) ≥ s}. Monotone inputs only: no progress guard.
	nextValue := func(j int, v float64) (float64, bool) {
		if !(ec(j, caps[j]) > v) {
			return 0, false
		}
		lo, hi := 1, caps[j]
		for lo < hi {
			mid := (lo + hi) / 2
			if ec(j, mid) > v {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return ec(j, lo), true
	}
	var cstar float64
	for {
		cand := math.Inf(1)
		for _, j := range surv {
			if v, ok := nextValue(j, lov); ok && v < cand {
				cand = v
			}
		}
		feasible := feasibleAt(cand)
		flag := 0
		if feasible >= s {
			flag = 1
		}
		req.Trace.Emit(trace.Event{
			Kind: trace.KindSolver, Round: iter, Client: -1,
			Samples: feasible, Flag: flag, MakespanS: cand,
		})
		iter++
		if feasible >= s {
			cstar = cand
			break
		}
		lov = cand
	}

	// Hand out feasible maxima under c*; non-survivors stay at zero.
	shards := make([]int, n)
	total := 0
	for _, j := range surv {
		k := kmaxAt(j, cstar)
		shards[j] = k
		total += k
	}

	// Trim the overshoot: repeatedly decrement the user whose current
	// marginal cost C[j][k_j] is largest, smallest j on ties, as a
	// replace-top max-heap. One entry per user with k_j > 0.
	if total > s {
		heapBuf := make([]trimEntry, m)
		hn := 0
		for _, j := range surv {
			if shards[j] > 0 {
				heapBuf[hn] = trimEntry{c: ec(j, shards[j]), j: int32(j)}
				hn++
			}
		}
		for i := hn/2 - 1; i >= 0; i-- {
			siftDown(heapBuf, i, hn)
		}
		for total > s {
			j := int(heapBuf[0].j)
			shards[j]--
			total--
			if shards[j] > 0 {
				heapBuf[0] = trimEntry{c: ec(j, shards[j]), j: int32(j)}
			} else {
				hn--
				heapBuf[0] = heapBuf[hn]
			}
			siftDown(heapBuf, 0, hn)
		}
	}

	asg := &Assignment{Shards: shards, Algorithm: "Fed-LBAP"}
	asg.PredictedMakespan = Makespan(req, asg)
	emitSchedule(req, asg)
	return asg, nil
}

// denseFedLBAP is Algorithm 1 as the paper writes it: materialise the
// n×s cost matrix, sort its values and binary-search the smallest
// threshold c* with Σ_j max{k : C[j][k] ≤ c*} ≥ s, hand each user its
// feasible maximum under c*, then trim the overshoot from the most
// expensive marginal shards (first maximum in user order). O(ns log ns)
// time and O(ns) memory; FedLBAP must return the same Shards and
// PredictedMakespan to the bit on every nondecreasing cost curve.
func denseFedLBAP(req *Request) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	n, s := len(req.Users), req.TotalShards

	// Row j holds C[j][k] for k = 1..cap_j, floored at 0.
	rows := make([][]float64, n)
	var values []float64
	for j, u := range req.Users {
		row := make([]float64, u.capacity(s))
		for k := range row {
			row[k] = math.Max(userCost(req, j, k+1), 0)
		}
		rows[j] = row
		values = append(values, row...)
	}
	sort.Float64s(values)

	// kmax = max{k : C[j][k] ≤ c} on one row.
	kmax := func(row []float64, c float64) int {
		return sort.Search(len(row), func(i int) bool { return !almostLE(row[i], c) })
	}
	// The smallest feasible threshold among the sorted values.
	cstar := values[sort.Search(len(values), func(i int) bool {
		total := 0
		for _, row := range rows {
			total += kmax(row, values[i])
		}
		return total >= s
	})]

	shards := make([]int, n)
	total := 0
	for j, row := range rows {
		shards[j] = kmax(row, cstar)
		total += shards[j]
	}
	for ; total > s; total-- {
		best, bestC := -1, -1.0
		for j, k := range shards {
			if k > 0 && rows[j][k-1] > bestC {
				best, bestC = j, rows[j][k-1]
			}
		}
		shards[best]--
	}

	asg := &Assignment{Shards: shards, Algorithm: "dense"}
	asg.PredictedMakespan = Makespan(req, asg)
	return asg, nil
}

// bruteForce computes the exact minimum-makespan partition by dynamic
// programming over users and remaining shards (O(n·s²)): the optimality
// oracle, with no monotonicity assumption at all.
func bruteForce(req *Request) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	n, s := len(req.Users), req.TotalShards

	// best[j][r] = minimal makespan assigning r shards to users j..n-1.
	best := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for j := range best {
		best[j] = make([]float64, s+1)
		choice[j] = make([]int, s+1)
		for r := range best[j] {
			best[j][r] = math.Inf(1)
		}
	}
	best[n][0] = 0
	for j := n - 1; j >= 0; j-- {
		capj := req.Users[j].capacity(s)
		for r := 0; r <= s; r++ {
			for k := 0; k <= capj && k <= r; k++ {
				rest := best[j+1][r-k]
				if math.IsInf(rest, 1) {
					continue
				}
				m := math.Max(userCost(req, j, k), rest)
				if m < best[j][r] {
					best[j][r] = m
					choice[j][r] = k
				}
			}
		}
	}

	shards := make([]int, n)
	r := s
	for j := 0; j < n; j++ {
		shards[j] = choice[j][r]
		r -= shards[j]
	}
	return &Assignment{Shards: shards, Algorithm: "brute-force", PredictedMakespan: best[0][s]}, nil
}
