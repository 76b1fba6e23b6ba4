package sched

import (
	"math"

	"fedsched/internal/trace"
)

// referenceSparse is the sparse Fed-LBAP solver as it stood before the
// per-survivor brackets: every threshold probe re-runs a full-range
// binary search per survivor (kmaxAt over [0, cap_j]). It is the oracle
// the bracketed SparseFedLBAP.Schedule must match event for event —
// same probe sequence, same feasible counts, same assignment — and the
// yardstick for its cost-evaluation budget.
func referenceSparse(req *Request) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	n, s := len(req.Users), req.TotalShards

	// ec is the effective cost the dense solver's running-max row holds
	// at [j][k-1] when the raw curve is nondecreasing: floored at 0, since
	// the dense row's running max starts from prev = 0.
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
	// feasibleAt = g(c) over the survivors, early-capped at s like the
	// dense solver's feasibleShards.
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
	// g(hiv) ≥ s. Each probe emits the same KindSolver event the dense
	// binary search does. ~60 iterations reach float resolution; the
	// break fires when the midpoint stops making progress.
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
	// the first candidate with g ≥ s is exactly the dense solver's c* =
	// min{v in the matrix : g(v) ≥ s}. After the bisection above, this
	// loop almost always terminates on its first candidate.
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

	// Hand out feasible maxima under c*; non-survivors stay at zero, as
	// they do under the dense solver.
	shards := make([]int, n)
	total := 0
	for _, j := range surv {
		k := kmaxAt(j, cstar)
		shards[j] = k
		total += k
	}

	// Trim the overshoot: repeatedly decrement the user whose current
	// marginal cost C[j][k_j] is largest, smallest j on ties — exactly
	// the dense solver's first-max scan, as a replace-top max-heap so
	// each step is O(log m) instead of O(n). One entry per user with
	// k_j > 0; replace-top (never pop-then-push) keeps entries fresh.
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

	asg := &Assignment{Shards: shards, Algorithm: "Fed-LBAP-sparse"}
	asg.PredictedMakespan = Makespan(req, asg)
	emitSchedule(req, asg)
	return asg, nil
}
