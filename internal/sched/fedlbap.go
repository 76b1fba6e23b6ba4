package sched

import (
	"errors"
	"math"
	"math/rand"

	"fedsched/internal/trace"
)

// ErrNotMonotone is returned by FedLBAP when the threshold search meets
// a cost curve that decreases somewhere (Property 1 violated) and cannot
// make progress.
var ErrNotMonotone = errors.New("sched: a cost curve is not nondecreasing (Property 1)")

// FedLBAP is Algorithm 1: joint data partitioning and assignment for IID
// data. The cost matrix C[j][k] = T_j(k·d) + comm_j is never built.
// Property 1 — every row C[j][·] is nondecreasing — makes
//
//	g(c) = Σ_j max{k ≤ cap_j : C[j][k] ≤ c}
//
// a monotone step function of the threshold c, evaluable by per-user
// binary search over the *implicit* row, and Property 2 replaces the
// classic LBAP's perfect-matching test with g(c) ≥ s. The solve finds the
// smallest matrix value c* with g(c*) ≥ s:
//
//  1. Bound: c_hi = the s-th smallest first-shard cost (n > s, found by
//     deterministic quickselect) or the max full-capacity cost (n ≤ s);
//     g(c_hi) ≥ s by construction.
//  2. Prune: users whose first-shard cost exceeds c_hi can never hold a
//     shard at any feasible threshold ≤ c_hi, so only the ~s survivors
//     participate from here on — this is what makes the solve
//     O(n + s·polylog) instead of O(ns).
//  3. Search: real-valued bisection on (lov, c_hi] maintaining
//     g(lov) < s, then an exact walk to the smallest *matrix value*
//     c* > lov with g(c*) ≥ s. The walk restores exactness that plain
//     bisection cannot give: c* is a value of the implicit matrix, the
//     one a binary search over the sorted materialised matrix finds.
//     Every probe narrows a per-survivor bracket on the feasible maximum
//     and the next one searches only inside it, so the ~60 probes cost
//     O(m log² s) evaluations between them on smooth curves instead of
//     O(m log s) each.
//  4. Assign: hand out per-user feasible maxima under c*, then trim the
//     overshoot from the largest marginal costs via a replace-top
//     max-heap (ties broken toward the smallest user index), so the
//     makespan is exactly minimised over all partitions into shards.
//
// Property 1 is the precondition, not something the solver repairs:
// optimality holds when every User.Cost is nondecreasing in the sample
// count. The three in-tree cost sources satisfy it by construction —
// profile.Line.Predict (slope ≥ 0, clamped at 0), profile.OnlineProfile
// (negative fitted slopes clamped) and the population cost line (a line
// over a positive speed). On a curve that decreases the result is still
// a valid assignment (Validate-clean) but not necessarily optimal, or
// ErrNotMonotone when the exact walk cannot advance.
type FedLBAP struct{}

// Name implements Scheduler.
func (FedLBAP) Name() string { return "Fed-LBAP" }

// Schedule implements Scheduler. Runtime is O(n) to bound and prune plus
// the threshold search over m ≈ s survivors, amortised across its ~60
// probes by the per-survivor brackets (invariant below): a bracket's
// width follows kmax(hiv) − kmax(lov), which halving (lov, hiv] roughly
// halves, so a survivor's searches cost about log s, log s − 1, …, 0
// evaluations (a cliff that no probe crosses still costs its survivor
// log s every time). Sub-second at n=10^6, s=10^4 (see
// BenchmarkFedLBAPFleet). Deterministic (rng is unused). The O(n)
// workspaces below are per-solve scratch, freed on return — the
// population round loop passes cohort-sized requests, so in steady state
// this stays O(selected).
//
// fedlint:hotpath
// fedlint:deterministic
// fedlint:trace KindSchedule,KindSolver
func (FedLBAP) Schedule(req *Request, _ *rand.Rand) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	n, s := len(req.Users), req.TotalShards

	// ec is the matrix value C[j][k], floored at 0 (a shard never costs
	// less than holding none).
	ec := func(j, k int) float64 {
		c := userCost(req, j, k)
		if c < 0 {
			c = 0
		}
		return c
	}
	capOf := func(j int) int { return req.Users[j].capacity(s) }

	first := make([]float64, n) //fedlint:allow hotalloc — per-solve O(n) scratch, not round-loop state
	for j := range first {
		first[j] = ec(j, 1)
	}

	// Feasible upper bound c_hi on the optimal threshold.
	var chi float64
	if n > s {
		// s users can each take one shard at the s-th smallest first-shard
		// cost, so g(c_hi) ≥ s. Quickselect permutes, so work on a copy.
		scratch := make([]float64, n) //fedlint:allow hotalloc — per-solve O(n) scratch, not round-loop state
		copy(scratch, first)
		chi = selectKth(scratch, s-1)
	} else {
		// Full capacities are feasible by req.check(): Σ cap_j ≥ s.
		for j := range req.Users {
			if c := ec(j, capOf(j)); c > chi {
				chi = c
			}
		}
	}

	// Prune: a user with first-shard cost above c_hi (beyond float slack)
	// holds zero shards at every threshold ≤ c_hi, in particular at c*,
	// and none of its matrix values can be c* (they all exceed c_hi ≥ c*).
	m := 0
	for _, c := range first {
		if almostLE(c, chi) {
			m++
		}
	}
	// One survivor-sized workspace: the survivors' user indices, their
	// brackets, and the feasible maxima of the probe in flight.
	work := make([]int, 4*m)
	surv, klo, khi, kcur := work[:m], work[m:2*m], work[2*m:3*m], work[3*m:]
	fill := 0
	for j, c := range first {
		if almostLE(c, chi) {
			surv[fill], khi[fill] = j, capOf(j)
			fill++
		}
	}

	// With kmax_i(c) = max{k ≤ cap_i : C[i][k] ≤ c} — nondecreasing in c by
	// Property 1 — the search keeps (lov, hiv] with g(lov) < s ≤ g(hiv) and,
	// for every survivor i,
	//
	//	klo_i ≤ kmax_i(lov)   and   kmax_i(c) ≤ khi_i for every c ≤ hiv,
	//
	// so a probe at c in (lov, hiv] bisects only [klo_i, khi_i]. Thresholds
	// above hiv (the exact walk can overshoot it by the float slack) fall
	// back to the capacity.
	lov, hiv := -1.0, chi
	kmaxIn := func(i int, c float64) int {
		j, lo, hi := surv[i], klo[i], khi[i]
		if c > hiv {
			hi = capOf(j)
		}
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
	// probe = g(c) over the survivors, early-capped at s; kcur[:p] holds
	// the maxima it evaluated.
	probe := func(c float64) (total, p int) {
		for i := range surv {
			kcur[i] = kmaxIn(i, c)
			total += kcur[i]
			if total >= s {
				return total, i + 1
			}
		}
		return total, m
	}

	// Real-valued bisection: shrink (lov, hiv] keeping g(lov) < s and
	// g(hiv) ≥ s. Each probe emits one KindSolver event. ~60 iterations
	// reach float resolution; the break fires when the midpoint stops
	// making progress. The verdict folds what the probe evaluated into the
	// brackets: an infeasible probe ran to the end and raises every klo; a
	// feasible one lowers khi over the prefix it got through before the
	// early exit.
	iter := 0
	for i := 0; i < 64; i++ {
		// The halving is a multiply to the compiler: converted so the add
		// cannot fuse with it (`make nofma`).
		mid := lov + float64((hiv-lov)/2)
		if mid <= lov || mid >= hiv {
			break
		}
		feasible, p := probe(mid)
		flag := 0
		if feasible >= s {
			flag = 1
			hiv = mid
			copy(khi[:p], kcur[:p])
		} else {
			lov = mid
			copy(klo, kcur)
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
	// g(v) ≥ s}. After the bisection above, this loop almost always
	// terminates on its first candidate. Each step must move lov strictly
	// up; a candidate that does not means some curve decreases, and the
	// walk stops with ErrNotMonotone instead of spinning.
	//
	// nextValue is survivor i's smallest matrix value strictly above v =
	// lov. It sits at k ≤ khi_i+1 (C[i][khi_i+1] exceeds hiv > lov), and
	// above klo_i unless C[i][klo_i] is one of the values the slack of ≤
	// admitted from just above lov — then it is at or below klo_i.
	nextValue := func(i int, v float64) (float64, bool) {
		j := surv[i]
		lo, hi := klo[i]+1, khi[i]+1
		if c := capOf(j); hi > c {
			if !(ec(j, c) > v) {
				return 0, false
			}
			hi = c
		}
		if lo > 1 && ec(j, lo-1) > v {
			lo, hi = 1, lo-1
		}
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
	var done int // kcur[:done] holds the feasible maxima under c*
	for {
		cand := math.Inf(1)
		for i := range surv {
			if v, ok := nextValue(i, lov); ok && v < cand {
				cand = v
			}
		}
		if !(cand > lov) {
			return nil, ErrNotMonotone
		}
		feasible, p := probe(cand)
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
			cstar, done = cand, p
			break
		}
		lov = cand
		copy(klo, kcur)
	}

	// Hand out feasible maxima under c* — the last probe's, completed past
	// its early exit; non-survivors stay at zero.
	shards := make([]int, n)
	total := 0
	for i, j := range surv {
		k := kcur[i]
		if i >= done {
			k = kmaxIn(i, cstar)
		}
		shards[j] = k
		total += k
	}

	// Trim the overshoot: repeatedly decrement the user whose current
	// marginal cost C[j][k_j] is largest, smallest j on ties — a first-max
	// scan over the users, as a replace-top max-heap so each step is
	// O(log m) instead of O(n). One entry per user with k_j > 0;
	// replace-top (never pop-then-push) keeps entries fresh.
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

// trimEntry is one heap node of the overshoot trim: user j's current
// marginal cost.
type trimEntry struct {
	c float64
	j int32
}

// trimBefore orders the trim heap: largest marginal cost first, smallest
// user index on ties (what a strict-> scan in user order, keeping the
// first maximum it meets, would pick).
func trimBefore(a, b trimEntry) bool {
	if a.c != b.c { //fedlint:allow floateq — exact-equality tie-break; equal costs fall through to the index ordering
		return a.c > b.c
	}
	return a.j < b.j
}

// siftDown restores the heap property for heapBuf[:hn] from index i.
//
// fedlint:hotpath
func siftDown(heapBuf []trimEntry, i, hn int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < hn && trimBefore(heapBuf[l], heapBuf[best]) {
			best = l
		}
		if r < hn && trimBefore(heapBuf[r], heapBuf[best]) {
			best = r
		}
		if best == i {
			return
		}
		heapBuf[i], heapBuf[best] = heapBuf[best], heapBuf[i]
		i = best
	}
}

// selectKth returns the k-th smallest element (0-indexed) of a,
// permuting a in place. Hoare-partition quickselect with a
// median-of-three pivot — deterministic (no random pivots), O(n)
// expected on the hashed-jitter cost distributions it sees here.
//
// fedlint:hotpath
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}
