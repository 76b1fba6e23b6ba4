package sched

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"

	"fedsched/internal/trace"
)

// Four oracles for FedLBAP, from most to least like it: referenceSparse
// pins the event stream, denseFedLBAP the assignment bits, bruteForce the
// optimality claim on tiny instances and olar at fleet scale.

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
		// cost, so g(c_hi) ≥ s. NaN costs sort last, as in FedLBAP's
		// selection: a NaN is no bound.
		sorted := slices.Clone(first)
		slices.SortFunc(sorted, nanLast)
		chi = sorted[s-1]
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

// nanLast orders numbers ascending and NaN after every number.
func nanLast(a, b float64) int {
	if math.IsNaN(a) || math.IsNaN(b) {
		return cmp.Compare(b, a)
	}
	return cmp.Compare(a, b)
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

// olar is OLAR (Pilla 2020, arXiv 2010.00239): the optimal makespan under
// nondecreasing costs by a heap-driven greedy instead of a threshold
// search. Every user starts empty; each of the s shards goes to a user
// whose next shard would cost the least, C[j][k_j+1], until that user is
// at capacity. O(n + s log n). It prices the same floored matrix values
// as FedLBAP and compares only them, so its makespan is exactly optimal.
func olar(req *Request) *Assignment {
	s := req.TotalShards
	next := func(j, k int) olarEntry { return olarEntry{c: floorCost(userCost(req, j, k+1)), j: j} }
	h := make(olarHeap, len(req.Users))
	for j := range req.Users {
		h[j] = next(j, 0)
	}
	heap.Init(&h)
	shards := make([]int, len(req.Users))
	for range s {
		j := h[0].j
		shards[j]++
		if shards[j] < req.Users[j].capacity(s) {
			h[0] = next(j, shards[j])
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	asg := &Assignment{Shards: shards, Algorithm: "OLAR"}
	asg.PredictedMakespan = Makespan(req, asg)
	return asg
}

// olarEntry is user j's next-shard cost c.
type olarEntry struct {
	c float64
	j int
}

// olarHeap is a min-heap on the next-shard cost, lower user index on ties.
type olarHeap []olarEntry

func (h olarHeap) Len() int { return len(h) }
func (h olarHeap) Less(a, b int) bool {
	if h[a].c != h[b].c { //fedlint:allow floateq — exact tie-break on matrix values
		return h[a].c < h[b].c
	}
	return h[a].j < h[b].j
}
func (h olarHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *olarHeap) Push(x any)   { *h = append(*h, x.(olarEntry)) }
func (h *olarHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// referenceMinAvg is Algorithm 2 written out step by step, the oracle
// FedMinAvg.Schedule must match bit for bit. Where the solver keeps its
// class coverage in a map it updates on each opening, the reference
// recomputes it from the opened set at every step. Each step scans the
// users in index order and takes the first one with the strictly
// smallest marginal cost T_j((l_j+1)·d) + αF_j, plus the user's comm
// time if it opens. F_j = K/|U_j|. While U_j holds a class no opened
// user covers, F_j is discounted by β·D_u, with D_u the samples assigned
// so far. Users without classes and users at capacity are never picked.
// It returns the shards and the mean of the chosen marginal costs.
func referenceMinAvg(req *Request) ([]int, float64) {
	n, s, d := len(req.Users), req.TotalShards, req.ShardSize
	shards := make([]int, n)
	opened := make([]bool, n)
	covered := func(class int) bool {
		for i, u := range req.Users {
			if opened[i] && slices.Contains(u.Classes, class) {
				return true
			}
		}
		return false
	}
	total := 0.0
	for step := 0; step < s; step++ {
		best, bestCost := -1, math.Inf(1)
		for j, u := range req.Users {
			if len(u.Classes) == 0 || shards[j] >= u.capacity(s) {
				continue
			}
			acc := float64(req.Alpha * (float64(req.K) / float64(len(u.Classes))))
			for _, c := range u.Classes {
				if !covered(c) {
					acc -= float64(req.Beta * float64(step*d))
					break
				}
			}
			cost := u.Cost((shards[j]+1)*d) + acc
			if !opened[j] {
				cost += u.CommSeconds
			}
			if cost < bestCost {
				best, bestCost = j, cost
			}
		}
		shards[best]++
		opened[best] = true
		total += bestCost
	}
	return shards, total / float64(s)
}
