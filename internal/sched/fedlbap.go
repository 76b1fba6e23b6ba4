package sched

import (
	"errors"
	"math"
	"math/rand"

	"fedsched/internal/tensor"
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
//  1. Bound: c_hi = the s-th smallest first-shard cost (n > s, selected
//     among the users the pricing pass gathers below a sampled pivot, no
//     array of the n costs built) or the max full-capacity cost (n ≤ s);
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
//     and the next one gallops up from the bracket's bottom, so a
//     survivor whose maximum barely moves costs O(1) evaluations a probe
//     and a settled one (bracket closed) costs none.
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

// Schedule implements Scheduler. Runtime is one pass over the n users
// that validates them, prices the first shard and gathers the ~2 % below
// a sampled pivot (prune), a selection over what it gathered, plus the
// threshold search over m ≈ s survivors, amortised across its ~60 probes
// by the per-survivor brackets (invariant below): a probe gallops from
// klo, so a survivor pays about 2·log₂(kmax(c) − klo + 1) evaluations — a
// feasible maximum that moved by d since the last infeasible probe costs
// O(log d), not the log of the bracket — and nothing once its bracket has
// closed. From the prune on, the solve reads only its survivor records,
// never the request's users. The pass, which chases a pointer per user,
// is the one that scales with n: from fanOutUsers users on, its chunks
// run on every lane free (tensor.FanOut), so User.Cost is called
// concurrently there; below that — every cohort-sized solve — it runs on
// the caller alone. The rest is sequential. At n=10^6, s=10^4 on a 2-vCPU
// Xeon: ~24 ms with a lane free, ~41 ms without (see
// BenchmarkFedLBAPFleet); 1,185,486 cost evaluations of which 10^6 are
// the first-shard pass. Deterministic at any lane count (rng is unused).
// The only O(n) allocation is the returned Shards: the pass keeps the
// users it gathers, not a cost per user, so a fleet solve allocates
// ~10.9 MB, 8 of them Shards. The population round loop passes
// cohort-sized requests, so in steady state this stays O(selected).
//
// fedlint:hotpath
// fedlint:deterministic
// fedlint:trace KindSchedule,KindSolver
func (FedLBAP) Schedule(req *Request, _ *rand.Rand) (*Assignment, error) {
	n, s, sz := len(req.Users), req.TotalShards, req.ShardSize
	if s <= 0 || sz <= 0 || n == 0 {
		return nil, req.check()
	}

	// The one pass over the users (steps 1 and 2): validation, the bound
	// c_hi and the survivor records, in user order.
	recs, chi, err := prune(req)
	if err != nil {
		return nil, err
	}
	m := len(recs)

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
	// probe = g(c) over the survivors, early-capped at s; the kcur of the
	// first p records holds the maxima it evaluated.
	probe := func(c float64) (total, p int) {
		lim := slackAbove(c)
		for i := range recs {
			r := &recs[i]
			if r.klo == r.khi && c <= hiv {
				r.kcur = r.klo // settled: kmax would return klo unevaluated
			} else {
				r.kcur = r.kmax(c, lim, hiv, sz)
			}
			total += r.kcur
			if total >= s {
				return total, i + 1
			}
		}
		return total, m
	}
	raiseLo := func() {
		for i := range recs {
			recs[i].klo = recs[i].kcur
		}
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
			for i := range recs[:p] {
				recs[i].khi = recs[i].kcur
			}
		} else {
			lov = mid
			raiseLo()
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
	var cstar float64
	var done int // the kcur of recs[:done] holds the feasible maxima under c*
	for {
		cand := math.Inf(1)
		for i := range recs {
			if v, ok := recs[i].next(lov, sz); ok && v < cand {
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
		raiseLo()
	}

	// Hand out feasible maxima under c* — the last probe's, completed past
	// its early exit; non-survivors stay at zero.
	total := 0
	lim := slackAbove(cstar)
	for i := range recs {
		r := &recs[i]
		if i >= done {
			r.kcur = r.kmax(cstar, lim, hiv, sz)
		}
		total += r.kcur
	}

	// Trim the overshoot: repeatedly decrement the user whose current
	// marginal cost C[j][k_j] is largest, smallest j on ties — a first-max
	// scan over the users, as a replace-top max-heap so each step is
	// O(log m) instead of O(n). One entry per survivor with k > 0, keyed
	// by record index (user order); replace-top (never pop-then-push)
	// keeps entries fresh.
	if total > s {
		heapBuf := make([]trimEntry, m)
		hn := 0
		for i := range recs {
			if k := recs[i].kcur; k > 0 {
				heapBuf[hn] = trimEntry{c: recs[i].at(k, sz), j: int32(i)}
				hn++
			}
		}
		for i := hn/2 - 1; i >= 0; i-- {
			siftDown(heapBuf, i, hn)
		}
		for total > s {
			r := &recs[heapBuf[0].j]
			r.kcur--
			total--
			if r.kcur > 0 {
				heapBuf[0].c = r.at(r.kcur, sz)
			} else {
				hn--
				heapBuf[0] = heapBuf[hn]
			}
			siftDown(heapBuf, 0, hn)
		}
	}

	// Non-survivors hold no shards and cost nothing, so the max over the
	// survivors is Makespan(req, asg) to the bit.
	shards := make([]int, n)
	makespan := 0.0
	for i := range recs {
		r := &recs[i]
		shards[r.user] = r.kcur
		if r.kcur > 0 {
			if c := r.at(r.kcur, sz); c > makespan {
				makespan = c
			}
		}
	}
	asg := &Assignment{Shards: shards, PredictedMakespan: makespan, Algorithm: "Fed-LBAP"}
	emitSchedule(req, asg)
	return asg, nil
}

// The first pass prices the users in chunks of chunkUsers. A request of
// at least fanOutUsers users runs its chunks on every lane free; a
// smaller one — every cohort-sized solve — runs them in order on the
// caller.
const (
	chunkUsers  = 1 << 13
	fanOutUsers = 1 << 16
)

// selectSample is the size of the strided sample prune takes its pivot
// from.
const selectSample = 1024

// prune is the solve's one pass over the users. It runs req.check()'s
// nil-Cost and capacity tests (a failure re-runs it for its error
// message), prices every user's first shard, and returns the upper bound
// c_hi on the optimal threshold with the survivors: one record per user
// whose first-shard cost is at or below slackAbove(c_hi), in user order.
// A user above that holds zero shards at every threshold ≤ c_hi, in
// particular at c*, and none of its matrix values can be c* (they all
// exceed c_hi ≥ c*).
//
// For n ≤ s, c_hi is the max full-capacity cost — full capacities are
// feasible once Σ cap_j ≥ s — and the pass gathers every user. For n > s
// it is the s-th smallest first-shard cost: s users can each take one
// shard there, so g(c_hi) ≥ s. That selection needs only the users near
// the bottom, so the pass gathers only those. A strided sample of
// selectSample users is priced first, and its value at rank r2, three
// standard deviations above the rank r at which the s-th smallest value
// is expected, is the pivot (unless r2 reaches the sample's top: then
// the pass gathers every user). Each chunk gathers the users at or below
// slackAbove(pivot), about (r2+1)/selectSample of the fleet, with their
// first-shard costs; c_hi is selectKth over the gathered costs. The pass
// reuses the sample's prices, so every user is priced once, unless the
// pivot misses: fewer than s users gather, or c_hi's slack reaches past
// the pivot's. Then the pass runs again and gathers every user. That
// re-run — on a fleet whose strided sample sits below the rest of it,
// or by a three-sigma chance — is the one path that prices a user
// twice. A chunk that gathers more than its presized span (a sample
// sitting above the rest) doubles its own buffer. Neither changes the
// survivors.
//
// A fleet-sized request fans the chunks out. Each writes only its own
// buffer and totals, which merge in chunk order — an integer sum, a max
// that skips NaN, a flag and the gathered records — so nothing depends on
// the lane count. A NaN cost never gathers; with fewer than s costs that
// are numbers, c_hi is NaN and nothing survives.
func prune(req *Request) ([]survivor, float64, error) {
	n, s, sz := len(req.Users), req.TotalShards, req.ShardSize
	full := n <= s
	lim, q := math.Inf(1), 1.0 // gather at or below lim, about a share q of each chunk
	var sample []float64
	if !full {
		m := min(n, selectSample)
		buf := newFloats(2 * m)
		sample = buf[:m]
		sel := buf[m:] // the sample again, for selectKth to permute
		for i := range sample {
			u := req.Users[i*n/m]
			if u.Cost == nil {
				return nil, 0, req.check()
			}
			sample[i] = floorCost(u.Cost(sz) + u.CommSeconds)
			sel[i] = sample[i]
			if math.IsNaN(sel[i]) {
				sel[i] = math.Inf(1) // selectKth orders numbers only
			}
		}
		// The s-th value's rank in the sample is binomial around r. A
		// pivot that would be the sample's top bounds nothing the fleet
		// holds above it, so then the pass gathers every user. The share
		// of the fleet at or below the pivot has a standard deviation of
		// about √(p(1−p)/m); the spans allow for two.
		r := (s - 1) * m / n
		if r2 := r + 2 + int(3*math.Sqrt(float64(r*(m-r))/float64(m))); r2 < m-1 {
			lim = slackAbove(selectKth(sel, r2))
			p := float64(r2+1) / float64(m)
			q = min(1, p+float64(2*math.Sqrt(p*(1-p)/float64(m))))
		}
	}

	chunks := make([]firstChunk, (n+chunkUsers-1)/chunkUsers)
	spans := 0
	for i := range chunks {
		lo, hi := i*chunkUsers, min((i+1)*chunkUsers, n)
		chunks[i] = firstChunk{users: req.Users[lo:hi], lo: lo, n: n, sample: sample, s: s, sz: sz, full: full}
		spans += span(hi-lo, q)
	}
	workers := -1
	if n >= fanOutUsers {
		workers = 0
	}
	var (
		ws    []survivor // the chunks' spans, in chunk order
		chi   float64
		got   int
		grown bool // some chunk outgrew its span
	)
	for {
		ws = make([]survivor, spans)
		off := 0
		for i := range chunks {
			c := &chunks[i]
			k := span(len(c.users), q)
			c.lim, c.got, c.grown = lim, ws[off:off+k], false
			off += k
		}
		tensor.FanOut(workers, len(chunks), chunks, nil, func(i int, chunks []firstChunk) { chunks[i].price() })
		capSum := 0
		chi, got, grown = 0, 0, false
		for i := range chunks {
			c := &chunks[i]
			if c.noCost {
				return nil, 0, req.check()
			}
			capSum += c.capSum
			got += len(c.got)
			grown = grown || c.grown
			if c.chi > chi {
				chi = c.chi
			}
		}
		if capSum < s {
			return nil, 0, req.check()
		}
		if full {
			break
		}
		if got >= s {
			costs := newFloats(got)
			off := 0
			for i := range chunks {
				for _, r := range chunks[i].got {
					costs[off] = r.first
					off++
				}
			}
			if chi = selectKth(costs, s-1); slackAbove(chi) <= lim {
				break
			}
		} else if math.IsInf(lim, 1) {
			chi = math.NaN() // fewer than s first-shard costs are numbers
			break
		}
		// The pivot missed: gather every user.
		lim, q, spans = math.Inf(1), 1, n
	}

	// The survivors, in chunk order and so in user order. They compact in
	// place: each chunk's records start at its span's offset in ws, and
	// the spans before it hold no more records than they have room for,
	// so no write overtakes a record still to be read. A chunk that
	// outgrew its span breaks that, so then they go to a fresh slice.
	keep := slackAbove(chi)
	recs := ws
	if grown {
		recs = make([]survivor, got)
	}
	kept := 0
	for i := range chunks {
		for _, r := range chunks[i].got {
			if r.first <= keep {
				recs[kept] = r
				kept++
			}
		}
	}
	return recs[:kept], chi, nil
}

// span is the room a chunk of l users keeps for its records when the
// pass gathers about a share q of the users: the binomial count's mean
// plus four standard deviations and 8, at most l.
func span(l int, q float64) int {
	if q >= 1 {
		return l
	}
	e := float64(l) * q
	return min(l, 8+int(e)+int(4*math.Sqrt(e*(1-q))))
}

// firstChunk is one chunk of the first pass: a span of the users, what
// it gathers, and what the pass found in it.
type firstChunk struct {
	users  []*User
	lo, n  int       // users[0]'s index in the request, and the request's size
	sample []float64 // the sample's first-shard costs: sample i is user i·n/len(sample)
	s, sz  int
	full   bool    // n ≤ s: price every user at full capacity too
	lim    float64 // gather the users whose first-shard cost is at or below lim

	got    []survivor // the records gathered, in user order; presized
	grown  bool       // got outgrew its span
	capSum int        // Σ capacity
	chi    float64    // max full-capacity cost (full only)
	noCost bool       // a user has no Cost; the chunk stopped there
}

// price runs the first pass over the chunk: the capacity sum and
// full-capacity bound into c, and into c.got a survivor record for every
// user whose first-shard cost is at or below c.lim, built from what the
// pass has just read. A sampled user's cost is the sample's. Calls run on
// any lane, each touching only its own chunk.
//
// fedlint:hotpath
func (c *firstChunk) price() {
	capSum, chi, got := 0, 0.0, 0
	buf := c.got
	m := len(c.sample)
	i := (c.lo*m + c.n - 1) / c.n // the chunk's first sampled user is sample i,
	next := c.n                   // at this index in the request
	if i < m {
		next = i * c.n / m
	}
	for j, u := range c.users {
		if u.Cost == nil {
			c.noCost = true
			return
		}
		k := u.capacity(c.s)
		capSum += k
		var v float64
		if c.lo+j == next {
			v = c.sample[i]
			i++
			next = c.n
			if i < m {
				next = i * c.n / m
			}
		} else {
			v = floorCost(u.Cost(c.sz) + u.CommSeconds)
		}
		if c.full {
			if w := floorCost(u.Cost(k*c.sz) + u.CommSeconds); w > chi {
				chi = w
			}
		}
		if v <= c.lim {
			if got == len(buf) {
				// The span is full: double it, up to one record per user.
				grown := make([]survivor, min(2*got+16, len(c.users)))
				copy(grown, buf)
				buf, c.grown = grown, true
			}
			buf[got] = survivor{cost: u.Cost, comm: u.CommSeconds, first: v, user: c.lo + j, capacity: k, khi: k}
			got++
		}
	}
	c.got, c.capSum, c.chi = buf[:got], capSum, chi
}

// survivor is one pruned-in user's share of a FedLBAP solve: its cost
// curve, first-shard cost, capacity and bracket side by side, so a
// probe's evaluation is one indirect call instead of a walk from the
// request through the user object first.
type survivor struct {
	cost           func(samples int) float64
	comm           float64
	first          float64 // C[user][1], what the prune compares
	user, capacity int
	klo, khi, kcur int
}

// floorCost floors a matrix value at 0: a shard never costs less than
// holding none.
func floorCost(c float64) float64 {
	if c < 0 {
		return 0
	}
	return c
}

// at is the matrix value C[j][k] of the survivor's user j, k ≥ 1:
// userCost's expression, floored at 0.
func (r *survivor) at(k, shardSize int) float64 {
	return floorCost(r.cost(k*shardSize) + r.comm)
}

// kmax is kmax_i(c), lim = slackAbove(c), inside the bracket [klo, khi]
// (up to the capacity for a c above hiv): a gallop up from klo in
// doubling steps, klo+1, klo+3, klo+7, …, capped at the top, then
// bisection inside the step that failed. Between probes the maximum
// moves little, so the gallop stops after a few steps where a bisection
// of the whole bracket would pay its log₂ every time. On a
// nondecreasing curve the maximum is unique, so the route does not
// change the result.
//
// fedlint:hotpath
func (r *survivor) kmax(c, lim, hiv float64, shardSize int) int {
	lo, hi := r.klo, r.khi
	if c > hiv {
		hi = r.capacity
	}
	for step := 1; lo < hi; step *= 2 {
		probe := min(lo+step, hi)
		if r.at(probe, shardSize) <= lim {
			lo = probe
		} else {
			hi = probe - 1
			break
		}
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.at(mid, shardSize) <= lim {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// next is the survivor's smallest matrix value strictly above v = lov,
// false if it has none. It sits at k ≤ khi+1 (C[i][khi+1] exceeds hiv >
// lov), and above klo unless C[i][klo] is one of the values the slack of
// ≤ admitted from just above lov — then it is at or below klo.
//
// fedlint:hotpath
func (r *survivor) next(v float64, shardSize int) (float64, bool) {
	lo, hi := r.klo+1, r.khi+1
	if hi > r.capacity {
		if !(r.at(r.capacity, shardSize) > v) {
			return 0, false
		}
		hi = r.capacity
	}
	if lo > 1 && r.at(lo-1, shardSize) > v {
		lo, hi = 1, lo-1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid, shardSize) > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return r.at(lo, shardSize), true
}

// trimEntry is one heap node of the overshoot trim: the current marginal
// cost of the user at j, an index in user order.
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

// newFloats returns a fresh slice of n float64s.
func newFloats(n int) []float64 {
	return make([]float64, n) //fedlint:allow hotalloc — per-solve selection scratch: the sample, then the gathered costs
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
