package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fedsched/internal/tensor"
)

// The Fed-LBAP conformance table: every row is a named request family
// and conform holds each of its requests to every check the size rule
// admits.
//
//   - Every family: Validate; PredictedMakespan is Makespan to the bit; a
//     traced solve assigns what an untraced one does; referenceSparse
//     event for event — probe sequence, feasible counts, schedule events.
//   - n ≥ fanOutUsers: the same solve, event for event, at lane counts
//     0, 1 and 3.
//   - Σ cap_j ≤ denseMax: denseFedLBAP's shards and makespan to the bit.
//   - Finite costs (finiteCosts): olar's optimum up to almostLE's slack,
//     and a makespan no worse than Prop.'s, Random's or Equal's.
//   - Finite costs and n·s² ≤ bruteMax: bruteForce's optimum likewise.
//   - Class sets and n·s ≤ minAvgMax: Fed-MinAvg at β = 0 without comm is
//     OLAR on the shifted costs (minAvgIsOLAR).
//
// The families come from two generators, randomRequest and
// jitterRequest, or are hand-built edge cases on top of them. Each row
// runs under its entry test, the one whose fixture it was before the
// table existed, so `go test -run` still picks a family by that name.
const (
	denseMax  = 500_000   // Σ cap_j: the dense oracle's matrix entries
	bruteMax  = 2_000_000 // n·s²: the DP's inner steps
	minAvgMax = 1_000_000 // n·s: Fed-MinAvg's marginal-cost scans
)

// family is one row: seeds instances build(0), …, build(seeds−1), or the
// single request build(0) when seeds is 0.
type family struct {
	entry func(*testing.T)
	name  string
	seeds int
	build func(seed int) *Request
}

// families is the table, a function so that each request is built only
// when its row runs.
func families() []family {
	edges := func(caps [4]int) func(int) *Request {
		return func(int) *Request {
			users := []*User{
				linUser("fast", 1, 0.010, 2), linUser("mid", 2, 0.020, 2),
				linUser("slow", 3, 0.060, 2), linUser("spare", 1.5, 0.015, 1),
			}
			for j, u := range users {
				u.CapacityShards = caps[j]
			}
			return &Request{TotalShards: 30, ShardSize: 100, Users: users}
		}
	}
	flat := func(n int) []*User {
		users := make([]*User, n)
		for j := range users {
			users[j] = &User{Name: "flat", Cost: func(int) float64 { return 2.5 }}
		}
		return users
	}
	jitter := func(seed uint64, n, s int) func(int) *Request {
		return func(int) *Request { return jitterRequest(seed, n, s, 100) }
	}
	withUser := func(req *Request, u *User) *Request { req.Users = append(req.Users, u); return req }
	return []family{
		{TestFedLBAPBasic, "basic", 0, func(int) *Request { return testRequest(30) }},
		{TestFedLBAPSingleUser, "single-user", 0, func(int) *Request {
			return &Request{TotalShards: 7, ShardSize: 10, Users: []*User{linUser("only", 0, 0.1, 1)}}
		}},
		{TestFedLBAPRespectsCapacity, "capped-fast", 0, func(int) *Request {
			req := testRequest(30)
			req.Users[0].CapacityShards = 5
			return req
		}},
		{TestFedLBAPMatchesBruteForce, "random-small", 60, func(seed int) *Request { return randomRequest(seed, 5, 29) }},
		{TestFedLBAPNeverWorseThanBaselines, "random-wide", 60, func(seed int) *Request { return randomRequest(seed, 7, 99) }},
		{TestSparseMatchesDenseProperty, "random", 200, func(seed int) *Request { return randomRequest(seed, 9, 44) }},
		{TestSparseMatchesDenseBasic, "classes", 0, func(int) *Request { return nonIIDRequest(40, 5000, 0) }},
		{TestSparseMatchesDenseSingleUser, "one-shard", 0, func(int) *Request {
			return &Request{TotalShards: 1, ShardSize: 10, Users: []*User{linUser("only", 0, 0.1, 1)}}
		}},
		{TestSparseMatchesDenseSingleUser, "one-shard-of-five", 0, jitter(0, 5, 1)},
		// All-equal costs make every threshold and every trim step a tie —
		// the worst case for the trim heap's tie-break, and at n > s for
		// the selection and the prune.
		{TestSparseMatchesDenseConstantCosts, "constant-cost-pruned", 0, func(int) *Request {
			return &Request{TotalShards: 10, ShardSize: 100, Users: flat(30)}
		}},
		// A cap of 0 or below means unlimited; one above s clamps to s.
		{TestSparseMatchesDenseCapacityEdges, "unlimited-zero", 0, edges([4]int{0, 0, 0, 0})},
		{TestSparseMatchesDenseCapacityEdges, "unlimited-negative", 0, edges([4]int{-5, 0, 0, 0})},
		{TestSparseMatchesDenseCapacityEdges, "over-total", 0, edges([4]int{100, 0, 0, 0})},
		{TestSparseMatchesDenseCapacityEdges, "tight", 0, edges([4]int{5, 5, 0, 0})},
		{TestSparseMatchesDenseCapacityEdges, "mixed", 0, edges([4]int{3, 100, -1, 7})},
		// Σ cap_j == s: everyone is forced to full capacity.
		{TestFedLBAPMatchesDenseExactFit, "exact-fit-linear", 0, func(int) *Request {
			users := []*User{linUser("a", 1, 0.01, 1), linUser("b", 2, 0.02, 1), linUser("c", 3, 0.03, 1)}
			users[0].CapacityShards, users[1].CapacityShards, users[2].CapacityShards = 4, 3, 3
			return &Request{TotalShards: 10, ShardSize: 50, Users: users}
		}},
		{TestSparseMatchesDenseMidScale, "capped-2000x200", 0, jitter(7, 2000, 200)},
		{TestFedLBAPLargeScaleValid, "capped-50000x2000", 0, func(int) *Request {
			req := jitterRequest(0, 50_000, 2_000, 100)
			for j := 0; j < len(req.Users); j += 3 {
				req.Users[j].CapacityShards = 1 + j%7
			}
			return req
		}},
		{TestFedLBAPDeterministicProbes, "jitter-1000x200", 0, jitter(0, 1000, 200)},

		{TestSparseProbeStreamMatchesReference, "cohort-96x600", 0, jitter(0, 96, 600)},
		{TestSparseProbeStreamMatchesReference, "pruned-2000x200", 0, jitter(0, 2000, 200)},
		{TestSparseProbeStreamMatchesReference, "capacity-edge", 0, func(int) *Request {
			req := jitterRequest(0, 300, 400, 100)
			for j, u := range req.Users {
				u.CapacityShards = []int{0, 1, -3, 1000, 2, 7}[j%6]
			}
			return req
		}},
		{TestSparseProbeStreamMatchesReference, "constant-cost", 0, func(int) *Request {
			return &Request{TotalShards: 10, ShardSize: 100, Users: flat(6)}
		}},
		{TestSparseProbeStreamMatchesReference, "exact-fit", 0, func(int) *Request {
			req := jitterRequest(0, 3, 10, 50)
			req.Users[0].CapacityShards, req.Users[1].CapacityShards, req.Users[2].CapacityShards = 4, 3, 3
			return req
		}},
		// Values a hair apart: the exact walk meets matrix values inside
		// the float slack of ≤, the case where a survivor's next value sits
		// at or below its lower bracket.
		{TestSparseProbeStreamMatchesReference, "within-slack", 0, func(int) *Request {
			hair := make([]*User, 5)
			for j := range hair {
				eps := float64(j) * 1e-12
				hair[j] = &User{Cost: func(samples int) float64 { return 1 + eps + 1e-11*float64(samples/100) }}
			}
			return &Request{TotalShards: 40, ShardSize: 100, Users: hair}
		}},
		// The same at the prune (n > s): ten capped users price a hair
		// above c_hi = 2, inside its slack, so they survive, and they come
		// first, so every feasible probe counts their 4 shards each.
		{TestSparseProbeStreamMatchesReference, "pruned-within-slack", 0, func(int) *Request {
			users := make([]*User, 30)
			for j := range users {
				users[j] = &User{Cost: func(samples int) float64 { return float64(samples) / 100 }, CommSeconds: 1}
				if j < 10 {
					users[j].Cost, users[j].CapacityShards = func(int) float64 { return 1 + 1e-12 }, 4
				}
			}
			return &Request{TotalShards: 15, ShardSize: 100, Users: users}
		}},
		// A cost cliff puts c_hi ~100 halvings above c*: the 64 bisection
		// probes run out and the exact walk steps through infeasible matrix
		// values one by one.
		{TestSparseProbeStreamMatchesReference, "long-walk", 0, func(int) *Request {
			return &Request{TotalShards: 10, ShardSize: 100, Users: []*User{
				{Cost: func(samples int) float64 { return float64(samples) / 100 }, CapacityShards: 5},
				{Cost: func(samples int) float64 {
					if samples > 500 {
						return 1e30
					}
					return 0.5 + float64(samples)/100
				}},
			}}
		}},
		// Galloping edges. A cheap user behind every feasible probe's early
		// exit keeps its bracket top at the capacity: past its cliff at
		// k = 3 the first gallop step fails (kmax == klo).
		{TestSparseProbeStreamMatchesReference, "gallop-first-step-fails", 0, func(int) *Request {
			return withUser(jitterRequest(0, 40, 200, 100), &User{Cost: func(samples int) float64 {
				if samples > 300 {
					return 1e9
				}
				return 0.1
			}})
		}},
		// One free user takes every shard: the gallop runs 1, 3, 7, … into
		// its capacity s.
		{TestSparseProbeStreamMatchesReference, "gallop-to-capacity", 0, func(int) *Request {
			req := jitterRequest(0, 5, 50, 100)
			req.Users = append([]*User{{Cost: func(int) float64 { return 0.5 }}}, req.Users...)
			return req
		}},
		// The same with a capped user: the gallop is cut short at cap 6.
		{TestSparseProbeStreamMatchesReference, "gallop-to-cap", 0, func(int) *Request {
			return withUser(jitterRequest(0, 30, 200, 100), &User{Cost: func(int) float64 { return 0.2 }, CapacityShards: 6})
		}},
		// The exact walk's candidate 2 lies above hiv ≈ 2 − 2e-9, and user
		// 0 is settled at klo = khi = 1 with C[0][2] = 2 + 1e-12 inside the
		// candidate's slack: its search must run up to the capacity.
		{TestSparseProbeStreamMatchesReference, "walk-over-hiv", 0, func(int) *Request {
			over := []*User{tableUser(50, []float64{1, 2 + 1e-12}), tableUser(50, []float64{1.5, 2, 100})}
			over[0].CapacityShards, over[1].CapacityShards = 2, 3
			return &Request{TotalShards: 3, ShardSize: 50, Users: over}
		}},

		{TestFedLBAPMatchesOLAR, "jitter-1000x10000", 0, jitter(0, 1_000, 10_000)},
		{TestFedLBAPMatchesOLAR, "jitter-10000x100000", 0, jitter(0, 10_000, 100_000)},
		{TestFedLBAPMatchesOLAR, "capped-1000x100000", 0, func(int) *Request { return jitterRequest(3, 1_000, 100_000, 10) }},
		{TestFedLBAPMatchesOLAR, "capped-10000x10000", 0, func(int) *Request { return jitterRequest(3, 10_000, 10_000, 10) }},
		{TestFedLBAPMatchesOLAR, "pruned-10000x1000", 0, jitter(0, 10_000, 1_000)},

		{TestFedLBAPLanesBitIdentical, "ragged-s2000", 0, func(int) *Request { return laneRequest(2_000) }},
		{TestFedLBAPLanesBitIdentical, "ragged-s1.5n", 0, func(int) *Request { return laneRequest(laneUsers + laneUsers/2) }},
		{TestFedLBAPPivotMiss, "sample-low", 0, func(int) *Request { return pivotFleet(true) }},
		{TestFedLBAPPivotMiss, "sample-high", 0, func(int) *Request { return pivotFleet(false) }},
	}
}

// conformEntry runs every row whose entry is the calling test.
func conformEntry(t *testing.T) {
	rows := 0
	for _, f := range families() {
		if !strings.HasSuffix(runtime.FuncForPC(reflect.ValueOf(f.entry).Pointer()).Name(), "."+t.Name()) {
			continue
		}
		rows++
		t.Run(f.name, func(t *testing.T) {
			if f.seeds == 0 {
				conformParallel(t, f.build(0))
			}
			for seed := range f.seeds {
				t.Run(fmt.Sprint(seed), func(t *testing.T) { conformParallel(t, f.build(seed)) })
			}
		})
	}
	if rows == 0 {
		t.Fatal("no conformance rows")
	}
}

// conformParallel runs conform in parallel with the entry's other rows,
// unless req is a fleet whose lanes check sets the lane count.
func conformParallel(t *testing.T, req *Request) {
	if len(req.Users) < fanOutUsers {
		t.Parallel()
	}
	conform(t, req)
}

// conform holds one Fed-LBAP solve of req to every check of the table's
// size rule.
func conform(t *testing.T, req *Request) {
	t.Helper()
	n, s := len(req.Users), req.TotalShards
	solve := func(r *Request) (*Assignment, error) { return FedLBAP{}.Schedule(r, nil) }
	fleet := n >= fanOutUsers
	if fleet {
		prevProcs, prevLanes := runtime.GOMAXPROCS(4), tensor.MaxLanes()
		defer func() {
			tensor.SetMaxLanes(prevLanes)
			runtime.GOMAXPROCS(prevProcs)
		}()
		tensor.SetMaxLanes(0)
	}
	plain, err := solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, plain); err != nil {
		t.Fatal(err)
	}
	if got, want := plain.PredictedMakespan, Makespan(req, plain); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PredictedMakespan %v (%#x), Makespan %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	traced, tracedEv := solveTraced(t, req, solve)
	assertSameSolve(t, "traced vs untraced", traced, nil, plain, nil)
	ref, refEv := solveTraced(t, req, referenceSparse)
	assertSameSolve(t, "vs referenceSparse", traced, tracedEv, ref, refEv)
	if fleet {
		for _, lanes := range []int{1, 3} {
			tensor.SetMaxLanes(lanes)
			got, gotEv := solveTraced(t, req, solve)
			assertSameSolve(t, fmt.Sprintf("lanes=%d vs 0", lanes), got, gotEv, traced, tracedEv)
		}
	}
	if req.totalCapacity() <= denseMax {
		dense, err := denseFedLBAP(req)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		assertSameSolve(t, "vs denseFedLBAP", plain, nil, dense, nil)
	}
	if !finiteCosts(req) {
		return
	}
	opt := olar(req)
	if err := Validate(req, opt); err != nil {
		t.Fatalf("olar: %v", err)
	}
	assertOptimal(t, "olar", plain, opt.PredictedMakespan)
	if n*s*s <= bruteMax {
		opt, err := bruteForce(req)
		if err != nil {
			t.Fatalf("bruteForce: %v", err)
		}
		assertOptimal(t, "bruteForce", plain, opt.PredictedMakespan)
	}
	rng := rand.New(rand.NewSource(1))
	for _, b := range []Scheduler{Proportional{}, Random{}, Equal{}} {
		asg, err := b.Schedule(req, rng)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if m := Makespan(req, asg); !almostLE(plain.PredictedMakespan, m) {
			t.Fatalf("%s's makespan %v beats Fed-LBAP's %v", b.Name(), m, plain.PredictedMakespan)
		}
	}
	if req.K > 0 && n*s <= minAvgMax {
		minAvgIsOLAR(t, req)
	}
}

// finiteCosts reports whether every user's curve runs from a first-shard
// cost of at least 0 to a finite full-capacity cost: the requests on
// which the optimum and the baselines' makespans mean what they say.
func finiteCosts(req *Request) bool {
	for j, u := range req.Users {
		if !(userCost(req, j, 1) >= 0 && userCost(req, j, u.capacity(req.TotalShards)) < math.Inf(1)) {
			return false
		}
	}
	return true
}

// assertOptimal requires asg's makespan to be the optimum opt, up to the
// slack of Fed-LBAP's ≤: its c* is the smallest matrix value feasible
// within that slack, so it can sit at most that far above.
func assertOptimal(t *testing.T, oracle string, asg *Assignment, opt float64) {
	t.Helper()
	if got := asg.PredictedMakespan; !(opt <= got && almostLE(got, opt)) {
		t.Fatalf("makespan %v, %s optimum %v (relative gap %.3g)", got, oracle, opt, (got-opt)/opt)
	}
}

// minAvgIsOLAR is the reduction of DESIGN §5: at β = 0 Fed-MinAvg's
// accuracy cost α·K/|U_j| is a constant per user, and without comm its
// marginal cost T_j((l_j+1)·d) + α·K/|U_j| is OLAR's next-shard cost on
// curves shifted by that constant. So on the users with classes, under
// the shifted costs, Fed-MinAvg's makespan must be olar's.
func minAvgIsOLAR(t *testing.T, req *Request) {
	t.Helper()
	noComm := &Request{TotalShards: req.TotalShards, ShardSize: req.ShardSize, K: req.K, Alpha: req.Alpha}
	shifted := &Request{TotalShards: req.TotalShards, ShardSize: req.ShardSize}
	for _, u := range req.Users {
		v := *u
		v.CommSeconds = 0
		noComm.Users = append(noComm.Users, &v)
		if len(u.Classes) > 0 {
			f := float64(req.Alpha * (float64(req.K) / float64(len(u.Classes))))
			w := v
			w.Cost = func(samples int) float64 { return u.Cost(samples) + f }
			shifted.Users = append(shifted.Users, &w)
		}
	}
	asg, err := FedMinAvg{}.Schedule(noComm, nil)
	if err != nil {
		t.Fatalf("Fed-MinAvg: %v", err)
	}
	kept := &Assignment{}
	for j, u := range noComm.Users {
		if len(u.Classes) > 0 {
			kept.Shards = append(kept.Shards, asg.Shards[j])
		}
	}
	if got, want := Makespan(shifted, kept), olar(shifted).PredictedMakespan; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("β = 0, no comm: Fed-MinAvg's shifted makespan %v, olar's %v", got, want)
	}
}

// randomRequest is the random-linear family: 2 to maxUsers users with
// cost a + b·samples, a comm time, a mean frequency and a class set over
// K = 10 (a fifth of them empty), about 30 % capped at 3–22 shards, 5 to
// maxShards shards of 50 samples, and α in [0, 10). User 0 is uncapped
// and holds a class, so both algorithms can place every shard.
func randomRequest(seed, maxUsers, maxShards int) *Request {
	rng := rand.New(rand.NewSource(int64(seed)))
	users := make([]*User, 2+rng.Intn(maxUsers-1))
	for j := range users {
		users[j] = linUser("u", rng.Float64()*5, 0.005+rng.Float64()*0.1, rng.Float64()*3)
		users[j].MeanFreqGHz = 1 + rng.Float64()*2
		if j == 0 || rng.Float64() < 0.8 {
			users[j].Classes = classSet(uint64(1 + rng.Intn(1023)))
		}
		if j > 0 && rng.Float64() < 0.3 {
			users[j].CapacityShards = 3 + rng.Intn(20)
		}
	}
	return &Request{TotalShards: 5 + rng.Intn(maxShards-4), ShardSize: 50, Users: users, K: 10, Alpha: rng.Float64() * 10}
}

// jitterRequest is the hashed-jitter family: n users hashed from seed and
// their index, no math/rand in the loop, so a fleet of 10^6 is one cheap
// pass. At seed 0 it is the fleet the root package's
// BenchmarkFedLBAPFleet solves: cost a + b·samples, comm 1–2 s, no caps,
// no classes. Any other seed adds a concave r·√samples term (the curves
// stay nondecreasing), caps a third of the users after the first at 1 to
// 2s/n + 1 shards, and gives every user a class set over K = 10 — user
// 0's never empty — under α in [0, 100).
func jitterRequest(seed uint64, n, s, sz int) *Request {
	req := &Request{TotalShards: s, ShardSize: sz, Users: make([]*User, n)}
	if seed != 0 {
		req.K, req.Alpha = 10, float64(fuzzMix(seed)%100)
	}
	for j := range req.Users {
		h := uint64(j)*0x9e3779b97f4a7c15 + 1 + seed*0xd1b54a32d192ed03
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		a := 0.5 + float64(h%1000)/500
		b := 0.005 + float64((h>>10)%1000)/50000
		u := &User{
			Cost:        func(samples int) float64 { return a + b*float64(samples) },
			CommSeconds: 1 + float64((h>>20)%100)/100,
		}
		if seed != 0 {
			g := fuzzMix(h)
			r := float64(g%100) / 10
			u.Cost = func(samples int) float64 { return a + b*float64(samples) + r*math.Sqrt(float64(samples)) }
			if j > 0 && g>>8%3 == 0 {
				u.CapacityShards = 1 + int((g>>16)%uint64(2*s/n+1))
			}
			u.Classes = classSet(g >> 40 % 1024)
			if j == 0 && len(u.Classes) == 0 {
				u.Classes = []int{0}
			}
		}
		req.Users[j] = u
	}
	return req
}

// classSet is the classes whose bits are set in mask.
func classSet(mask uint64) []int {
	var classes []int
	for c := 0; mask>>c != 0; c++ {
		if mask>>c&1 == 1 {
			classes = append(classes, c)
		}
	}
	return classes
}

func TestFedLBAPBasic(t *testing.T) {
	conformEntry(t)
	// The fast user must get the most data, the slow user the least.
	asg, err := FedLBAP{}.Schedule(testRequest(30), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(asg.Shards[0] > asg.Shards[1] && asg.Shards[1] > asg.Shards[2]) {
		t.Fatalf("assignment not speed-ordered: %v", asg.Shards)
	}
}

func TestFedLBAPSingleUser(t *testing.T)                 { conformEntry(t) }
func TestFedLBAPRespectsCapacity(t *testing.T)           { conformEntry(t) }
func TestFedLBAPMatchesBruteForce(t *testing.T)          { conformEntry(t) }
func TestFedLBAPNeverWorseThanBaselines(t *testing.T)    { conformEntry(t) }
func TestFedLBAPMatchesOLAR(t *testing.T)                { conformEntry(t) }
func TestFedLBAPMatchesDenseExactFit(t *testing.T)       { conformEntry(t) }
func TestFedLBAPLargeScaleValid(t *testing.T)            { conformEntry(t) }
func TestFedLBAPDeterministicProbes(t *testing.T)        { conformEntry(t) }
func TestSparseMatchesDenseBasic(t *testing.T)           { conformEntry(t) }
func TestSparseMatchesDenseSingleUser(t *testing.T)      { conformEntry(t) }
func TestSparseMatchesDenseConstantCosts(t *testing.T)   { conformEntry(t) }
func TestSparseMatchesDenseCapacityEdges(t *testing.T)   { conformEntry(t) }
func TestSparseMatchesDenseMidScale(t *testing.T)        { conformEntry(t) }
func TestSparseMatchesDenseProperty(t *testing.T)        { conformEntry(t) }
func TestSparseProbeStreamMatchesReference(t *testing.T) { conformEntry(t) }
