package sched

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// assertSparseMatchesDense runs FedLBAP (the implicit-matrix solver) and
// the dense oracle on the request and requires bit-identical shard
// vectors and predicted makespans.
func assertSparseMatchesDense(t testing.TB, req *Request) {
	t.Helper()
	dense, err := denseFedLBAP(req)
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	sparse, err := FedLBAP{}.Schedule(req, nil)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	if len(dense.Shards) != len(sparse.Shards) {
		t.Fatalf("arity: dense %d, sparse %d", len(dense.Shards), len(sparse.Shards))
	}
	for j := range dense.Shards {
		if dense.Shards[j] != sparse.Shards[j] {
			t.Fatalf("shards differ at user %d: dense %v, sparse %v", j, dense.Shards, sparse.Shards)
		}
	}
	if dense.PredictedMakespan != sparse.PredictedMakespan {
		t.Fatalf("predicted makespan differs: dense %v, sparse %v",
			dense.PredictedMakespan, sparse.PredictedMakespan)
	}
	if err := Validate(req, sparse); err != nil {
		t.Fatal(err)
	}
}

func TestSparseMatchesDenseBasic(t *testing.T) {
	assertSparseMatchesDense(t, testRequest(30))
}

func TestSparseMatchesDenseSingleUser(t *testing.T) {
	assertSparseMatchesDense(t, &Request{
		TotalShards: 7, ShardSize: 10, Users: []*User{linUser("only", 0, 0.1, 1)},
	})
}

func TestSparseMatchesDenseConstantCosts(t *testing.T) {
	// All-equal costs make every threshold and every trim step a tie —
	// the worst case for tie-break equivalence between the dense
	// oracle's first-max scan and the solver's trim heap.
	users := make([]*User, 6)
	for j := range users {
		users[j] = &User{Name: "flat", Cost: func(int) float64 { return 2.5 }}
	}
	assertSparseMatchesDense(t, &Request{TotalShards: 10, ShardSize: 100, Users: users})
}

func TestSparseMatchesDenseCapacityEdges(t *testing.T) {
	mk := func() []*User {
		return []*User{
			linUser("fast", 1, 0.010, 2),
			linUser("mid", 2, 0.020, 2),
			linUser("slow", 3, 0.060, 2),
			linUser("spare", 1.5, 0.015, 1),
		}
	}
	cases := []struct {
		name string
		caps [4]int
	}{
		{"unlimited-zero", [4]int{0, 0, 0, 0}},      // capj=0 means unlimited
		{"unlimited-negative", [4]int{-5, 0, 0, 0}}, // negative likewise
		{"over-total", [4]int{100, 0, 0, 0}},        // capj > s clamps to s
		{"tight", [4]int{5, 5, 0, 0}},
		{"mixed", [4]int{3, 100, -1, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			users := mk()
			for j := range users {
				users[j].CapacityShards = c.caps[j]
			}
			assertSparseMatchesDense(t, &Request{TotalShards: 30, ShardSize: 100, Users: users})
		})
	}
}

func TestSparseMatchesDenseExactFit(t *testing.T) {
	// Σ cap_j == TotalShards: everyone is forced to full capacity.
	users := []*User{
		linUser("a", 1, 0.01, 1),
		linUser("b", 2, 0.02, 1),
		linUser("c", 3, 0.03, 1),
	}
	users[0].CapacityShards = 4
	users[1].CapacityShards = 3
	users[2].CapacityShards = 3
	assertSparseMatchesDense(t, &Request{TotalShards: 10, ShardSize: 50, Users: users})
}

func TestSparseMatchesDenseProperty(t *testing.T) {
	// The same instance generator as TestFedLBAPMatchesBruteForce: random
	// linear costs, random comm, ~30% of users capacity-bound.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		users := make([]*User, n)
		for j := range users {
			a := rng.Float64() * 5
			b := 0.005 + rng.Float64()*0.1
			comm := rng.Float64() * 3
			users[j] = linUser("u", a, b, comm)
			if rng.Float64() < 0.3 {
				users[j].CapacityShards = 3 + rng.Intn(20)
			}
		}
		shards := 5 + rng.Intn(40)
		req := &Request{TotalShards: shards, ShardSize: 50, Users: users}
		if req.totalCapacity() < shards {
			return true // infeasible instance; skip
		}
		assertSparseMatchesDense(t, req)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// jitterUsers builds n users with deterministic per-user linear costs —
// the population-scale instance shape, no math/rand in the loop.
func jitterUsers(n int) []*User {
	users := make([]*User, n)
	for j := range users {
		h := uint64(j)*0x9e3779b97f4a7c15 + 1
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		a := 0.5 + float64(h%1000)/500
		b := 0.005 + float64((h>>10)%1000)/50000
		users[j] = &User{
			Cost:        func(samples int) float64 { return a + b*float64(samples) },
			CommSeconds: 1 + float64((h>>20)%100)/100,
		}
	}
	return users
}

func TestSparseMatchesDenseMidScale(t *testing.T) {
	// n=2000, s=200: large enough that pruning and bisection genuinely
	// engage (n ≫ s), still cheap enough to run the dense solver.
	req := &Request{TotalShards: 200, ShardSize: 100, Users: jitterUsers(2000)}
	assertSparseMatchesDense(t, req)
}

func TestSparseLargeScaleValid(t *testing.T) {
	// n=50000, s=2000 — dense would need a 10^8-value sort; sparse must
	// stay fast and produce a valid, capacity-respecting assignment.
	if testing.Short() {
		t.Skip("large instance")
	}
	users := jitterUsers(50000)
	for j := 0; j < len(users); j += 3 {
		users[j].CapacityShards = 1 + j%7
	}
	req := &Request{TotalShards: 2000, ShardSize: 100, Users: users}
	asg, err := FedLBAP{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, asg); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDeterministicProbes(t *testing.T) {
	// Two identical solves must emit identical KindSolver probe streams
	// and identical KindSchedule events.
	run := func() []trace.Event {
		rec := trace.New(0)
		req := &Request{TotalShards: 200, ShardSize: 100, Users: jitterUsers(1000), Trace: rec}
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no trace events emitted")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// solveTraced runs one solver on req with a fresh unbounded recorder and
// returns the assignment with the KindSolver + KindSchedule stream.
func solveTraced(t testing.TB, req *Request, solve func(*Request) (*Assignment, error)) (*Assignment, []trace.Event) {
	t.Helper()
	traced := *req
	traced.Trace = trace.NewLog(0)
	asg, err := solve(&traced)
	if err != nil {
		t.Fatal(err)
	}
	return asg, traced.Trace.Events()
}

// assertSparseMatchesReference requires FedLBAP's bracketed search to be
// indistinguishable from the full-range reference: the same probe
// sequence with the same early-exited feasible counts, the same
// schedule events and the same assignment.
func assertSparseMatchesReference(t testing.TB, req *Request) {
	t.Helper()
	want, wantEv := solveTraced(t, req, referenceSparse)
	got, gotEv := solveTraced(t, req, func(r *Request) (*Assignment, error) {
		return FedLBAP{}.Schedule(r, nil)
	})
	assertSameSolve(t, "bracketed vs reference", got, gotEv, want, wantEv)
}

// assertSameSolve requires two traced solves to agree to the bit: shards,
// predicted makespan and every event.
func assertSameSolve(t testing.TB, what string, got *Assignment, gotEv []trace.Event, want *Assignment, wantEv []trace.Event) {
	t.Helper()
	if !slices.Equal(got.Shards, want.Shards) {
		t.Fatalf("%s: shards differ", what)
	}
	if math.Float64bits(got.PredictedMakespan) != math.Float64bits(want.PredictedMakespan) {
		t.Fatalf("%s: makespan %v, want %v", what, got.PredictedMakespan, want.PredictedMakespan)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d events, want %d", what, len(gotEv), len(wantEv))
	}
	for i := range wantEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("%s: event %d differs:\ngot  %+v\nwant %+v", what, i, gotEv[i], wantEv[i])
		}
	}
}

func TestSparseProbeStreamMatchesReference(t *testing.T) {
	capped := jitterUsers(300)
	for j := range capped {
		capped[j].CapacityShards = []int{0, 1, -3, 1000, 2, 7}[j%6]
	}
	flat := make([]*User, 6)
	for j := range flat {
		flat[j] = &User{Cost: func(int) float64 { return 2.5 }}
	}
	exact := jitterUsers(3)
	exact[0].CapacityShards, exact[1].CapacityShards, exact[2].CapacityShards = 4, 3, 3
	// Values a hair apart: the exact walk meets matrix values inside the
	// float slack of ≤, the case where a survivor's next value sits at or
	// below its lower bracket.
	hair := make([]*User, 5)
	for j := range hair {
		eps := float64(j) * 1e-12
		hair[j] = &User{Cost: func(samples int) float64 { return 1 + eps + 1e-11*float64(samples/100) }}
	}
	// A cost cliff puts c_hi ~100 halvings above c*: the 64 bisection
	// probes run out and the exact walk steps through infeasible matrix
	// values one by one.
	cliff := []*User{
		{Cost: func(samples int) float64 { return float64(samples) / 100 }, CapacityShards: 5},
		{Cost: func(samples int) float64 {
			if samples > 500 {
				return 1e30
			}
			return 0.5 + float64(samples)/100
		}},
	}
	// Galloping edges. A cheap user behind every feasible probe's early
	// exit keeps its bracket top at the capacity: past its cliff at k = 3
	// the first gallop step fails (kmax == klo).
	wall := append(jitterUsers(40), &User{Cost: func(samples int) float64 {
		if samples > 300 {
			return 1e9
		}
		return 0.1
	}})
	// One free user takes every shard: the gallop runs 1, 3, 7, … into its
	// capacity s.
	free := append([]*User{{Cost: func(int) float64 { return 0.5 }}}, jitterUsers(5)...)
	// The same with a capped user: the gallop is cut short at cap 6.
	capped6 := append(jitterUsers(30), &User{Cost: func(int) float64 { return 0.2 }, CapacityShards: 6})
	// The exact walk's candidate 2 lies above hiv ≈ 2 − 2e-9, and user 0
	// is settled at klo = khi = 1 with C[0][2] = 2 + 1e-12 inside the
	// candidate's slack: its search must run up to the capacity.
	over := []*User{tableUser(50, []float64{1, 2 + 1e-12}), tableUser(50, []float64{1.5, 2, 100})}
	over[0].CapacityShards, over[1].CapacityShards = 2, 3
	for _, c := range []struct {
		name string
		req  *Request
	}{
		{"cohort-96x600", &Request{TotalShards: 600, ShardSize: 100, Users: jitterUsers(96)}},
		{"pruned-2000x200", &Request{TotalShards: 200, ShardSize: 100, Users: jitterUsers(2000)}},
		{"capacity-edge", &Request{TotalShards: 400, ShardSize: 100, Users: capped}},
		{"constant-cost", &Request{TotalShards: 10, ShardSize: 100, Users: flat}},
		{"exact-fit", &Request{TotalShards: 10, ShardSize: 50, Users: exact}},
		{"within-slack", &Request{TotalShards: 40, ShardSize: 100, Users: hair}},
		{"long-walk", &Request{TotalShards: 10, ShardSize: 100, Users: cliff}},
		{"gallop-first-step-fails", &Request{TotalShards: 200, ShardSize: 100, Users: wall}},
		{"gallop-to-capacity", &Request{TotalShards: 50, ShardSize: 100, Users: free}},
		{"gallop-to-cap", &Request{TotalShards: 200, ShardSize: 100, Users: capped6}},
		{"walk-over-hiv", &Request{TotalShards: 3, ShardSize: 50, Users: over}},
	} {
		t.Run(c.name, func(t *testing.T) { assertSparseMatchesReference(t, c.req) })
	}
}

// countCosts wraps every user's Cost so the returned counter reads the
// solve's total cost evaluations. A fleet-sized solve prices its users on
// several lanes, so the count is atomic.
func countCosts(users []*User) *atomic.Int64 {
	n := new(atomic.Int64)
	for _, u := range users {
		cost := u.Cost
		u.Cost = func(samples int) float64 { n.Add(1); return cost(samples) }
	}
	return n
}

func TestSparseCostEvalBudget(t *testing.T) {
	// The counts are deterministic, so they gate exactly. The full-range
	// reference spends 50,821 evaluations on the cohort-sized instance and
	// 8,384,261 on the fleet-sized one; bisecting every bracket from end
	// to end spent 3,816 and 2,623,060. Galloping up from klo and
	// skipping settled survivors leaves 2,912 and 1,185,486, of which
	// 10^6 are the fleet's first-shard pass. A traced solve adds one more
	// pricing per shard holder, for its KindSchedule events; an untraced
	// one prices nothing after the makespan.
	for _, c := range []struct {
		n, s, want int
		long       bool
	}{
		{96, 600, 2_912, false},
		{1_000_000, 10_000, 1_185_486, true},
	} {
		if c.long && testing.Short() {
			continue
		}
		req := &Request{TotalShards: c.s, ShardSize: 100, Users: jitterUsers(c.n)}
		evals := countCosts(req.Users)
		asg, err := (FedLBAP{}).Schedule(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d s=%d: %d cost evaluations", c.n, c.s, evals.Load())
		if got := evals.Load(); got != int64(c.want) {
			t.Errorf("n=%d s=%d: %d cost evaluations, want %d", c.n, c.s, got, c.want)
		}
		evals.Store(0)
		req.Trace = trace.New(0)
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := evals.Load(), int64(c.want+asg.Participants()); got != want {
			t.Errorf("n=%d s=%d traced: %d cost evaluations, want %d", c.n, c.s, got, want)
		}
	}
}

func TestFedLBAPCohortAllocs(t *testing.T) {
	// A cohort-sized solve — every fedsim round's — allocates its chunk
	// table, its survivor records (gathered and compacted in place), the
	// shards and the assignment: 4. Before the pass gathered its
	// survivors it made 5, a first-shard cost array among them.
	if raceEnabled {
		t.Skip("allocation counts are pinned for the plain build")
	}
	req := &Request{TotalShards: 600, ShardSize: 100, Users: jitterUsers(96)}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("cohort solve: %v allocations, want ≤ 4", allocs)
	}
}

func TestFedLBAPFleetBytes(t *testing.T) {
	// A solve at 10^6 users × 10^4 shards allocates the 8 MB of returned
	// shards and under 3 MB besides: the presized spans for the ~2 % of
	// the fleet the pass gathers, which become the survivors in place,
	// and their costs for the selection. The first-shard cost array it
	// replaced made it 17.1 MB.
	if testing.Short() {
		t.Skip("builds a fleet of 10^6 users")
	}
	req := &Request{TotalShards: 10_000, ShardSize: 100, Users: jitterUsers(1_000_000)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fleet solve: %d bytes", got)
	if got > 11_000_000 {
		t.Fatalf("fleet solve allocated %d bytes, want ≤ 11,000,000", got)
	}
}

// laneUsers is a fleet of n hashed-jitter users with the awkward ones
// mixed in: a NaN cost curve every 97th (never survives the prune), a
// curve that starts negative every 89th (floored at 0), a negative
// CapacityShards every 83rd (unlimited, like the zero of every other
// user) and a cap of 1–7 shards every 5th. User 1, in the first chunk,
// is the steepest, so its full-capacity cost alone bounds an n ≤ s solve.
func laneUsers(n int) []*User {
	users := jitterUsers(n)
	for j, u := range users {
		switch {
		case j == 1:
			u.Cost = func(samples int) float64 { return 1 + 0.1*float64(samples) }
		case j%97 == 0:
			u.Cost = func(int) float64 { return math.NaN() }
		case j%89 == 0:
			u.Cost = func(samples int) float64 { return -3 + 0.01*float64(samples) }
		case j%83 == 0:
			u.CapacityShards = -1
		case j%5 == 0:
			u.CapacityShards = 1 + j%7
		}
	}
	return users
}

func TestFedLBAPLanesBitIdentical(t *testing.T) {
	// Above fanOutUsers the first pass prices its chunks on every lane
	// free and merges their totals in chunk order, so the solve must not
	// depend on the lane count: the same shards, makespan and solver and
	// schedule events with one lane and three as with none. n > s bounds
	// c* by selection among users some of whom cost NaN, n ≤ s by the
	// merged max; for a selection or a merge that is wrong at every lane
	// count, the solve must also match the full-range reference at both.
	// Each n leaves a ragged last chunk.
	prevProcs := runtime.GOMAXPROCS(4)
	prevLanes := tensor.MaxLanes()
	t.Cleanup(func() {
		tensor.SetMaxLanes(prevLanes)
		runtime.GOMAXPROCS(prevProcs)
	})
	n := fanOutUsers + 3*chunkUsers/2
	solve := func(r *Request) (*Assignment, error) { return FedLBAP{}.Schedule(r, nil) }
	for _, s := range []int{2_000, n + n/2} {
		req := &Request{TotalShards: s, ShardSize: 100, Users: laneUsers(n)}
		tensor.SetMaxLanes(0)
		want, wantEv := solveTraced(t, req, solve)
		ref, refEv := solveTraced(t, req, referenceSparse)
		assertSameSolve(t, fmt.Sprintf("s=%d lanes=0 vs reference", s), want, wantEv, ref, refEv)
		for _, lanes := range []int{1, 3} {
			tensor.SetMaxLanes(lanes)
			got, gotEv := solveTraced(t, req, solve)
			assertSameSolve(t, fmt.Sprintf("s=%d lanes=%d vs 0", s, lanes), got, gotEv, want, wantEv)
		}
	}

	// The errors are req.check()'s at every lane count: a nil Cost in the
	// last chunk, and a total capacity short of s.
	noCost := laneUsers(n)
	noCost[n-1].Cost = nil
	short := laneUsers(n)
	for _, u := range short {
		u.CapacityShards = 1
	}
	for _, req := range []*Request{
		{TotalShards: 2_000, ShardSize: 100, Users: noCost},
		{TotalShards: n + 1, ShardSize: 100, Users: short},
	} {
		want := req.check()
		if want == nil {
			t.Fatal("request passes req.check()")
		}
		for _, lanes := range []int{0, 1, 3} {
			tensor.SetMaxLanes(lanes)
			if _, err := solve(req); err == nil || err.Error() != want.Error() {
				t.Fatalf("lanes=%d: error %v, want %v", lanes, err, want)
			}
		}
	}
}

func TestSparsePrunedUsersPricedOnce(t *testing.T) {
	// The layout by construction: a pruned user's first-shard cost is the
	// only time the solve calls its Cost, traced or not. Everything after
	// the prune reads the survivor records.
	const n, s = 20_000, 200
	for _, traced := range []bool{false, true} {
		users := jitterUsers(n)
		req := &Request{TotalShards: s, ShardSize: 100, Users: users}
		first := make([]float64, n)
		for j := range users {
			first[j] = floorCost(userCost(req, j, 1))
		}
		sorted := append([]float64(nil), first...)
		sort.Float64s(sorted)
		lim := slackAbove(sorted[s-1])
		calls := make([]int, n)
		for j, u := range users {
			cost, j := u.Cost, j
			u.Cost = func(samples int) float64 { calls[j]++; return cost(samples) }
		}
		if traced {
			req.Trace = trace.New(0)
		}
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for j := range users {
			if first[j] > lim {
				pruned++
				if calls[j] != 1 {
					t.Fatalf("traced=%v: pruned user %d priced %d times, want 1", traced, j, calls[j])
				}
			}
		}
		if pruned < n-2*s {
			t.Fatalf("traced=%v: only %d of %d users pruned", traced, pruned, n)
		}
	}
}

// olarUsers is a fleet of n users whose curves mix a linear term with a
// concave √ term (nondecreasing, like fuzzRequest's), every third user
// capacity-bound.
func olarUsers(n, s int) []*User {
	users := make([]*User, n)
	for j := range users {
		h := fuzzMix(uint64(j) * 0x100000001b3)
		rate := float64(h%1000+1) / 1e5
		root := float64((h>>10)%100) / 100
		users[j] = &User{
			Cost:        func(samples int) float64 { return rate*float64(samples) + root*math.Sqrt(float64(samples)) },
			CommSeconds: float64((h>>20)%500) / 100,
		}
		if j%3 == 1 {
			users[j].CapacityShards = 1 + int((h>>32)%uint64(2*s/n+1))
		}
	}
	return users
}

func TestFedLBAPMatchesOLAR(t *testing.T) {
	// Pilla 2020's greedy reaches the optimal makespan by a route that
	// shares nothing with the threshold search; FedLBAP must land on it up
	// to the slack of its ≤ (its c* is the smallest matrix value that is
	// feasible within the slack, so it can sit at most that far above).
	for _, c := range []struct {
		name string
		req  *Request
	}{
		{"jitter-1000x10000", &Request{TotalShards: 10_000, ShardSize: 100, Users: jitterUsers(1_000)}},
		{"jitter-10000x100000", &Request{TotalShards: 100_000, ShardSize: 100, Users: jitterUsers(10_000)}},
		{"capped-1000x100000", &Request{TotalShards: 100_000, ShardSize: 10, Users: olarUsers(1_000, 100_000)}},
		{"capped-10000x10000", &Request{TotalShards: 10_000, ShardSize: 10, Users: olarUsers(10_000, 10_000)}},
		{"pruned-10000x1000", &Request{TotalShards: 1_000, ShardSize: 100, Users: jitterUsers(10_000)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			asg, err := FedLBAP{}.Schedule(c.req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(c.req, asg); err != nil {
				t.Fatal(err)
			}
			want := olar(c.req)
			if err := Validate(c.req, want); err != nil {
				t.Fatalf("OLAR: %v", err)
			}
			got, opt := asg.PredictedMakespan, want.PredictedMakespan
			if !(opt <= got && almostLE(got, opt)) {
				t.Fatalf("makespan %v, OLAR optimum %v (relative gap %.3g)", got, opt, (got-opt)/opt)
			}
		})
	}
}

func TestSelectKth(t *testing.T) {
	vals := []float64{5, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	sorted := []float64{1, 1, 2, 3, 4, 5, 5, 5, 6, 9}
	for k := range sorted {
		a := append([]float64(nil), vals...)
		if got := selectKth(a, k); got != sorted[k] {
			t.Fatalf("selectKth(%d) = %v, want %v", k, got, sorted[k])
		}
	}
	one := []float64{7}
	if selectKth(one, 0) != 7 {
		t.Fatal("single-element select")
	}

	// prune's c_hi against a sorted copy, on a fleet whose first-shard
	// costs are the values. The sizes straddle the sample; n =
	// 4·selectSample samples every fourth value, which the two "hidden"
	// orders fill with values from the far end: hidden-low puts the
	// sample above the rest, so the chunks outgrow their spans, and
	// hidden-high puts it below, so the pivot misses and the pass runs
	// again. The all-equal inputs gather everything at once.
	for _, c := range []struct {
		name  string
		order func(i, n int) float64
	}{
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"all-equal", func(i, n int) float64 { return 3.5 }},
		{"two-valued", func(i, n int) float64 { return float64(i % 2) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
		{"hidden-low", func(i, n int) float64 {
			if i%4 == 0 {
				return float64(n + i)
			}
			return float64(i)
		}},
		{"hidden-high", func(i, n int) float64 {
			if i%4 == 0 {
				return float64(i)
			}
			return float64(n + i)
		}},
	} {
		for _, n := range []int{2, 3, selectSample - 1, selectSample, selectSample + 1, 4 * selectSample, 100_003} {
			a := make([]float64, n)
			for i := range a {
				a[i] = c.order(i, n)
			}
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			// n − 2 is the bound's k when n = s + 1; n − 1 is s = n, the
			// max full-capacity cost of the flat curves.
			for _, k := range []int{0, n / 100, 10, n / 2, n - 10, n - 2, n - 1} {
				if k < 0 || k >= n {
					continue
				}
				pruneOver(t, fmt.Sprintf("%s n=%d", c.name, n), a, k, sorted[k])
			}
		}
	}
}

// pruneOver runs prune at s = k+1 on a fleet whose first-shard costs are
// a — user j's curve flat at a[j], no communication time — and requires
// c_hi = want and the survivors to be every user at or below
// slackAbove(want), in user order. It also requires the pass to price
// each user once (twice at n ≤ s, where the full-capacity cost is priced
// too), or, when the pivot misses, every unsampled user twice. It reports
// whether the pivot missed.
func pruneOver(t *testing.T, what string, a []float64, k int, want float64) bool {
	t.Helper()
	n := len(a)
	users := make([]*User, n)
	for j, v := range a {
		users[j] = &User{Cost: func(int) float64 { return v }}
	}
	calls := countCosts(users)
	recs, chi, err := prune(&Request{TotalShards: k + 1, ShardSize: 1, Users: users})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if chi != want {
		t.Fatalf("%s: c_hi at k=%d = %v, want %v", what, k, chi, want)
	}
	lim, i := slackAbove(want), 0
	for j, v := range a {
		if v > lim {
			continue
		}
		if i == len(recs) || recs[i].user != j {
			t.Fatalf("%s k=%d: survivor %d is not user %d", what, k, i, j)
		}
		i++
	}
	if i != len(recs) {
		t.Fatalf("%s k=%d: %d survivors, want %d", what, k, len(recs), i)
	}
	once, missed := int64(n), int64(2*n-min(n, selectSample))
	if k+1 >= n {
		once, missed = 2*int64(n), 2*int64(n)
	}
	switch calls.Load() {
	case once:
		return false
	case missed:
		return true
	}
	t.Fatalf("%s k=%d: %d cost evaluations, want %d (or %d after a miss)", what, k, calls.Load(), once, missed)
	return false
}

func TestFedLBAPPivotMiss(t *testing.T) {
	// Above fanOutUsers, on a fleet whose strided sample is its cheapest
	// users, fewer than s users gather at the pivot: the pass misses and
	// runs again, gathering every user and pricing each unsampled one
	// twice. On a fleet whose sample is its dearest users nearly every
	// user gathers, and each chunk outgrows its span. Either way the
	// solve is the full-range reference's, at every lane count.
	prevProcs := runtime.GOMAXPROCS(4)
	prevLanes := tensor.MaxLanes()
	t.Cleanup(func() {
		tensor.SetMaxLanes(prevLanes)
		runtime.GOMAXPROCS(prevProcs)
	})
	const s = 2_000
	n := fanOutUsers + 3*chunkUsers/2
	sampled := make([]bool, n)
	for i := range selectSample {
		sampled[i*n/selectSample] = true
	}
	solve := func(r *Request) (*Assignment, error) { return FedLBAP{}.Schedule(r, nil) }
	for _, c := range []struct {
		name       string
		sampleLow  bool
		wantMissed bool
	}{
		{"sample-low", true, true},
		{"sample-high", false, false},
	} {
		users := jitterUsers(n)
		a := make([]float64, n)
		for j, u := range users {
			if sampled[j] != c.sampleLow {
				u.CommSeconds += 10
			}
			a[j] = floorCost(u.Cost(100) + u.CommSeconds)
		}
		req := &Request{TotalShards: s, ShardSize: 100, Users: users}
		tensor.SetMaxLanes(0)
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		if missed := pruneOver(t, c.name, a, s-1, sorted[s-1]); missed != c.wantMissed {
			t.Fatalf("%s: pivot missed = %v, want %v", c.name, missed, c.wantMissed)
		}
		want, wantEv := solveTraced(t, req, referenceSparse)
		for _, lanes := range []int{0, 1, 3} {
			tensor.SetMaxLanes(lanes)
			got, gotEv := solveTraced(t, req, solve)
			assertSameSolve(t, fmt.Sprintf("%s lanes=%d vs reference", c.name, lanes), got, gotEv, want, wantEv)
		}
	}
}

func BenchmarkSparseFedLBAPMid(b *testing.B) {
	req := &Request{TotalShards: 1000, ShardSize: 100, Users: jitterUsers(10000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
