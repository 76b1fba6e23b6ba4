package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	traced.Trace = trace.New(0)
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
	if len(gotEv) != len(wantEv) {
		t.Fatalf("event counts differ: bracketed %d, reference %d", len(gotEv), len(wantEv))
	}
	for i := range wantEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("event %d differs:\nbracketed %+v\nreference %+v", i, gotEv[i], wantEv[i])
		}
	}
	for j := range want.Shards {
		if got.Shards[j] != want.Shards[j] {
			t.Fatalf("shards differ at user %d: bracketed %d, reference %d", j, got.Shards[j], want.Shards[j])
		}
	}
	if got.PredictedMakespan != want.PredictedMakespan {
		t.Fatalf("predicted makespan differs: bracketed %v, reference %v", got.PredictedMakespan, want.PredictedMakespan)
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
	} {
		t.Run(c.name, func(t *testing.T) { assertSparseMatchesReference(t, c.req) })
	}
}

// countCosts wraps every user's Cost so the returned counter reads the
// solve's total cost evaluations.
func countCosts(users []*User) *int {
	n := new(int)
	for _, u := range users {
		cost := u.Cost
		u.Cost = func(samples int) float64 { *n++; return cost(samples) }
	}
	return n
}

func TestSparseCostEvalBudget(t *testing.T) {
	// The counts are deterministic, so the budgets gate exactly: the
	// full-range reference spends 50,821 evaluations on the cohort-sized
	// instance and 8,384,261 on the fleet-sized one.
	for _, c := range []struct {
		n, s, budget int
		long         bool
	}{
		{96, 600, 6_500, false},
		{1_000_000, 10_000, 3_200_000, true},
	} {
		if c.long && testing.Short() {
			continue
		}
		req := &Request{TotalShards: c.s, ShardSize: 100, Users: jitterUsers(c.n)}
		evals := countCosts(req.Users)
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d s=%d: %d cost evaluations", c.n, c.s, *evals)
		if *evals > c.budget {
			t.Errorf("n=%d s=%d: %d cost evaluations, budget %d", c.n, c.s, *evals, c.budget)
		}
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
