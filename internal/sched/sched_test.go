package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// linUser builds a user with cost a + b·samples (a charged only via Cost
// shape; comm passed separately).
func linUser(name string, a, b, comm float64) *User {
	return &User{
		Name:        name,
		Cost:        func(n int) float64 { return a + b*float64(n) },
		CommSeconds: comm,
	}
}

func testRequest(shards int) *Request {
	return &Request{
		TotalShards: shards,
		ShardSize:   100,
		Users: []*User{
			linUser("fast", 1, 0.010, 2),
			linUser("mid", 2, 0.020, 2),
			linUser("slow", 3, 0.060, 2),
		},
	}
}

// tableUser's cost is looked up per shard count, so a test can hand the
// solver any curve at all — Property 1 included or not.
func tableUser(shardSize int, costs []float64) *User {
	return &User{Name: "table", Cost: func(n int) float64 { return costs[n/shardSize-1] }}
}

// solveWithin runs FedLBAP under a deadline, so a solver that stops
// making progress fails the test instead of hanging it.
func solveWithin(t *testing.T, req *Request) (*Assignment, error) {
	t.Helper()
	const d = 10 * time.Second
	type result struct {
		asg *Assignment
		err error
	}
	done := make(chan result, 1)
	//fedlint:allow nondet — test watchdog: the spawn only bounds the solve's wall time
	go func() {
		asg, err := FedLBAP{}.Schedule(req, nil)
		done <- result{asg, err}
	}()
	select {
	case r := <-done:
		return r.asg, r.err
	case <-time.After(d):
		t.Fatalf("FedLBAP did not return within %v (n=%d, s=%d)", d, len(req.Users), req.TotalShards)
		return nil, nil
	}
}

func TestFedLBAPNonMonotoneCostGuard(t *testing.T) {
	// A curve that really decreases: the first shard costs 5, every larger
	// load 1. The bound (the full-capacity cost, 1) then prunes the only
	// user, no threshold is feasible, and the walk — out of matrix values
	// to advance to — must say so, not spin.
	costs := []float64{5, 1, 1, 1, 1, 1, 1, 1}
	req := &Request{TotalShards: len(costs), ShardSize: 100, Users: []*User{tableUser(100, costs)}}
	if _, err := solveWithin(t, req); !errors.Is(err, ErrNotMonotone) {
		t.Fatalf("err = %v, want ErrNotMonotone", err)
	}
}

func TestFedLBAPNonMonotoneTerminates(t *testing.T) {
	// Property 1 violated on purpose: every cost is an independent uniform
	// draw. Optimality is off the table, but every solve must return, with
	// a Validate-clean assignment or ErrNotMonotone.
	rng := rand.New(rand.NewSource(18))
	instances := 20000
	if testing.Short() {
		instances = 2000
	}
	named := 0
	for it := 0; it < instances; it++ {
		n, s := 1+rng.Intn(6), 1+rng.Intn(30)
		users := make([]*User, n)
		for j := range users {
			costs := make([]float64, s)
			for k := range costs {
				costs[k] = rng.Float64() * 10
			}
			users[j] = tableUser(50, costs)
			users[j].CommSeconds = rng.Float64()
			if j > 0 && rng.Float64() < 0.3 {
				users[j].CapacityShards = 1 + rng.Intn(s)
			}
		}
		req := &Request{TotalShards: s, ShardSize: 50, Users: users}
		asg, err := solveWithin(t, req)
		if errors.Is(err, ErrNotMonotone) {
			named++
			continue
		}
		if err != nil {
			t.Fatalf("instance %d: %v", it, err)
		}
		if err := Validate(req, asg); err != nil {
			t.Fatalf("instance %d: %v", it, err)
		}
	}
	t.Logf("%d instances: %d ErrNotMonotone, %d valid assignments", instances, named, instances-named)
}

func TestRequestValidation(t *testing.T) {
	if _, err := (FedLBAP{}).Schedule(&Request{TotalShards: 0, ShardSize: 1, Users: []*User{linUser("u", 0, 1, 0)}}, nil); err == nil {
		t.Fatal("zero shards must fail")
	}
	if _, err := (FedLBAP{}).Schedule(&Request{TotalShards: 1, ShardSize: 0, Users: []*User{linUser("u", 0, 1, 0)}}, nil); err == nil {
		t.Fatal("zero shard size must fail")
	}
	if _, err := (FedLBAP{}).Schedule(&Request{TotalShards: 1, ShardSize: 1}, nil); err == nil {
		t.Fatal("no users must fail")
	}
	bad := &Request{TotalShards: 10, ShardSize: 1, Users: []*User{{Name: "nocost"}}}
	if _, err := (FedLBAP{}).Schedule(bad, nil); err == nil {
		t.Fatal("missing cost function must fail")
	}
	tight := testRequest(30)
	for _, u := range tight.Users {
		u.CapacityShards = 5
	}
	if _, err := (FedLBAP{}).Schedule(tight, nil); err == nil {
		t.Fatal("insufficient capacity must fail")
	}
}

func TestEqualSplit(t *testing.T) {
	req := testRequest(30)
	asg, err := Equal{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range asg.Shards {
		if k != 10 {
			t.Fatalf("equal split broken: %v", asg.Shards)
		}
	}
	// Remainder handling.
	req.TotalShards = 31
	asg, _ = Equal{}.Schedule(req, nil)
	if err := Validate(req, asg); err != nil {
		t.Fatal(err)
	}
}

func TestProportionalFollowsFrequency(t *testing.T) {
	req := testRequest(40)
	req.Users[0].MeanFreqGHz = 3.0
	req.Users[1].MeanFreqGHz = 1.0
	req.Users[2].MeanFreqGHz = 1.0
	asg, err := Proportional{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Shards[0] != 24 || asg.Shards[1] != 8 || asg.Shards[2] != 8 {
		t.Fatalf("proportional split %v, want [24 8 8]", asg.Shards)
	}
}

func TestRandomValidAndVaries(t *testing.T) {
	req := testRequest(50)
	rng := rand.New(rand.NewSource(1))
	a, err := Random{}.Schedule(req, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, a); err != nil {
		t.Fatal(err)
	}
	b, _ := Random{}.Schedule(req, rng)
	same := true
	for j := range a.Shards {
		if a.Shards[j] != b.Shards[j] {
			same = false
		}
	}
	if same {
		t.Fatal("two random draws identical — suspicious")
	}
	if _, err := (Random{}).Schedule(req, nil); err == nil {
		t.Fatal("Random without rng must fail")
	}
}

func TestBaselinesRespectCapacity(t *testing.T) {
	req := testRequest(30)
	req.Users[0].CapacityShards = 2
	rng := rand.New(rand.NewSource(2))
	for _, s := range []Scheduler{Proportional{}, Random{}, Equal{}} {
		asg, err := s.Schedule(req, rng)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := Validate(req, asg); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func nonIIDRequest(shards int, alpha, beta float64) *Request {
	req := testRequest(shards)
	req.K = 10
	req.Alpha = alpha
	req.Beta = beta
	req.Users[0].Classes = []int{0, 1, 2, 3, 4, 5, 6, 7} // fast, many classes
	req.Users[1].Classes = []int{0, 1}                   // mid, few classes
	req.Users[2].Classes = []int{8, 9}                   // slow, unique classes
	return req
}

func TestFedMinAvgRequiresK(t *testing.T) {
	req := testRequest(10)
	if _, err := (FedMinAvg{}).Schedule(req, nil); err == nil {
		t.Fatal("Fed-MinAvg without K must fail")
	}
}

func TestFedMinAvgValidAssignment(t *testing.T) {
	req := nonIIDRequest(30, 100, 0)
	asg, err := FedMinAvg{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, asg); err != nil {
		t.Fatal(err)
	}
	if asg.PredictedAvgCost <= 0 {
		t.Fatal("avg cost not reported")
	}
}

func TestFedMinAvgAlphaShiftsLoadToClassRichUsers(t *testing.T) {
	// With small α the fast users dominate; with huge α the class-rich
	// user 0 must absorb nearly everything (paper Fig 6 / Table IV trend).
	small, err := FedMinAvg{}.Schedule(nonIIDRequest(40, 1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := FedMinAvg{}.Schedule(nonIIDRequest(40, 100000, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if big.Shards[0] <= small.Shards[0] {
		t.Fatalf("α did not shift load to class-rich user: small=%v big=%v", small.Shards, big.Shards)
	}
	if big.Shards[2] != 0 {
		t.Fatalf("huge α should exclude the class-poor slow user: %v", big.Shards)
	}
}

func TestFedMinAvgBetaPullsInUnseenClasses(t *testing.T) {
	// User 2 holds classes {8,9} that nobody else has. With β=0 and a slow
	// device it may be excluded; a large β must pull it in.
	reqNoBeta := nonIIDRequest(40, 5000, 0)
	noBeta, err := FedMinAvg{}.Schedule(reqNoBeta, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqBeta := nonIIDRequest(40, 5000, 500)
	withBeta, err := FedMinAvg{}.Schedule(reqBeta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noBeta.Shards[2] != 0 {
		t.Fatalf("precondition: slow unique-class user should be excluded at α=5000, β=0: %v", noBeta.Shards)
	}
	if withBeta.Shards[2] == 0 {
		t.Fatalf("β discount failed to include unseen-class user: %v", withBeta.Shards)
	}
}

func TestFedMinAvgClosesFullBins(t *testing.T) {
	req := nonIIDRequest(30, 10, 0)
	req.Users[0].CapacityShards = 3
	asg, err := FedMinAvg{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Shards[0] > 3 {
		t.Fatalf("capacity violated: %v", asg.Shards)
	}
	if err := Validate(req, asg); err != nil {
		t.Fatal(err)
	}
}

func TestFedMinAvgAllUsersClassless(t *testing.T) {
	req := testRequest(10)
	req.K = 10
	req.Alpha = 1
	for _, u := range req.Users {
		u.Classes = nil
	}
	if _, err := (FedMinAvg{}).Schedule(req, nil); err == nil {
		t.Fatal("classless population must fail")
	}
}

func TestFedMinAvgZeroAlphaMinimizesTime(t *testing.T) {
	// With α=0 the accuracy term vanishes; the greedy should then look
	// like a pure time-greedy and load the fast user most.
	req := nonIIDRequest(30, 0, 0)
	asg, err := FedMinAvg{}.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(asg.Shards[0] >= asg.Shards[1] && asg.Shards[1] >= asg.Shards[2]) {
		t.Fatalf("time-greedy ordering broken: %v", asg.Shards)
	}
}

func TestFedLBAPErrorsAreCheckErrors(t *testing.T) {
	// The solve validates in its own pass over the users but reports
	// through req.check(), so every message is the one check() writes.
	tight := testRequest(30)
	for _, u := range tight.Users {
		u.CapacityShards = 5
	}
	for _, req := range []*Request{
		{TotalShards: 0, ShardSize: 1, Users: []*User{linUser("u", 0, 1, 0)}},
		{TotalShards: 1, ShardSize: 0, Users: []*User{linUser("u", 0, 1, 0)}},
		{TotalShards: 1, ShardSize: 1},
		{TotalShards: 10, ShardSize: 1, Users: []*User{linUser("u", 0, 1, 0), {Name: "nocost"}}},
		tight,
	} {
		_, err := FedLBAP{}.Schedule(req, nil)
		want := req.check()
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Schedule error %v, check() %v", err, want)
		}
	}
}

func TestRescaleNoPositiveShare(t *testing.T) {
	// assignedOnly with every floor share 0 used to deal forever: the
	// remainder now goes to the users holding shards, or to everyone if
	// nobody does. Cases with a positive share keep their old result.
	for _, c := range []struct {
		shards       []int
		total, n     int
		assignedOnly bool
		want         []int
	}{
		{[]int{100, 100, 100, 100, 100, 100}, 600, 5, true, []int{1, 1, 1, 1, 1, 0}},
		{[]int{0, 300, 0, 300}, 600, 1, true, []int{0, 1, 0, 0}},
		{[]int{0, 300, 0, 300}, 600, 3, true, []int{0, 2, 0, 1}},
		{[]int{0, 0, 0}, 600, 2, true, []int{1, 1, 0}},
		{[]int{3, 0, 2}, 5, 7, true, []int{5, 0, 2}},
		{[]int{3, 0, 2}, 5, 8, false, []int{5, 0, 3}},
		{[]int{100, 100, 100}, 600, 2, false, []int{1, 1, 0}},
	} {
		done := make(chan []int, 1)
		//fedlint:allow nondet — test watchdog: the spawn only bounds Rescale's wall time
		go func() { done <- (&Assignment{Shards: c.shards}).Rescale(c.total, c.n, c.assignedOnly) }()
		select {
		case got := <-done:
			for j := range c.want {
				if got[j] != c.want[j] {
					t.Fatalf("Rescale(%d, %d, %v) of %v = %v, want %v", c.total, c.n, c.assignedOnly, c.shards, got, c.want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Rescale(%d, %d, %v) of %v did not return", c.total, c.n, c.assignedOnly, c.shards)
		}
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := &Assignment{Shards: []int{3, 0, 2}}
	s := a.Samples(100)
	if s[0] != 300 || s[1] != 0 || s[2] != 200 {
		t.Fatalf("samples %v", s)
	}
	if a.Participants() != 2 {
		t.Fatalf("participants %d", a.Participants())
	}
}

func TestMakespanAndValidate(t *testing.T) {
	req := testRequest(6)
	asg := &Assignment{Shards: []int{6, 0, 0}}
	// user0: 1 + 0.01*600 + 2 comm = 9
	if m := Makespan(req, asg); math.Abs(m-9) > 1e-9 {
		t.Fatalf("makespan %v, want 9", m)
	}
	if err := Validate(req, asg); err != nil {
		t.Fatal(err)
	}
	if err := Validate(req, &Assignment{Shards: []int{5, 0, 0}}); err == nil {
		t.Fatal("short assignment must fail validation")
	}
	if err := Validate(req, &Assignment{Shards: []int{7, -1, 0}}); err == nil {
		t.Fatal("negative assignment must fail validation")
	}
	if err := Validate(req, &Assignment{Shards: []int{6, 0}}); err == nil {
		t.Fatal("wrong arity must fail validation")
	}
}

func BenchmarkFedLBAP(b *testing.B) {
	users := make([]*User, 10)
	for j := range users {
		a := float64(j) * 0.3
		slope := 0.005 + 0.01*float64(j%4)
		users[j] = linUser("u", a, slope, 1)
	}
	req := &Request{TotalShards: 600, ShardSize: 100, Users: users}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedMinAvg(b *testing.B) {
	users := make([]*User, 10)
	for j := range users {
		users[j] = linUser("u", float64(j)*0.3, 0.005+0.01*float64(j%4), 1)
		users[j].Classes = []int{j % 10, (j + 1) % 10, (j + 2) % 10}
	}
	req := &Request{TotalShards: 600, ShardSize: 100, Users: users, K: 10, Alpha: 100, Beta: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FedMinAvg{}).Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
