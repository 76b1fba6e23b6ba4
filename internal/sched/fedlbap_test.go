package sched

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// solveTraced runs one solver on req with a fresh log, sized for the
// schedule events and growing past them, and returns the assignment with
// the KindSolver + KindSchedule stream.
func solveTraced(t testing.TB, req *Request, solve func(*Request) (*Assignment, error)) (*Assignment, []trace.Event) {
	t.Helper()
	traced := *req
	traced.Trace = trace.NewLog(len(req.Users) + 128)
	asg, err := solve(&traced)
	if err != nil {
		t.Fatal(err)
	}
	return asg, traced.Trace.Events()
}

// assertSameSolve requires two solves to agree to the bit: shards,
// predicted makespan and every event (nil lists for untraced solves).
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

func TestFedLBAPCostEvalBudget(t *testing.T) {
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
		req := jitterRequest(0, c.n, c.s, 100)
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
	req := jitterRequest(0, 96, 600, 100)
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
	req := jitterRequest(0, 1_000_000, 10_000, 100)
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

// laneUsers is the size of the fleets above fanOutUsers: it leaves a
// ragged last chunk.
const laneUsers = fanOutUsers + 3*chunkUsers/2

// laneRequest is a fleet of laneUsers hashed-jitter users and s shards
// with the awkward ones mixed in: a NaN cost curve every 97th (never
// survives the prune), a curve that starts negative every 89th (floored
// at 0), a negative CapacityShards every 83rd (unlimited, like the zero of
// every other user) and a cap of 1–7 shards every 5th. User 1, in the
// first chunk, is the steepest, so its full-capacity cost alone bounds an
// n ≤ s solve.
func laneRequest(s int) *Request {
	req := jitterRequest(0, laneUsers, s, 100)
	for j, u := range req.Users {
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
	return req
}

func TestFedLBAPLanesBitIdentical(t *testing.T) {
	// Above fanOutUsers the first pass prices its chunks on every lane
	// free and merges their totals in chunk order, so the solve must not
	// depend on the lane count. The table's rows here (conform's lanes
	// check) hold the solve at s = 2,000, where n > s bounds c* by
	// selection among users some of whom cost NaN, and at s = 1.5·n, where
	// n ≤ s bounds it by the merged max.
	conformEntry(t)

	// The errors are req.check()'s at every lane count: a nil Cost in the
	// last chunk, and a total capacity short of s.
	prevProcs, prevLanes := runtime.GOMAXPROCS(4), tensor.MaxLanes()
	t.Cleanup(func() {
		tensor.SetMaxLanes(prevLanes)
		runtime.GOMAXPROCS(prevProcs)
	})
	noCost := laneRequest(2_000)
	noCost.Users[laneUsers-1].Cost = nil
	short := laneRequest(laneUsers + 1)
	for _, u := range short.Users {
		u.CapacityShards = 1
	}
	for _, req := range []*Request{noCost, short} {
		want := req.check()
		if want == nil {
			t.Fatal("request passes req.check()")
		}
		for _, lanes := range []int{0, 1, 3} {
			tensor.SetMaxLanes(lanes)
			if _, err := (FedLBAP{}).Schedule(req, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("lanes=%d: error %v, want %v", lanes, err, want)
			}
		}
	}
}

func TestFedLBAPPrunedUsersPricedOnce(t *testing.T) {
	// The layout by construction: a pruned user's first-shard cost is the
	// only time the solve calls its Cost, traced or not. Everything after
	// the prune reads the survivor records.
	const n, s = 20_000, 200
	for _, traced := range []bool{false, true} {
		req := jitterRequest(0, n, s, 100)
		users := req.Users
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
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
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
					pruneOver(t, fmt.Sprintf("n=%d", n), a, k, sorted[k])
				}
			}
		})
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

// pivotFleet is a fleet of laneUsers users and 2,000 shards whose
// strided sample is its cheapest users (low) or its dearest: every other
// user's comm time grows by 10 s.
func pivotFleet(low bool) *Request {
	req := jitterRequest(0, laneUsers, 2_000, 100)
	sampled := make([]bool, laneUsers)
	for i := range selectSample {
		sampled[i*laneUsers/selectSample] = true
	}
	for j, u := range req.Users {
		if sampled[j] != low {
			u.CommSeconds += 10
		}
	}
	return req
}

func TestFedLBAPPivotMiss(t *testing.T) {
	// On a fleet whose strided sample is its cheapest users, fewer than s
	// users gather at the pivot: the pass misses and runs again, gathering
	// every user and pricing each unsampled one twice. On a fleet whose
	// sample is its dearest users nearly every user gathers, and each
	// chunk outgrows its span. Either way the table's rows here hold the
	// solve to the reference at every lane count.
	for _, low := range []bool{true, false} {
		req := pivotFleet(low)
		a := make([]float64, laneUsers)
		for j := range a {
			a[j] = floorCost(userCost(req, j, 1))
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		s := req.TotalShards
		if missed := pruneOver(t, fmt.Sprintf("sample-low=%v", low), a, s-1, sorted[s-1]); missed != low {
			t.Fatalf("sample-low=%v: pivot missed = %v", low, missed)
		}
	}
	conformEntry(t)
}

func BenchmarkFedLBAPMid(b *testing.B) {
	req := jitterRequest(0, 10_000, 1_000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FedLBAP{}).Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
