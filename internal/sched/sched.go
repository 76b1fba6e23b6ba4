// Package sched implements the paper's scheduling algorithms — Fed-LBAP
// (Algorithm 1, IID data) and Fed-MinAvg (Algorithm 2, non-IID data) — plus
// the evaluation baselines (Proportional, Random, Equal) and a brute-force
// exact solver used as a test oracle. Workload is expressed in data shards
// (the paper's minimum granularity, e.g. 100 samples/shard); costs come
// from profiled T_j(D) curves plus per-epoch communication time.
package sched

import (
	"fmt"
	"math"
	"math/rand"

	"fedsched/internal/trace"
)

// User is one candidate participant.
type User struct {
	// Name identifies the device (diagnostics only).
	Name string
	// Cost predicts the training time in seconds for n samples (T_j^c).
	// Fed-LBAP prices a request of 2^16 users or more on several
	// goroutines at once, so Cost must be safe for concurrent use. The
	// in-tree sources are: profile.Line.Predict and the population cost
	// line are pure, DeviceProfile.Line memoizes through a sync.Map and
	// OnlineProfile.Predict holds its mutex.
	Cost func(samples int) float64
	// CommSeconds is the per-epoch communication time T_j^u(M)+T_j^d(M),
	// incurred once if the user participates at all.
	CommSeconds float64
	// CapacityShards is C_j: the maximum shards this user can take
	// (storage/battery bound). Zero or negative means unlimited.
	CapacityShards int
	// Classes is the user's class coverage U_j (non-IID scheduling only).
	Classes []int
	// MeanFreqGHz is the device's mean maximum core frequency, used by the
	// Proportional baseline.
	MeanFreqGHz float64
}

// capacity returns the effective shard capacity.
func (u *User) capacity(totalShards int) int {
	if u.CapacityShards <= 0 || u.CapacityShards > totalShards {
		return totalShards
	}
	return u.CapacityShards
}

// Request describes one scheduling problem: distribute TotalShards shards
// of ShardSize samples each among the users.
type Request struct {
	TotalShards int
	ShardSize   int
	Users       []*User

	// Non-IID knobs (Fed-MinAvg): K is the number of classes in the test
	// set; Alpha weighs the accuracy cost; Beta rewards users holding
	// classes missing from the current coverage (Eq. 6).
	K     int
	Alpha float64
	Beta  float64

	// Trace, when non-nil, receives one KindSchedule event per user of the
	// computed assignment, and — for Fed-LBAP — one KindSolver event per
	// threshold probe of the binary search. Schedulers are sequential, so
	// they emit directly.
	Trace *trace.Recorder
}

// totalCapacity returns the sum of user capacities.
func (r *Request) totalCapacity() int {
	c := 0
	for _, u := range r.Users {
		c += u.capacity(r.TotalShards)
	}
	return c
}

func (r *Request) check() error {
	if r.TotalShards <= 0 {
		return fmt.Errorf("sched: TotalShards = %d, want > 0", r.TotalShards)
	}
	if r.ShardSize <= 0 {
		return fmt.Errorf("sched: ShardSize = %d, want > 0", r.ShardSize)
	}
	if len(r.Users) == 0 {
		return fmt.Errorf("sched: no users")
	}
	for i, u := range r.Users {
		if u.Cost == nil {
			return fmt.Errorf("sched: user %d (%s) has no cost function", i, u.Name)
		}
	}
	if cap := r.totalCapacity(); cap < r.TotalShards {
		return fmt.Errorf("sched: total capacity %d shards < %d required", cap, r.TotalShards)
	}
	return nil
}

// Assignment is a schedule: Shards[j] shards to user j.
type Assignment struct {
	Shards []int
	// PredictedMakespan is max_j (T_j(D_j)+comm_j) under the cost model.
	PredictedMakespan float64
	// PredictedAvgCost is Fed-MinAvg's objective value (0 for others).
	PredictedAvgCost float64
	// Algorithm names the scheduler that produced the assignment.
	Algorithm string
}

// Samples returns the per-user sample counts.
func (a *Assignment) Samples(shardSize int) []int {
	out := make([]int, len(a.Shards))
	for i, s := range a.Shards {
		out[i] = s * shardSize
	}
	return out
}

// Rescale maps the assignment — computed over totalShards at paper
// scale — onto a reduced dataset of n samples: each user keeps its share,
// rounded down, and the remainder is dealt one sample at a time in user
// order. With assignedOnly the remainder only goes to users that already
// hold data, so a Fed-MinAvg schedule's excluded users stay excluded;
// when no share survives the rounding, it goes to the users holding
// shards (everyone, if nobody does).
func (a *Assignment) Rescale(totalShards, n int, assignedOnly bool) []int {
	sizes := make([]int, len(a.Shards))
	assigned := 0
	for j, sh := range a.Shards {
		sizes[j] = sh * n / totalShards
		assigned += sizes[j]
	}
	takes := func(j int) bool { return sizes[j] > 0 || !assignedOnly }
	if assignedOnly && assigned == 0 {
		holders := a.Participants() > 0
		takes = func(j int) bool { return a.Shards[j] > 0 || !holders }
	}
	for j := 0; assigned < n; j = (j + 1) % len(sizes) {
		if takes(j) {
			sizes[j]++
			assigned++
		}
	}
	return sizes
}

// Participants returns the number of users with non-zero workload.
func (a *Assignment) Participants() int {
	n := 0
	for _, s := range a.Shards {
		if s > 0 {
			n++
		}
	}
	return n
}

// Scheduler produces assignments for requests. Implementations must be
// deterministic given the same rng state.
type Scheduler interface {
	Name() string
	Schedule(req *Request, rng *rand.Rand) (*Assignment, error)
}

// userCost returns user j's total cost for k shards (0 shards → no cost).
func userCost(r *Request, j, k int) float64 {
	if k <= 0 {
		return 0
	}
	return r.Users[j].Cost(k*r.ShardSize) + r.Users[j].CommSeconds
}

// Makespan evaluates max_j cost under the request's cost model.
func Makespan(r *Request, a *Assignment) float64 {
	worst := 0.0
	for j, k := range a.Shards {
		if c := userCost(r, j, k); c > worst {
			worst = c
		}
	}
	return worst
}

// Validate checks that the assignment covers exactly TotalShards and
// respects every user's capacity.
func Validate(r *Request, a *Assignment) error {
	if len(a.Shards) != len(r.Users) {
		return fmt.Errorf("sched: assignment for %d users, request has %d", len(a.Shards), len(r.Users))
	}
	sum := 0
	for j, k := range a.Shards {
		if k < 0 {
			return fmt.Errorf("sched: user %d assigned %d shards", j, k)
		}
		if cap := r.Users[j].capacity(r.TotalShards); k > cap {
			return fmt.Errorf("sched: user %d over capacity: %d > %d", j, k, cap)
		}
		sum += k
	}
	if sum != r.TotalShards {
		return fmt.Errorf("sched: assigned %d shards, want %d", sum, r.TotalShards)
	}
	return nil
}

// almostLE reports a ≤ b up to floating-point slack.
func almostLE(a, b float64) bool { return a <= slackAbove(b) }

// slackAbove is the largest a that almostLE(a, b) admits, for loops that
// compare many values against one b.
func slackAbove(b float64) float64 { return b + float64(1e-9*math.Max(1, math.Abs(b))) }

// emitSchedule records a computed assignment into the request's trace:
// one KindSchedule event per user with the assigned samples and
// predicted per-user cost, each carrying the assignment-level predicted
// makespan and (Fed-MinAvg only) objective value. Every Scheduler calls
// it on its way out; untraced, it prices nothing.
func emitSchedule(req *Request, asg *Assignment) {
	if req.Trace == nil {
		return
	}
	for j, k := range asg.Shards {
		req.Trace.Emit(trace.Event{
			Kind: trace.KindSchedule, Round: -1, Client: j,
			Samples: k * req.ShardSize, ComputeS: userCost(req, j, k),
			MakespanS: asg.PredictedMakespan, Loss: asg.PredictedAvgCost,
		})
	}
}
