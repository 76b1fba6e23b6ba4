package sched

import (
	"fmt"
	"math"
	"math/rand"
)

// FedMinAvg is Algorithm 2: the Min Average Cost algorithm for non-IID
// data. Shards are assigned one at a time to the user with the smallest
// marginal cost T_j((l_j+1)·d) + αF_j, where the accuracy cost F_j (Eq. 6)
// is K/|U_j|, discounted by (β/α)·D_u when the user's classes are disjoint
// from the coverage accumulated so far — which actively pulls unseen
// classes into training. Users at capacity are closed (F_j ← ∞). The
// communication cost of a user is charged on its first shard (opening the
// bin); the paper omits it "for clarity", we keep it for fidelity with P2.
// That reading costs makespan: the makespan, Fed-LBAP and OLAR (Pilla
// 2020, arXiv 2010.00239) charge comm on every candidate shard. At β = 0
// with zero comm this greedy is OLAR on the α-shifted costs; with comm,
// on random requests (2–9 users, ≤ 200 shards, α = 0), its makespan is
// worse than OLAR's in 211 of 2,982 with one comm time for every user
// (by up to 1.43×) and in 1,219 of 2,979 with per-user comm times (by up
// to 1.35×), and never better (DESIGN §11).
type FedMinAvg struct{}

// Name implements Scheduler.
func (FedMinAvg) Name() string { return "Fed-MinAvg" }

// Schedule implements Scheduler. It runs in O(m·n) for m shards and is
// deterministic (rng is unused).
func (FedMinAvg) Schedule(req *Request, _ *rand.Rand) (*Assignment, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	if req.K <= 0 {
		return nil, fmt.Errorf("sched: Fed-MinAvg requires K > 0 (test-set classes), got %d", req.K)
	}
	n, s, d := len(req.Users), req.TotalShards, req.ShardSize

	// holders maps each class not yet in U, the coverage, to the users
	// holding it (a user once per listing); a class leaves it when it
	// enters U. It is never iterated, so map ordering cannot leak into
	// the assignment and shards/totalCost are byte-stable across runs.
	// Any future `range holders` with an order-sensitive body will be
	// rejected by the fedlint nondet pass; collect and sort the keys
	// first if one is ever needed.
	holders := make(map[int][]int)
	opened := make([]bool, n) // O: users already assigned data
	shards := make([]int, n)  // l_j
	assigned := 0             // D_u
	var totalCost float64

	// αF_j is fixed per user; only its discount moves. Eq. 6 states the
	// discount for users whose classes are disjoint from the coverage,
	// but the paper's intent (§III-C: inclusion "should be further
	// conditioning on whether those outliers contain samples that are not
	// yet included in the training set"; §VI-A: "if the class is not yet
	// included in the training set, inviting the user into training would
	// be beneficial") and its own Table IV schedules require the discount
	// to persist while the user holds ANY class still missing from the
	// coverage. We implement that unseen-class reading: the literal
	// disjointness test would switch the discount off as soon as one
	// overlapping class appears, making β inert in every Table IV
	// scenario. unseen[j] counts user j's class listings not yet covered,
	// so the discount applies while it is positive.
	accBase := make([]float64, n)
	unseen := make([]int, n)
	for j, u := range req.Users {
		if len(u.Classes) == 0 {
			accBase[j] = math.Inf(1) // nothing to train on
			continue
		}
		f := float64(req.K) / float64(len(u.Classes))
		accBase[j] = float64(req.Alpha * f)
		unseen[j] = len(u.Classes)
		for _, c := range u.Classes {
			holders[c] = append(holders[c], j)
		}
	}

	for assigned < s {
		// D_u is measured in samples: with the paper's (α, β) ranges
		// (α·K/|U_j| up to 50 000 for a single-class user at α=5000) a
		// shard-count discount capped at β·s ≈ 1000 could never flip an
		// exclusion, yet Table IV's p3/p4 columns show β=2 moving tens of
		// thousands of samples. A per-sample D_u reproduces those
		// crossovers.
		discount := float64(req.Beta * float64(assigned*req.ShardSize))
		bestJ, bestC := -1, math.Inf(1)
		for j, u := range req.Users {
			if shards[j] >= u.capacity(s) {
				continue // bin closed
			}
			acc := accBase[j]
			if unseen[j] > 0 {
				acc -= discount
			}
			c := u.Cost((shards[j]+1)*d) + acc
			if !opened[j] {
				c += u.CommSeconds // opening a user adds its comm round
			}
			if c < bestC {
				bestJ, bestC = j, c
			}
		}
		if bestJ < 0 {
			// check() guarantees capacity, so only all-∞ accuracy costs
			// (every user classless) can land here.
			return nil, fmt.Errorf("sched: Fed-MinAvg found no assignable user (all users lack classes)")
		}
		shards[bestJ]++
		assigned++
		totalCost += bestC
		if !opened[bestJ] {
			opened[bestJ] = true
			for _, c := range req.Users[bestJ].Classes {
				for _, h := range holders[c] {
					unseen[h]--
				}
				delete(holders, c)
			}
		}
	}

	asg := &Assignment{Shards: shards, Algorithm: "Fed-MinAvg"}
	asg.PredictedMakespan = Makespan(req, asg)
	asg.PredictedAvgCost = totalCost / float64(s)
	emitSchedule(req, asg)
	return asg, nil
}
