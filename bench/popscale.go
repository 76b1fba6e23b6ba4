package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"fedsched"
	"fedsched/internal/sched"
)

const popScaleWhy = "The paper's scheduler at fleet scale: fedsim population rounds over 10^6 clients, then sparse Fed-LBAP solves. No nn, tensor or serve: the control where kernel and daemon changes must read no change."

var popScaleWorkload = &workload{name: "pop_scale", why: popScaleWhy, endToEnd: popEndToEnd, traced: popTraced}

const popFaults = "crash=0.2,battery=0.05,flap=0.1,corrupt=0.05,degrade=0.3,slow=4"

// popShape is pop_scale's dimensions at full or smoke size.
type popShape struct {
	population int // fedsim fleet
	chunk      int // population rounds per fedsim run
	warmRounds int
	users      int // phase B instance
	minChunks  int
	minSolves  int
}

func popShapeFor(sz size) popShape {
	if sz.smoke {
		return popShape{population: 50_000, chunk: 50, warmRounds: 15, users: 50_000, minChunks: 2 * seedPool, minSolves: 3}
	}
	return popShape{population: 1_000_000, chunk: 1000, warmRounds: 300, users: 1_000_000, minChunks: 2 * seedPool, minSolves: 5}
}

// fedsimArgs is the command line of one population run. Phase A cycles
// through seedPool seeds, so runs recur and can be compared byte for byte.
func fedsimArgs(sh popShape, rounds int, seed int64, k int) []string {
	s := jobSeed(seed, 300, k%seedPool)
	return []string{
		"-population", strconv.Itoa(sh.population), "-cohort", "64", "-pop-rounds", strconv.Itoa(rounds),
		"-seed", strconv.FormatInt(s, 10), "-fault-seed", strconv.FormatInt(s+7, 10),
		"-faults", popFaults, "-overselect", "0.5", "-min-participants", "32", "-cooldown", "2",
	}
}

// populationRequest is the hashed-jitter instance family of the
// repository's BenchmarkFedLBAPSparse: n users with deterministic affine
// cost curves, s = n/100 shards (at least 100).
func populationRequest(n int) *fedsched.Request {
	users := make([]*fedsched.User, n)
	for j := range users {
		h := uint64(j)*0x9e3779b97f4a7c15 + 1
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		a := 0.5 + float64(h%1000)/500
		slope := 0.005 + float64((h>>10)%1000)/50000
		users[j] = &fedsched.User{
			Cost:        func(samples int) float64 { return a + slope*float64(samples) },
			CommSeconds: 1 + float64((h>>20)%100)/100,
		}
	}
	return &fedsched.Request{TotalShards: max(n/100, 100), ShardSize: 100, Users: users}
}

// popSetUp is pop_scale's set-up: a short fedsim run (page cache, binary
// load), the phase B request and one untimed solve.
func popSetUp(h *harness, seed int64, sh popShape) (*fedsched.Request, float64, error) {
	t0 := time.Now()
	if _, err := h.runFedsim(childTimeout, fedsimArgs(sh, sh.warmRounds, seed, seedPool)...); err != nil {
		return nil, 0, err
	}
	req := populationRequest(sh.users)
	if _, err := fedsched.FedLBAPSparse.Schedule(req, nil); err != nil {
		return nil, 0, err
	}
	return req, time.Since(t0).Seconds(), nil
}

func popEndToEnd(h *harness, seed int64, sz size) (*e2eResult, error) {
	sh := popShapeFor(sz)
	res := &e2eResult{Workload: "pop_scale", Seed: seed, Metrics: map[string]float64{}, Counts: map[string]int{}}
	var req *fedsched.Request
	for t0 := time.Now(); sz.moreSetups(len(res.SetupsS), t0); {
		r, s, err := popSetUp(h, seed, sh)
		if err != nil {
			return nil, err
		}
		req = r
		res.SetupsS = append(res.SetupsS, s)
	}
	res.Metrics["setup_s"] = median(res.SetupsS)

	// Phase A: population rounds through the fedsim binary.
	t0 := time.Now()
	deadline := t0.Add(time.Duration(sz.seconds * 0.6 * float64(time.Second)))
	var runs []*simRun
	for k := 0; k < sh.minChunks || time.Now().Before(deadline); k++ {
		res.Attempted++
		r, err := h.runFedsim(childTimeout, fedsimArgs(sh, sh.chunk, seed, k)...)
		if err != nil {
			res.fail("fedsim chunk %d: %v", k, err)
			break
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return res, fmt.Errorf("pop_scale: no fedsim run completed: %v", res.Failures)
	}
	var rate, cpu, peak []float64
	for _, r := range runs {
		rate = append(rate, float64(sh.chunk)/r.wallS)
		cpu = append(cpu, r.cpuS/float64(sh.chunk)*1000)
		peak = append(peak, r.peakMB)
	}
	rounds := len(runs) * sh.chunk
	res.Metrics["rounds_per_s"] = median(rate)
	res.Metrics["cpu_s_per_kround"] = median(cpu)
	res.Metrics["peak_rss_mb"] = median(peak)

	// Phase B: the solver alone, in this process.
	deadline = time.Now().Add(time.Duration(sz.seconds * 0.4 * float64(time.Second)))
	var solves []float64
	var asg *sched.Assignment
	for k := 0; k < sh.minSolves || time.Now().Before(deadline); k++ {
		res.Attempted++
		s0 := time.Now()
		a, err := fedsched.FedLBAPSparse.Schedule(req, nil)
		solves = append(solves, time.Since(s0).Seconds())
		if err != nil {
			res.fail("sparse solve %d: %v", k, err)
			break
		}
		asg = a
	}
	res.TimedS = time.Since(t0).Seconds()
	res.Metrics["job_latency_p50_s"] = median(solves)
	res.Counts["rounds"], res.Counts["fedsim_runs"], res.Counts["latency_samples"] = rounds, len(runs), len(solves)

	popVerify(res, sh, seed, runs, req, asg)
	res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// popVerify checks, untimed: every fedsim run printed all its rounds;
// runs of the same seed are byte-identical; the last solve is a valid
// assignment; and the sparse solver agrees with dense Fed-LBAP on the
// n = 10^4 member of the family.
func popVerify(res *e2eResult, sh popShape, seed int64, runs []*simRun, req *fedsched.Request, asg *sched.Assignment) {
	hash := sha256.New()
	for k, r := range runs {
		// One header, one column line, one line per round, one total.
		if got := bytes.Count(r.stdout, []byte("\n")); got != sh.chunk+3 {
			res.Attempted++
			res.fail("fedsim chunk %d printed %d lines, want %d (rounds short of target)", k, got, sh.chunk+3)
		}
		if k >= seedPool {
			res.Attempted++
			f := runs[k%seedPool]
			if !bytes.Equal(f.stdout, r.stdout) || !bytes.Equal(f.trace, r.trace) {
				res.fail("fedsim chunks %d and %d ran the same seed but outputs differ", k%seedPool, k)
			}
			continue
		}
		args := fedsimArgs(sh, sh.chunk, seed, k)
		for _, part := range [][]byte{[]byte(fmt.Sprint(args)), r.stdout, r.trace} {
			fmt.Fprintf(hash, "%d:", len(part))
			hash.Write(part)
		}
	}
	if asg != nil {
		res.Attempted++
		if err := sched.Validate(req, asg); err != nil {
			res.fail("sparse assignment invalid: %v", err)
		}
		fmt.Fprintf(hash, "makespan:%x", asg.PredictedMakespan)
	}
	res.Attempted++
	small := populationRequest(10_000)
	sparse, err1 := fedsched.FedLBAPSparse.Schedule(small, nil)
	dense, err2 := fedsched.FedLBAP.Schedule(small, nil)
	switch {
	case err1 != nil || err2 != nil:
		res.fail("n=10^4 solves: sparse %v, dense %v", err1, err2)
	case sched.Validate(small, sparse) != nil:
		res.fail("n=10^4 sparse assignment invalid: %v", sched.Validate(small, sparse))
	case sparse.PredictedMakespan != dense.PredictedMakespan: //fedlint:allow floateq — the two solvers promise bit-identical assignments
		res.fail("n=10^4: sparse makespan %v != dense %v", sparse.PredictedMakespan, dense.PredictedMakespan)
	}
	res.SimDigest = hex.EncodeToString(hash.Sum(nil))
}
