package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// childTimeout bounds one child's life; the driver allows a run 180 s.
const childTimeout = 170 * time.Second

// e2eResult is one workload's end-to-end pass.
type e2eResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Metrics holds every end-to-end metric reported on this workload.
	Metrics map[string]float64 `json:"metrics"`
	// Counts are the sample sizes behind the metrics.
	Counts map[string]int `json:"counts"`
	// SimDigest hashes every distinct config with its outputs: simulated
	// seconds, joules, losses and accuracies are deterministic, so a
	// perf-only change must leave it identical.
	SimDigest string    `json:"sim_digest"`
	TimedS    float64   `json:"timed_s"`
	SetupsS   []float64 `json:"setups_s"`
	tally
}

// tally counts a pass's operations and keeps the first few failures.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func serveWorkload(spec serveSpec) *workload {
	return &workload{name: spec.name, why: spec.why, endToEnd: spec.endToEnd, traced: spec.traced}
}

// setUp spawns a fresh daemon and runs one reduced, untimed job of every
// template: it fills the packing pools, grows the heap and touches the
// page cache, so the first timed job pays no first-use cost.
func (spec *serveSpec) setUp(h *harness, seed int64, sz size) (*daemon, *http.Client, float64, error) {
	t0 := time.Now()
	d, err := h.startDaemon(spec.name, childTimeout)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newHTTPClient()
	warm := make([]*jobRun, len(spec.templates))
	for ti, t := range spec.templates {
		cfg := t.make(sz.smoke)
		if cfg.Rounds > 3 {
			cfg.Rounds = max(1, cfg.Rounds/10)
		}
		cfg.Seed = jobSeed(seed, 200+ti, 0)
		warm[ti] = submit(c, d.base, t.name, jobSpec{cfg: cfg}.body())
	}
	awaitAll(c, d.base, warm, childTimeout)
	for _, j := range warm {
		if j.Err != "" {
			d.stop()
			return nil, nil, 0, fmt.Errorf("warm-up %s: %s", j.Template, j.Err)
		}
	}
	return d, c, time.Since(t0).Seconds(), nil
}

// setUpRepeated sets up repeatedly (see moreSetups) and keeps the last
// daemon for the timed phase.
func (spec *serveSpec) setUpRepeated(h *harness, seed int64, sz size) (*daemon, *http.Client, []float64, error) {
	var times []float64
	for t0 := time.Now(); ; {
		d, c, s, err := spec.setUp(h, seed, sz)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, s)
		if !sz.moreSetups(len(times), t0) {
			return d, c, times, nil
		}
		d.stop()
	}
}

// phaseRun is what one closed loop did. Rates and the latency are medians
// over the loop's iterations, so a burst of interference from outside the
// process moves them less than it would a total.
type phaseRun struct {
	jobs []*jobRun
	// roundsPerS and jobsPerS are submitters x the median, over every
	// batch of every submitter, of the batch's completed rounds (jobs) /
	// the batch's wall: the rate the loop sustains while all submitters
	// are busy.
	roundsPerS, jobsPerS float64
	latencyP50S          float64
}

// runPhase drives p for dur (and at least p.minBatches batches per
// submitter). onJob, when set, sees each job as it reaches a terminal
// state; the traced pass records its client spans there.
func runPhase(c *http.Client, base string, p phase, seed int64, smoke bool, dur time.Duration, onJob func(*jobRun)) phaseRun {
	type subRun struct {
		jobs               []*jobRun
		roundRate, jobRate []float64 // per batch
	}
	subs := make([]subRun, p.submitters)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for s := range subs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; n < p.minBatches || time.Now().Before(deadline); n++ {
				specs := p.batch(seed, smoke, s, n)
				batch := make([]*jobRun, len(specs))
				t0 := time.Now()
				for i, sp := range specs {
					batch[i] = submit(c, base, sp.template, sp.body())
				}
				awaitAll(c, base, batch, childTimeout)
				wall := time.Since(t0).Seconds()
				subs[s].jobs = append(subs[s].jobs, batch...)
				rounds, done := 0, 0
				for _, j := range batch {
					if onJob != nil {
						onJob(j)
					}
					if j.Err == "" {
						rounds += j.Status.RoundsDone
						done++
					}
				}
				if done < len(batch) {
					break // the failure is counted; do not pile more load on a broken daemon
				}
				subs[s].roundRate = append(subs[s].roundRate, float64(rounds)/wall)
				subs[s].jobRate = append(subs[s].jobRate, float64(done)/wall)
			}
		}(s)
	}
	wg.Wait()

	var pr phaseRun
	var roundRate, jobRate, lat []float64
	for _, s := range subs {
		pr.jobs = append(pr.jobs, s.jobs...)
		roundRate = append(roundRate, s.roundRate...)
		jobRate = append(jobRate, s.jobRate...)
		for _, j := range s.jobs {
			if j.Err == "" {
				lat = append(lat, j.latency())
			}
		}
	}
	pr.roundsPerS = float64(p.submitters) * median(roundRate)
	pr.jobsPerS = float64(p.submitters) * median(jobRate)
	pr.latencyP50S = median(lat)
	return pr
}

func (spec *serveSpec) endToEnd(h *harness, seed int64, sz size) (*e2eResult, error) {
	d, c, setups, err := spec.setUpRepeated(h, seed, sz)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res := &e2eResult{Workload: spec.name, Seed: seed, Metrics: map[string]float64{}, Counts: map[string]int{}, SetupsS: setups}
	res.Metrics["setup_s"] = median(setups)

	before, err := sampleProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var jobs []*jobRun
	// A workload's figure is the mean of its phases' figures weighted by
	// the share of the timed phase each gets, so it does not depend on how
	// many jobs of which kind happened to fit.
	var roundsPerS, jobsPerS, latency float64
	for _, p := range spec.phases {
		pr := runPhase(c, d.base, p, seed, sz.smoke, time.Duration(sz.seconds*p.share*float64(time.Second)), nil)
		jobs = append(jobs, pr.jobs...)
		roundsPerS += p.share * pr.roundsPerS
		jobsPerS += p.share * pr.jobsPerS
		latency += p.share * pr.latencyP50S
	}
	res.TimedS = time.Since(t0).Seconds()
	after, err := sampleProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("fedserve died during %s: %v: %s", spec.name, err, d.stderr.String())
	}

	var lat []float64
	byPrec := map[string][]float64{} // precision -> samples trained per second of latency, per job
	rounds, done := 0, 0
	for _, j := range jobs {
		res.Attempted++
		if j.Err != "" {
			res.fail("%s: %s", j.Template, j.Err)
			continue
		}
		done++
		rounds += j.Status.RoundsDone
		lat = append(lat, j.latency())
		cfg := decodeConfig(j.Body)
		byPrec[cfg.Precision] = append(byPrec[cfg.Precision], float64(cfg.Rounds*cfg.Samples)/j.latency())
	}
	if done == 0 {
		return res, fmt.Errorf("%s: no job completed: %v", spec.name, res.Failures)
	}
	res.Counts["jobs"], res.Counts["rounds"], res.Counts["latency_samples"] = done, rounds, len(lat)
	res.Metrics["rounds_per_s"] = roundsPerS
	res.Metrics["jobs_per_s"] = jobsPerS
	res.Metrics["job_latency_p50_s"] = latency
	res.Metrics["cpu_s_per_kround"] = (after.cpuS - before.cpuS) / float64(rounds) * 1000
	res.Metrics["peak_rss_mb"] = after.peakMB
	if endToEndDef("job_latency_p90_s").reportedOn(spec.name) && highestPercentile(len(lat)) >= 90 {
		res.Metrics["job_latency_p90_s"] = quantile(lat, 0.9)
	}
	if endToEndDef("samples_per_s_f64").reportedOn(spec.name) {
		for prec, rates := range byPrec {
			res.Metrics["samples_per_s_"+prec] = median(rates)
		}
	}

	spec.verifyOutputs(c, d.base, jobs, res)
	res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// verifyOutputs fetches every completed job's round history and trace
// (after the timed phase), checks that every config submitted more than
// once produced byte-identical outputs, and folds the distinct configs
// with their outputs into the workload's sim_digest.
func (spec *serveSpec) verifyOutputs(c *http.Client, base string, jobs []*jobRun, res *e2eResult) {
	first := map[string]*jobRun{}
	repeats := map[string]int{}
	for _, j := range jobs {
		if j.Err != "" {
			continue
		}
		if _, err := fetchOutputs(c, base, j); err != nil {
			res.Attempted++
			res.fail("%s %s: fetch outputs: %v", j.Template, j.ID, err)
			continue
		}
		key := string(j.Body)
		f, seen := first[key]
		if !seen {
			first[key] = j
			continue
		}
		repeats[key]++
		res.Attempted++ // one determinism check per repeat
		if !bytes.Equal(f.Rounds, j.Rounds) {
			res.fail("%s: %s and %s ran the same config but rounds differ", j.Template, f.ID, j.ID)
		} else if !bytes.Equal(f.Trace, j.Trace) {
			res.fail("%s: %s and %s ran the same config but traces differ", j.Template, f.ID, j.ID)
		}
	}
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
		if repeats[k] == 0 {
			res.Attempted++
			res.fail("%s: config ran once, so its determinism went unchecked (run too short)", first[k].Template)
		}
	}
	sort.Strings(keys)
	hash := sha256.New()
	for _, k := range keys {
		j := first[k]
		for _, part := range [][]byte{j.Body, j.Rounds, j.Trace} {
			fmt.Fprintf(hash, "%d:", len(part))
			hash.Write(part)
		}
	}
	res.Counts["distinct_configs"] = len(keys)
	res.SimDigest = hex.EncodeToString(hash.Sum(nil))
}
