package main

import (
	"bytes"
	"fmt"
	"time"

	"fedsched"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/trace"
)

// layerResult is one workload's traced pass.
type layerResult struct {
	Workload string `json:"workload"`
	// Metrics holds the per-layer metrics of BENCHMARK.json that this
	// workload exercises; driver mode prints the others as 0.
	Metrics   map[string]float64 `json:"metrics"`
	Templates []templateProfile  `json:"templates"`
	Budget    []budgetLine       `json:"budget"`
	tally
}

// templateProfile is the detailed per-template view behind the workload's
// flat metrics: the daemon's client-side figures, the replay, and the
// calibrations.
type templateProfile struct {
	Template string  `json:"template"`
	Weight   int     `json:"weight"`
	Jobs     int     `json:"jobs"`
	JobMS    float64 `json:"job_ms"`
	SubmitMS float64 `json:"submit_ms"`
	WaitMS   float64 `json:"admission_wait_ms"`
	RunMS    float64 `json:"run_ms"`

	ReplayMS     float64 `json:"replay_ms"`
	EngineMS     float64 `json:"engine_ms"`
	Rounds       int     `json:"rounds"`
	RoundMS      float64 `json:"round_ms"`
	RoundSelfMS  float64 `json:"round_self_ms"`
	TrainWallMS  float64 `json:"train_wall_ms"`      // whole job: calibrated step x batches / workers
	TrainMS      float64 `json:"train_ms_per_round"` // TrainWallMS / rounds
	PoolIdleMS   float64 `json:"pool_idle_ms"`       // per round: the pool's makespan over unequal clients, minus TrainMS
	PoolEff      float64 `json:"pool_efficiency"`
	SinkUS       float64 `json:"sink_us"`
	Batches      float64 `json:"batches"`
	Events       int     `json:"trace_events"`
	TraceBytes   int     `json:"trace_bytes"`
	Polls        int     `json:"cancel_polls"`
	Build        buildMS `json:"build_ms"`
	Cal          jobCal  `json:"calibration_s"`
	ClientRounds int     `json:"client_rounds"`
}

type buildMS struct {
	Generate, RequestBuild, Solve, Partition, BuildClients float64
}

// budgetLayers are the columns of the budget table.
var budgetLayers = []string{"serve", "data", "sched", "fl", "nn", "tensor", "trace", "sim", "other"}

// budgetLine is the share of one template's job wall per layer. "other"
// is what the replay cannot attribute: co-running jobs, GC, the 5 ms
// status poll. SinkSelfShare is (sink + fl round self) / job wall, the
// fixed per-round cost round_churn exists to expose.
type budgetLine struct {
	Template      string             `json:"template"`
	JobMS         float64            `json:"job_ms"`
	Share         map[string]float64 `json:"share"`
	SinkSelfShare float64            `json:"sink_self_share"`
}

const ms = 1e3

// traced is the fedserve workloads' traced pass: the same closed loops
// for a quarter of the time with spans off, again with client spans on,
// then one replay and calibration per template.
func (spec *serveSpec) traced(h *harness, seed int64, sz size, log *spanLog) (*layerResult, error) {
	if log == nil {
		log = &spanLog{}
	}
	log.workload = spec.name
	res := &layerResult{Workload: spec.name, Metrics: map[string]float64{}}
	d, c, _, err := spec.setUp(h, seed, sz)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	pass := func(onJob func(*jobRun)) []*jobRun {
		var jobs []*jobRun
		for _, p := range spec.phases {
			pr := runPhase(c, d.base, p, seed, sz.smoke, time.Duration(sz.seconds/4*p.share*float64(time.Second)), onJob)
			jobs = append(jobs, pr.jobs...)
		}
		return jobs
	}
	plain := pass(nil)
	spanned := pass(func(j *jobRun) {
		if j.Err != "" {
			return
		}
		root := log.add(0, "client.job", j.ID, j.Sent, j.Terminal)
		log.add(root, "serve.submit", j.ID, j.Sent, j.Accepted)
		log.add(root, "serve.admission_wait", j.ID, j.Accepted, j.Running)
		log.add(root, "serve.run", j.ID, j.Running, j.Terminal)
	})

	// Client-side serve figures, from the spanned pass.
	var submit, wait, run, fetch, traceBytes []float64
	statusS, statusN := 0.0, 0
	byTemplate := map[string][]*jobRun{}
	for _, j := range spanned {
		res.Attempted++
		if j.Rejected {
			res.Metrics["serve.rejected"]++
		}
		if j.Err != "" {
			res.fail("%s: %s", j.Template, j.Err)
			continue
		}
		f0 := time.Now()
		fd, err := fetchOutputs(c, d.base, j)
		if err != nil {
			res.fail("%s %s: fetch outputs: %v", j.Template, j.ID, err)
			continue
		}
		log.add(0, "serve.fetch", j.ID, f0, f0.Add(fd))
		submit = append(submit, j.Accepted.Sub(j.Sent).Seconds())
		wait = append(wait, j.Running.Sub(j.Accepted).Seconds())
		run = append(run, j.Terminal.Sub(j.Running).Seconds())
		fetch = append(fetch, fd.Seconds())
		traceBytes = append(traceBytes, float64(len(j.Trace)))
		statusS += j.StatusDur.Seconds()
		statusN += j.StatusN
		byTemplate[j.Template] = append(byTemplate[j.Template], j)
	}
	res.Metrics["serve.submit_ms"] = median(submit) * ms
	res.Metrics["serve.admission_wait_ms"] = median(wait) * ms
	res.Metrics["serve.run_ms"] = median(run) * ms
	res.Metrics["serve.fetch_ms"] = median(fetch) * ms
	res.Metrics["serve.trace_bytes"] = mean(traceBytes)
	if statusN > 0 {
		res.Metrics["serve.status_ms"] = statusS / float64(statusN) * ms
	}
	res.Metrics["trace_overhead_pct"] = (weightedLatency(spec.templates, spanned)/weightedLatency(spec.templates, plain) - 1) * 100

	sc, err := calibrateSched(sz)
	if err != nil {
		return nil, err
	}
	res.Metrics["sched.request_build_ms"] = sc.RequestBuildS * ms
	res.Metrics["sched.fedlbap_solve_us"] = sc.FedLBAPSolveS * 1e6
	res.Metrics["sched.makespan_vs_prop"] = sc.MakespanVsProp

	// One replay per template, of a config the daemon just ran.
	var reps []*replayed
	for _, t := range spec.templates {
		jobs := byTemplate[t.name]
		res.Attempted++
		if len(jobs) == 0 {
			res.fail("%s: no completed job to replay", t.name)
			continue
		}
		tp, r, err := profileTemplate(h, sz, t, jobs, log)
		if err != nil {
			res.fail("%v", err)
			continue
		}
		res.Templates = append(res.Templates, *tp)
		reps = append(reps, r)
	}
	flattenTemplates(res, reps)
	return res, nil
}

// greedyMakespan is when the last of `workers` workers finishes if each
// takes the next task, in order, as soon as it is free — fl's pool.
func greedyMakespan(tasks []float64, workers int) float64 {
	free := make([]float64, max(1, workers))
	for _, t := range tasks {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += t
	}
	end := 0.0
	for _, f := range free {
		end = max(end, f)
	}
	return end
}

// weightedLatency is the mean job latency per template, summed by
// template weight: the wall of one cycle of the workload's jobs.
func weightedLatency(templates []template, jobs []*jobRun) float64 {
	total := 0.0
	for _, t := range templates {
		var lat []float64
		for _, j := range jobs {
			if j.Template == t.name && j.Err == "" {
				lat = append(lat, j.latency())
			}
		}
		total += float64(t.weight) * mean(lat)
	}
	return total
}

// profileTemplate replays the first of a template's daemon jobs, checks
// the replay against the daemon's outputs, and calibrates the inner
// layers for the template's shape.
func profileTemplate(h *harness, sz size, t template, jobs []*jobRun, log *spanLog) (*templateProfile, *replayed, error) {
	ref := jobs[0]
	cfg := decodeConfig(ref.Body)
	dir, err := h.tempDir("replay")
	if err != nil {
		return nil, nil, err
	}
	defer h.removeDir(dir)
	r, err := replayJob(cfg, dir, log, "replay:"+t.name)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: replay: %w", t.name, err)
	}
	if err := checkFidelity(t.name, ref.Rounds, ref.Trace, r); err != nil {
		return nil, nil, err
	}
	cal, err := calibrateJob(sz, r)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: calibrate: %w", t.name, err)
	}

	var lat, submit, wait, run []float64
	for _, j := range jobs {
		lat = append(lat, j.latency())
		submit = append(submit, j.Accepted.Sub(j.Sent).Seconds())
		wait = append(wait, j.Running.Sub(j.Accepted).Seconds())
		run = append(run, j.Terminal.Sub(j.Running).Seconds())
	}
	tp := &templateProfile{
		Template: t.name, Weight: t.weight, Jobs: len(jobs),
		JobMS: median(lat) * ms, SubmitMS: median(submit) * ms, WaitMS: median(wait) * ms, RunMS: median(run) * ms,
		ReplayMS: r.TotalS * ms, EngineMS: r.EngineS * ms, Rounds: len(r.RoundS),
		Events: r.Events, TraceBytes: len(r.Trace), Polls: r.Polls, Cal: cal, ClientRounds: r.ClientRounds,
		Build: buildMS{
			Generate: r.Build.Generate.Seconds() * ms, RequestBuild: r.Build.RequestBuild.Seconds() * ms,
			Solve: r.Build.Solve.Seconds() * ms, Partition: r.Build.Partition.Seconds() * ms,
			BuildClients: r.Build.BuildClients.Seconds() * ms,
		},
	}
	// Client training per round, from the calibrated step: a partial last
	// batch is charged in proportion to its size.
	workers := max(1, min(cfg.Workers, len(r.built.clients)))
	stepPerSample := cal.Step.total() / float64(cfg.BatchSize)
	trained := 0
	for _, n := range r.TrainSamples {
		trained += n
	}
	tp.Batches = float64(trained) / float64(cfg.BatchSize)
	trainS := float64(trained) * stepPerSample
	tp.TrainWallMS = trainS / float64(workers) * ms
	if n := float64(len(r.RoundS)); n > 0 {
		// What the pool's greedy queue makes of the rounds' unequal clients.
		poolS := 0.0
		for _, rs := range r.hist.Rounds {
			var tasks []float64
			for _, cr := range rs.Clients {
				if cr.Fault == fault.None || cr.Fault == fault.Corrupt {
					tasks = append(tasks, float64(cr.Samples)*stepPerSample)
				}
			}
			poolS += greedyMakespan(tasks, workers)
		}
		sink := make([]float64, len(r.RoundS))
		for i := range sink {
			sink[i] = r.FlushS[i] + r.EncodeS[i] + r.WriteS[i]
		}
		tp.RoundMS = median(r.RoundS) * ms
		tp.TrainMS = tp.TrainWallMS / n
		tp.PoolIdleMS = max(0, poolS/n*ms-tp.TrainMS)
		tp.SinkUS = median(sink) * 1e6
		tp.RoundSelfMS = max(0, mean(r.RoundS)*ms-poolS/n*ms-cal.EvalS*ms-mean(sink)*ms)
		tp.PoolEff = trainS / (float64(workers) * mean(r.RoundS) * n)
	}
	return tp, r, nil
}

// line computes the template's budget line.
func (tp *templateProfile) line(r *replayed) budgetLine {
	cal := tp.Cal
	rounds := float64(len(r.RoundS))
	part := map[string]float64{}
	part["serve"] = tp.SubmitMS + tp.WaitMS
	part["data"] = tp.Build.Generate + tp.Build.Partition
	part["sched"] = tp.Build.RequestBuild + tp.Build.Solve
	part["trace"] = r.FinalFlush * ms
	part["sim"] = cal.TrainSimS * float64(r.ClientRounds) * ms
	trainMS := tp.TrainWallMS
	share := 0.0
	if cal.Step.total() > 0 {
		share = min(1, cal.Tensor.total()/cal.Step.total())
	}
	part["tensor"] = trainMS * share
	part["nn"] = trainMS * (1 - share)
	sinkSelf := 0.0
	if rounds > 0 {
		part["serve"] += sum(r.WriteS) * ms
		part["trace"] += sum(r.FlushS) * ms
		part["nn"] += cal.EvalS * rounds * ms
		self := tp.RoundSelfMS * rounds
		part["fl"] = tp.Build.BuildClients + self + tp.PoolIdleMS*rounds + sum(r.EncodeS)*ms
		sinkSelf = self + (sum(r.FlushS)+sum(r.EncodeS)+sum(r.WriteS))*ms
	} else {
		// Async and gossip expose no round boundary: what the calibrated
		// training does not explain of the engine wall is the engine's.
		part["fl"] = tp.Build.BuildClients + max(0, tp.EngineMS-trainMS-part["sim"])
	}
	known := 0.0
	for _, v := range part {
		known += v
	}
	wall := max(tp.JobMS, known)
	part["other"] = wall - known
	line := budgetLine{Template: tp.Template, JobMS: tp.JobMS, Share: map[string]float64{}, SinkSelfShare: sinkSelf / wall}
	for _, l := range budgetLayers {
		line.Share[l] = part[l] / wall
	}
	return line
}

// flattenTemplates derives the workload's flat per-layer metrics and
// budget lines from its template profiles (reps[i] is the replay behind
// res.Templates[i]), weighting by template weight.
func flattenTemplates(res *layerResult, reps []*replayed) {
	m := res.Metrics
	wsum := 0.0
	agg := budgetLine{Template: "(all)", Share: map[string]float64{}}
	type acc struct{ sum, w float64 }
	avg := map[string]*acc{}
	add := func(name string, v, w float64) {
		if v == 0 { //fedlint:allow floateq — exact 0 is the "not measured on this template" sentinel
			return
		}
		a := avg[name]
		if a == nil {
			a = &acc{}
			avg[name] = a
		}
		a.sum += v * w
		a.w += w
	}
	for i := range res.Templates {
		tp, r := &res.Templates[i], reps[i]
		w := float64(tp.Weight)
		line := tp.line(r)
		res.Budget = append(res.Budget, line)
		wall := w * tp.JobMS
		wsum += wall
		agg.JobMS += wall
		for l, s := range line.Share {
			agg.Share[l] += s * wall
		}
		agg.SinkSelfShare += line.SinkSelfShare * wall

		cal, p := tp.Cal, r.cfg.Precision
		add("nn.forward_us_"+p, cal.Step.ForwardS*1e6, w)
		add("nn.backward_us_"+p, cal.Step.BackwardS*1e6, w)
		add("nn.sgd_step_us_"+p, cal.Step.SGDS*1e6, w)
		add("tensor.conv_fwd_us_"+p, cal.Tensor.ConvFwdS*1e6, w)
		add("tensor.conv_bwd_us_"+p, cal.Tensor.ConvBwdS*1e6, w)
		add("tensor.dense_gemm_us_"+p, cal.Tensor.DenseS*1e6, w)
		add("tensor.gemm_gflops_"+p, cal.Tensor.Flops/cal.Tensor.total()/1e9, w)
		add("tensor.gemm_flops_per_step", cal.Tensor.Flops, w)
		add("tensor.share_of_step", cal.Tensor.total()/cal.Step.total(), w)
		add("nn.weights_sync_us", cal.SyncS*1e6, w)
		add("nn.batches", tp.Batches, w)
		add("fl.eval_ms", cal.EvalS*ms, w)
		add("fl.build_clients_ms", tp.Build.BuildClients, w)
		add("data.generate_ms", tp.Build.Generate, w)
		add("data.partition_ms", tp.Build.Partition, w)
		add("device.train_sim_us", cal.TrainSimS*1e6, w)
		add("serve.overhead_ms", tp.RunMS-tp.EngineMS, w)
		switch r.cfg.Engine {
		case "sync":
			add("fl.round_ms", tp.RoundMS, w)
			add("fl.round_self_ms", tp.RoundSelfMS, w)
			add("fl.pool_efficiency", tp.PoolEff, w)
			add("fl.ckpt_encode_us", median(r.EncodeS)*1e6, w)
			add("fl.ckpt_bytes", mean(r.CkptB), w)
			add("fl.ckpt_load_us", cal.CkptLoadS*1e6, w)
			add("fl.resume_restore_ms", cal.RestoreS*ms, w)
			add("serve.resume_write_us", median(r.WriteS)*1e6, w)
			add("trace.stream_flush_us", median(r.FlushS)*1e6, w)
			add("trace.events_per_round", float64(r.Events)/float64(len(r.RoundS)), w)
			add("trace.bytes_per_round", float64(len(r.Trace))/float64(len(r.RoundS)), w)
			m["fl.rounds"] += float64(len(r.RoundS))
		case "async":
			add("fl.async_run_ms", tp.EngineMS, w)
			add("fl.async_events", float64(r.Polls), w)
		case "gossip":
			add("fl.gossip_run_ms", tp.EngineMS, w)
		}
	}
	for name, a := range avg {
		m[name] = a.sum / a.w
	}
	if wsum > 0 {
		for l := range agg.Share {
			agg.Share[l] /= wsum
		}
		agg.SinkSelfShare /= wsum
		res.Budget = append(res.Budget, agg)
	}
}

// ---- pop_scale ----

// popTraced is pop_scale's traced pass: one fedsim run timed from
// outside, the same run replayed in-process three ways (plain; with
// faults and over-selection; with tracing too) so the three costs
// separate, and the substrate calibrations.
func popTraced(h *harness, seed int64, sz size, log *spanLog) (*layerResult, error) {
	if log == nil {
		log = &spanLog{}
	}
	log.workload = "pop_scale"
	sh := popShapeFor(sz)
	res := &layerResult{Workload: "pop_scale", Metrics: map[string]float64{}}
	m := res.Metrics

	if _, err := h.runFedsim(childTimeout, fedsimArgs(sh, sh.warmRounds, seed, seedPool)...); err != nil {
		return nil, err
	}
	res.Attempted++
	t0 := time.Now()
	sim, err := h.runFedsim(childTimeout, fedsimArgs(sh, sh.chunk, seed, 0)...)
	if err != nil {
		return nil, err
	}
	root := log.add(0, "client.job", "fedsim", t0, time.Now())

	s := jobSeed(seed, 300, 0)
	full, err := replayPopulation(sh, s, true, true, log, root)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if !bytes.Equal(full.trace, sim.trace) {
		res.fail("pop_scale: in-process replay's trace differs from fedsim's (%d vs %d bytes) — bench no longer mirrors fedsim's population mode",
			len(full.trace), len(sim.trace))
	}
	faulty, err := replayPopulation(sh, s, true, false, nil, 0)
	if err != nil {
		return nil, err
	}
	plain, err := replayPopulation(sh, s, false, false, nil, 0)
	if err != nil {
		return nil, err
	}
	m["fl.pop_round_us"] = median(full.roundS) * 1e6
	m["fl.pop_round_plain_us"] = median(plain.roundS) * 1e6
	m["fl.pop_runner_init_ms"] = full.initS * ms
	m["trace.events_per_round"] = float64(full.events) / float64(sh.chunk)
	m["trace.bytes_per_round"] = float64(len(full.trace)) / float64(min(sh.chunk, full.kept))

	sc, err := calibrateSim(sz, sh, s)
	if err != nil {
		return nil, err
	}
	m["sample.cohort_us"] = sc.CohortS * 1e6
	m["device.materialize_us"] = sc.MaterializeS * 1e6
	m["device.train_sim_us"] = sc.TrainSimS * 1e6
	m["fault.draw_ns"] = sc.FaultDrawS * 1e9
	m["profile.build_offline_ms"] = sc.BuildOfflineS * ms
	m["sched.cohort_solve_us"] = sc.CohortSolveS * 1e6
	m["trace.export_us_per_kevent"] = sc.ExportPerKEventS * 1e6

	req := populationRequest(sh.users)
	var solves []float64
	for i := 0; i < 3; i++ {
		s0 := time.Now()
		if _, err := fedsched.FedLBAPSparse.Schedule(req, nil); err != nil {
			return nil, err
		}
		solves = append(solves, time.Since(s0).Seconds())
		log.add(0, "sched.sparse_solve", fmt.Sprintf("solve-%d", i), s0, time.Now())
	}
	m["sched.sparse_solve_ms"] = median(solves) * ms
	lbap, err := calibrateSched(sz)
	if err != nil {
		return nil, err
	}
	m["sched.fedlbap_solve_us"] = lbap.FedLBAPSolveS * 1e6
	m["sched.request_build_ms"] = lbap.RequestBuildS * ms
	m["sched.makespan_vs_prop"] = lbap.MakespanVsProp

	// Budget of one fedsim run.
	const cohort = 96
	rounds := float64(sh.chunk)
	part := map[string]float64{}
	part["sched"] = sc.CohortSolveS * rounds
	part["trace"] = max(0, sum(full.roundS)-sum(faulty.roundS)) + full.exportS
	part["sim"] = (sc.CohortS + cohort*(sc.MaterializeS+sc.TrainSimS+sc.FaultDrawS)) * rounds
	part["fl"] = full.initS + max(0, sum(faulty.roundS)-part["sched"]-part["sim"])
	known := 0.0
	for _, v := range part {
		known += v
	}
	wall := max(sim.wallS, known)
	part["other"] = wall - known
	line := budgetLine{Template: "(all)", JobMS: sim.wallS * ms, Share: map[string]float64{}}
	for _, l := range budgetLayers {
		line.Share[l] = part[l] / wall
	}
	res.Budget = []budgetLine{line}
	return res, nil
}

// popReplay is one in-process population run.
type popReplay struct {
	initS   float64
	roundS  []float64
	exportS float64
	events  int // emitted over the run
	kept    int // rounds still in the ring at the end
	trace   []byte
}

// replayPopulation mirrors fedsim's runPopulation for fedsimArgs' flags.
func replayPopulation(sh popShape, seed int64, faults, traced bool, log *spanLog, parent int) (*popReplay, error) {
	drawn, quorum, minPart := 64, 0, 0
	var plan *fault.Plan
	if faults {
		var err error
		if plan, err = fault.ParseSpec(popFaults, seed+7); err != nil {
			return nil, err
		}
		drawn, quorum, minPart = 96, 64, 32 // ceil(64 x 1.5), quorum = the original cohort
	}
	var smp sample.Sampler = sample.NewUniform(sh.population, drawn, seed)
	if faults {
		smp = sample.NewCooldown(smp, 2)
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.New(0)
	}
	cfg := fl.PopulationConfig{
		Arch: nn.LeNetSmall(1, 16, 16, 10), Population: device.NewPopulation(sh.population, seed),
		Sampler: smp, Rounds: sh.chunk, TotalShards: 600, Faults: plan, Quorum: quorum,
		MinParticipants: minPart, Trace: rec,
	}
	out := &popReplay{}
	t0 := time.Now()
	runner, err := fl.NewPopulationRunner(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	out.initS = t1.Sub(t0).Seconds()
	log.add(parent, "fl.pop_runner_init", "replay:fedsim", t0, t1)
	for round := 0; round < sh.chunk; round++ {
		r0 := time.Now()
		before := 0
		if rec != nil {
			before = rec.Len() + int(rec.Dropped())
		}
		if _, err := runner.Round(round); err != nil {
			return nil, err
		}
		r1 := time.Now()
		out.roundS = append(out.roundS, r1.Sub(r0).Seconds())
		log.add(parent, "fl.pop_round", "replay:fedsim", r0, r1)
		if rec != nil {
			out.events += rec.Len() + int(rec.Dropped()) - before
		}
	}
	if rec != nil {
		var buf bytes.Buffer
		x0 := time.Now()
		events := rec.Events()
		if err := trace.WriteJSONL(&buf, events); err != nil {
			return nil, err
		}
		x1 := time.Now()
		out.exportS = x1.Sub(x0).Seconds()
		log.add(parent, "trace.export", "replay:fedsim", x0, x1)
		out.trace = buf.Bytes()
		out.kept = sh.chunk
		if len(events) > 0 {
			out.kept = sh.chunk - events[0].Round
		}
	}
	return out, nil
}
