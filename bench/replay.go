package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/serve"
	"fedsched/internal/trace"
)

// The layer replay rebuilds a job in this process through the same public
// functions the daemon's unexported serve.build calls, in the same order,
// and runs the same engine with the same hooks. Nothing here can be
// shared with the daemon — this benchmark may not edit it — so the copy is
// guarded instead: replayJob's outputs must equal the daemon's bit for
// bit (checkFidelity), or the traced pass fails naming the first
// difference. A drifted mirror cannot pass silently.

// mirrorDefaults is serve.JobConfig's unexported withDefaults.
func mirrorDefaults(c serve.JobConfig) serve.JobConfig {
	if c.Engine == "" {
		c.Engine = "sync"
	}
	if c.Dataset == "" {
		c.Dataset = "smnist"
	}
	if c.Testbed == 0 && c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Testbed > 0 && c.Scheduler == "" {
		c.Scheduler = "fedlbap"
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Samples <= 0 {
		c.Samples = 600
	}
	if c.TestSamples <= 0 {
		c.TestSamples = 200
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.LR <= 0 {
		c.LR = 0.02
	}
	if c.Momentum == 0 { //fedlint:allow floateq — mirrors serve: JSON zero value means "field unset"
		c.Momentum = 0.9
	}
	if c.Momentum < 0 {
		c.Momentum = 0
	}
	if c.Engine == "async" && c.MaxUpdates <= 0 {
		c.MaxUpdates = 50
	}
	if c.Engine == "gossip" && c.Topology == "" {
		c.Topology = "ring"
	}
	if c.Precision == "" {
		c.Precision = "f64"
	}
	return c
}

// decodeConfig reads a submitted job body back with defaults filled in.
func decodeConfig(body []byte) serve.JobConfig {
	var c serve.JobConfig
	if err := json.Unmarshal(body, &c); err != nil {
		panic(err) // the body was produced by json.Marshal of a JobConfig
	}
	return mirrorDefaults(c)
}

// builtJob mirrors serve's built.
type builtJob struct {
	arch       *nn.Arch
	train      *data.Dataset
	test       *data.Dataset
	clients    []*fl.Client
	run        fl.Config
	maxUpdates int
	topology   fl.Topology
}

// buildTimes is where a job's build went.
type buildTimes struct {
	Generate, RequestBuild, Solve, Partition, BuildClients time.Duration
}

// timed runs f and records it as a child span.
func timed(log *spanLog, parent int, name, job string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	log.add(parent, name, job, t0, t1)
	return t1.Sub(t0)
}

// buildJob mirrors serve.build and buildTestbedClients step by step.
func buildJob(cfg serve.JobConfig, rec *trace.Recorder, log *spanLog, parent int, job string) (*builtJob, buildTimes, error) {
	var bt buildTimes
	prec, err := nn.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, bt, err
	}
	b := &builtJob{maxUpdates: cfg.MaxUpdates}
	bt.Generate = timed(log, parent, "data.generate", job, func() {
		switch cfg.Dataset {
		case "smnist":
			b.train, b.test = data.SMNIST(cfg.Samples, cfg.Seed), data.SMNIST(cfg.TestSamples, cfg.Seed)
			b.arch = nn.LeNetSmall(1, 16, 16, 10)
		case "scifar":
			b.train, b.test = data.SCIFAR(cfg.Samples, cfg.Seed), data.SCIFAR(cfg.TestSamples, cfg.Seed)
			b.arch = nn.LeNetSmall(3, 16, 16, 10)
		}
	})
	if b.arch == nil {
		return nil, bt, fmt.Errorf("dataset %q", cfg.Dataset)
	}

	if cfg.Testbed == 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		var shards []*data.Dataset
		bt.Partition = timed(log, parent, "data.partition", job, func() {
			shards = data.IIDEqual(b.train, cfg.Clients, rng).Materialize(b.train)
		})
		bt.BuildClients = timed(log, parent, "fl.build_clients", job, func() {
			devs := make([]*device.Device, cfg.Clients)
			links := make([]network.Link, cfg.Clients)
			for i := range links {
				links[i] = network.WiFi()
			}
			b.clients, err = fl.BuildClients(devs, links, shards)
		})
		if err != nil {
			return nil, bt, err
		}
	} else {
		tb := fedsched.NewTestbed(cfg.Testbed)
		var req *fedsched.Request
		bt.RequestBuild = timed(log, parent, "sched.request_build", job, func() {
			req, err = tb.Request(fedsched.LeNet(b.train.C, 28, 28, 10), 60000)
		})
		if err != nil {
			return nil, bt, err
		}
		req.Trace = rec
		s, ok := map[string]fedsched.Scheduler{"fedlbap": fedsched.FedLBAP, "prop": fedsched.Proportional,
			"random": fedsched.RandomSched, "equal": fedsched.Equal}[cfg.Scheduler]
		if !ok {
			return nil, bt, fmt.Errorf("scheduler %q", cfg.Scheduler)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var asg *fedsched.Assignment
		bt.Solve = timed(log, parent, "sched.solve", job, func() { asg, err = s.Schedule(req, rng) })
		if err != nil {
			return nil, bt, err
		}
		var part data.Partition
		bt.Partition = timed(log, parent, "data.partition", job, func() {
			users := len(tb.Profiles)
			sizes := make([]int, users)
			assigned := 0
			for j, sh := range asg.Shards {
				sizes[j] = sh * b.train.Len() / req.TotalShards
				assigned += sizes[j]
			}
			for j := 0; assigned < b.train.Len(); j = (j + 1) % users {
				sizes[j]++
				assigned++
			}
			part = data.IIDSizes(b.train, sizes, rng)
		})
		bt.BuildClients = timed(log, parent, "fl.build_clients", job, func() { b.clients, err = tb.Clients(b.train, part) })
		if err != nil {
			return nil, bt, err
		}
	}

	fseed := cfg.FaultSeed
	if fseed == 0 {
		fseed = cfg.Seed*0x9e3779b9 + 97
	}
	plan, err := fault.ParseSpec(cfg.Faults, fseed)
	if err != nil {
		return nil, bt, err
	}
	b.run = fl.Config{
		Arch: b.arch, Rounds: cfg.Rounds, BatchSize: cfg.BatchSize,
		LR: cfg.LR, Momentum: cfg.Momentum, Seed: cfg.Seed,
		Precision: prec, Workers: cfg.Workers, EvalEvery: 1,
		DeadlineSeconds: cfg.DeadlineSeconds, Quorum: cfg.Quorum,
		MinParticipants: cfg.MinParticipants, Faults: plan, Trace: rec,
	}
	if cfg.Topology == "random" {
		b.topology = fl.RandomPairs
	}
	if cfg.CohortSize > 0 {
		active := 0
		for _, c := range b.clients {
			if c.Local != nil && c.Local.Len() > 0 {
				active++
			}
		}
		if cfg.CohortSize > active {
			return nil, bt, fmt.Errorf("cohort_size %d exceeds the %d data-holding clients", cfg.CohortSize, active)
		}
		b.run.Sampler = sample.NewUniform(active, cfg.CohortSize, cfg.Seed+31)
	}
	return b, bt, nil
}

// roundsJSON mirrors serve's roundInfos and the /rounds handler's encoding.
func roundsJSON(rounds []fl.RoundStats) []byte {
	out := make([]serve.RoundInfo, len(rounds))
	for i, rs := range rounds {
		n := 0
		for _, cr := range rs.Clients {
			if cr.Fault == 0 && !cr.Diverged && !cr.Late && !cr.Dropped {
				n++
			}
		}
		out[i] = serve.RoundInfo{Round: rs.Round, MakespanS: rs.Makespan, TrainLoss: trace.Sanitize(rs.TrainLoss),
			Accuracy: trace.Sanitize(rs.Accuracy), Failed: rs.Failed, Participants: n}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // sanitized floats always encode
	}
	return append(raw, '\n')
}

// replayed is one in-process run of a job config with its outside-visible
// boundaries timed.
type replayed struct {
	cfg   serve.JobConfig
	built *builtJob
	Build buildTimes

	EngineS float64 // fl.Run / RunAsync / RunGossip wall, sinks included
	TotalS  float64 // build + engine + final flush

	// Synchronous jobs: one entry per round.
	RoundS  []float64 // round start (cancel poll) -> sink return
	FlushS  []float64 // trace.Stream.Flush inside the sink
	EncodeS []float64 // Checkpoint.Save inside the sink
	WriteS  []float64 // tmp-write + rename inside the sink
	CkptB   []float64
	Events  int // trace events emitted by the whole job
	// TrainSamples is, per round, the samples the round's clients trained
	// on (clients whose fault struck before training excluded).
	TrainSamples []int
	ClientRounds int // client participations with a simulated device

	Polls      int     // cancel polls: rounds, or async virtual events
	FinalFlush float64 // settle's last Stream.Flush

	Rounds   []byte // as GET /jobs/{id}/rounds returns them
	Trace    []byte // as GET /jobs/{id}/trace returns it
	LastCkpt []byte
	lastCk   *fl.Checkpoint
	hist     *fl.History
}

// replayJob runs cfg exactly as serve.runJob would, in dir.
func replayJob(cfg serve.JobConfig, dir string, log *spanLog, job string) (*replayed, error) {
	r := &replayed{cfg: cfg}
	t0 := time.Now()
	root := log.add(0, "replay.job", job, t0, t0) // end set once the job is done
	tracePath := filepath.Join(dir, "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	stream := trace.NewStream(tf, 0)
	rec := trace.New(0)

	b, bt, err := buildJob(cfg, rec, log, root, job)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	r.built, r.Build = b, bt

	var polls []time.Time
	b.run.Cancel = func() bool {
		polls = append(polls, time.Now())
		return false
	}

	e0 := time.Now()
	switch cfg.Engine {
	case "sync":
		resumePath := filepath.Join(dir, "resume.bin")
		b.run.CheckpointEvery = 1
		b.run.CheckpointSink = func(ck *fl.Checkpoint) error {
			s0 := time.Now()
			r.Events += rec.Len()
			if err := stream.Flush(rec); err != nil {
				return err
			}
			s1 := time.Now()
			var buf bytes.Buffer
			var hdr [8]byte
			binary.LittleEndian.PutUint64(hdr[:], uint64(stream.Offset()))
			buf.Write(hdr[:])
			if err := ck.Save(&buf); err != nil {
				return err
			}
			s2 := time.Now()
			if err := os.WriteFile(resumePath+".tmp", buf.Bytes(), 0o644); err != nil {
				return err
			}
			if err := os.Rename(resumePath+".tmp", resumePath); err != nil {
				return err
			}
			s3 := time.Now()
			k := len(r.RoundS)
			rs := log.add(root, "fl.round", job, polls[k], s3)
			sink := log.add(rs, "sink", job, s0, s3)
			log.add(sink, "trace.stream_flush", job, s0, s1)
			log.add(sink, "fl.ckpt_encode", job, s1, s2)
			log.add(sink, "serve.resume_write", job, s2, s3)
			r.RoundS = append(r.RoundS, s3.Sub(polls[k]).Seconds())
			r.FlushS = append(r.FlushS, s1.Sub(s0).Seconds())
			r.EncodeS = append(r.EncodeS, s2.Sub(s1).Seconds())
			r.WriteS = append(r.WriteS, s3.Sub(s2).Seconds())
			r.CkptB = append(r.CkptB, float64(buf.Len()-8))
			r.LastCkpt = append(r.LastCkpt[:0], buf.Bytes()[8:]...)
			r.lastCk = ck
			return nil
		}
		hist, err := fl.Run(b.run, b.clients, b.test)
		if err != nil {
			return nil, fmt.Errorf("fl.Run: %w", err)
		}
		r.hist = hist
		r.Rounds = roundsJSON(hist.Rounds)
		for _, rs := range hist.Rounds {
			n := 0
			for _, cr := range rs.Clients {
				if cr.Fault == fault.None || cr.Fault == fault.Corrupt {
					n += cr.Samples
				}
			}
			r.TrainSamples = append(r.TrainSamples, n)
			if cfg.Testbed > 0 {
				r.ClientRounds += len(rs.Clients)
			}
		}
	case "async":
		hist, err := fl.RunAsync(fl.AsyncConfig{Config: b.run, MaxUpdates: b.maxUpdates}, b.clients, b.test)
		if err != nil {
			return nil, fmt.Errorf("fl.RunAsync: %w", err)
		}
		r.Rounds = roundsJSON(nil)
		// Every merge is one client's local epoch.
		perEpoch := 0
		for i, u := range hist.UpdatesPerClient {
			perEpoch += u * b.clients[i].Local.Len()
		}
		r.TrainSamples = []int{perEpoch}
		r.ClientRounds = hist.Updates
		log.add(root, "fl.async_run", job, e0, time.Now())
	case "gossip":
		hist, err := fl.RunGossip(fl.GossipConfig{Config: b.run, Topology: b.topology}, b.clients, b.test)
		if err != nil {
			return nil, fmt.Errorf("fl.RunGossip: %w", err)
		}
		r.Rounds = roundsJSON(nil)
		for i := 0; i < hist.Rounds; i++ {
			r.TrainSamples = append(r.TrainSamples, b.train.Len())
		}
		log.add(root, "fl.gossip_run", job, e0, time.Now())
	default:
		return nil, fmt.Errorf("engine %q", cfg.Engine)
	}
	e1 := time.Now()
	r.EngineS = e1.Sub(e0).Seconds()
	r.Polls = len(polls)

	r.Events += rec.Len()
	if err := stream.Flush(rec); err != nil {
		return nil, err
	}
	e2 := time.Now()
	log.add(root, "trace.stream_flush", job, e1, e2)
	r.FinalFlush = e2.Sub(e1).Seconds()
	r.TotalS = e2.Sub(t0).Seconds()
	log.setEnd(root, e2)
	if err := tf.Close(); err != nil {
		return nil, err
	}
	if r.Trace, err = os.ReadFile(tracePath); err != nil {
		return nil, err
	}
	return r, nil
}

// checkFidelity compares the replay's outputs with the daemon's for the
// same config. The error names the first differing round, or the first
// differing trace line when the histories agree (async and gossip jobs
// publish no round history; their trace is the evidence).
func checkFidelity(template string, daemonRounds, daemonTrace []byte, r *replayed) error {
	if !bytes.Equal(daemonRounds, r.Rounds) {
		var d, m []serve.RoundInfo
		if err := json.Unmarshal(daemonRounds, &d); err != nil {
			return fmt.Errorf("%s: daemon rounds.json unreadable: %v", template, err)
		}
		if err := json.Unmarshal(r.Rounds, &m); err != nil {
			return fmt.Errorf("%s: replay rounds unreadable: %v", template, err)
		}
		for i := 0; i < len(d) && i < len(m); i++ {
			if d[i] != m[i] {
				return fmt.Errorf("%s: replay drifted from the daemon at round %d: daemon %+v, replay %+v — bench/replay.go no longer mirrors serve.build/runJob",
					template, d[i].Round, d[i], m[i])
			}
		}
		return fmt.Errorf("%s: replay drifted from the daemon: daemon ran %d rounds, replay %d (first %d agree) — bench/replay.go no longer mirrors serve.build/runJob",
			template, len(d), len(m), min(len(d), len(m)))
	}
	if !bytes.Equal(daemonTrace, r.Trace) {
		dl, ml := bytes.Split(daemonTrace, []byte("\n")), bytes.Split(r.Trace, []byte("\n"))
		for i := 0; i < len(dl) && i < len(ml); i++ {
			if !bytes.Equal(dl[i], ml[i]) {
				return fmt.Errorf("%s: round histories agree but traces differ at line %d: daemon %s, replay %s — bench/replay.go no longer mirrors serve.build/runJob",
					template, i+1, dl[i], ml[i])
			}
		}
		return fmt.Errorf("%s: round histories agree but traces differ in length: daemon %d lines, replay %d", template, len(dl), len(ml))
	}
	return nil
}
