package fl

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

// TestConfigCheckRejectsUnsupported: every Config field an engine cannot
// honour is rejected by name at start-up — by the engine entry points
// themselves, not just by check — instead of being silently ignored.
func TestConfigCheckRejectsUnsupported(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 61), 200, 10)
	cases := []struct {
		field string
		set   func(*Config)
	}{
		{"Quorum", func(c *Config) { c.Quorum = 2 }},
		{"MinParticipants", func(c *Config) { c.MinParticipants = 1 }},
		{"DeadlineSeconds", func(c *Config) { c.DeadlineSeconds = 30 }},
		{"SecureAgg", func(c *Config) { c.SecureAgg = true }},
		{"CheckpointSink", func(c *Config) { c.CheckpointSink = func(*Checkpoint) error { return nil } }},
		{"Resume", func(c *Config) { c.Resume = &Checkpoint{} }},
		{"LRSchedule", func(c *Config) { c.LRSchedule = nn.StepDecayLR(0.05, 0.5, 1) }},
	}
	engines := []struct {
		e   engine
		run func(Config) error
	}{
		{asyncEngine, func(c Config) error {
			_, err := RunAsync(AsyncConfig{Config: c, MaxUpdates: 1}, parallelClients(t, train, 2, false), nil)
			return err
		}},
		{gossipEngine, func(c Config) error {
			_, err := RunGossip(GossipConfig{Config: c}, parallelClients(t, train, 2, false), nil)
			return err
		}},
	}
	for _, tc := range cases {
		for _, eng := range engines {
			t.Run(fmt.Sprintf("%s/%s", eng.e, tc.field), func(t *testing.T) {
				cfg := smallConfig(1)
				tc.set(&cfg)
				err := eng.run(cfg)
				if err == nil || !strings.Contains(err.Error(), "Config."+tc.field) || !strings.Contains(err.Error(), eng.e.String()) {
					t.Fatalf("want an error naming the %s engine and Config.%s, got %v", eng.e, tc.field, err)
				}
			})
		}
		// The synchronous engine supports every one of them.
		cfg := smallConfig(1)
		tc.set(&cfg)
		if err := cfg.check(syncEngine); err != nil {
			t.Errorf("sync engine rejected Config.%s: %v", tc.field, err)
		}
	}
	// Unset fields pass everywhere; the cross-field rules hold everywhere.
	for _, e := range []engine{syncEngine, asyncEngine, gossipEngine} {
		cfg := smallConfig(1)
		if err := cfg.check(e); err != nil {
			t.Errorf("%s engine rejected a plain config: %v", e, err)
		}
		cfg.Arch = nil
		if err := cfg.check(e); err == nil {
			t.Errorf("%s engine accepted a config without an architecture", e)
		}
		cfg = smallConfig(1)
		cfg.Faults = &fault.Plan{CrashRate: 2}
		if err := cfg.check(e); err == nil {
			t.Errorf("%s engine accepted an invalid fault plan", e)
		}
	}
}

// reportLog is a sampler stub that records the engine's outcome reports.
type reportLog struct {
	n   int
	log []string
}

func (r *reportLog) Name() string                      { return "report-log" }
func (r *reportLog) Population() int                   { return r.n }
func (r *reportLog) CohortSize() int                   { return r.n }
func (r *reportLog) Cohort(round int, dst []int) []int { return dst[:r.n] }
func (r *reportLog) ReportFailure(client, round int) {
	r.log = append(r.log, fmt.Sprintf("fail %d@%d", client, round))
}
func (r *reportLog) ReportSuccess(client int) { r.log = append(r.log, fmt.Sprintf("ok %d", client)) }

// TestRoundClose pins the one round close every engine's behaviour
// reduces to: classification, the quorum cut and its tie-break, the
// reduction and the sampler reports, on hand-built cohort slots.
func TestRoundClose(t *testing.T) {
	type slot struct {
		id       int
		samples  int
		span     float64
		fault    fault.Kind
		diverged bool
	}
	ok := func(id int, span float64) slot { return slot{id: id, samples: 10, span: span} }
	crashPlan := &fault.Plan{CrashRate: 0.5}
	cases := []struct {
		name     string
		slots    []slot
		deadline float64
		quorum   int
		floor    int
		faults   *fault.Plan

		makespan  float64
		straggler int
		survivors []int    // surviving slots, ascending
		flags     []string // per slot: ok | faulted | diverged | dropped | late | idle
		failed    bool
		reports   []string
	}{
		{
			name:     "clean: slowest survivor is the makespan",
			slots:    []slot{ok(7, 3), ok(8, 9), ok(9, 5)},
			makespan: 9, straggler: 8, survivors: []int{0, 1, 2},
			flags:   []string{"ok", "ok", "ok"},
			reports: []string{"ok 0", "ok 1", "ok 2"},
		},
		{
			name:   "faulted: out, does not extend the makespan, reported failed",
			slots:  []slot{ok(1, 3), {id: 2, samples: 10, span: 50, fault: fault.Crash}, {id: 3, samples: 10, span: 60, fault: fault.Corrupt}},
			faults: crashPlan, makespan: 3, straggler: 1, survivors: []int{0},
			flags:   []string{"ok", "faulted", "faulted"},
			reports: []string{"ok 0", "fail 1@4", "fail 2@4"},
		},
		{
			name:     "diverged: out like a fault, without being one",
			slots:    []slot{{id: 1, samples: 10, span: 50, diverged: true}, ok(2, 4)},
			makespan: 4, straggler: 2, survivors: []int{1},
			flags:   []string{"diverged", "ok"},
			reports: []string{"fail 0@4", "ok 1"},
		},
		{
			name:     "dropped: deadline overruns are cut and cap the makespan at the deadline",
			slots:    []slot{ok(1, 3), ok(2, 12), ok(3, 10)},
			deadline: 10, makespan: 10, straggler: 1, survivors: []int{0, 2},
			flags:   []string{"ok", "dropped", "ok"},
			reports: []string{"ok 0", "fail 1@4", "ok 2"},
		},
		{
			name:   "late: the round closes after the first Quorum survivors by span",
			slots:  []slot{ok(1, 8), ok(2, 2), ok(3, 6), ok(4, 4)},
			quorum: 2, makespan: 4, straggler: 4, survivors: []int{1, 3},
			flags:   []string{"late", "ok", "late", "ok"},
			reports: []string{"ok 0", "ok 1", "ok 2", "ok 3"}, // late survivors did finish
		},
		{
			name:   "tie on span: the lower client id makes the cut",
			slots:  []slot{ok(9, 5), ok(4, 5), ok(6, 5), ok(1, 7)},
			quorum: 2, makespan: 5, straggler: 4, survivors: []int{1, 2},
			flags:   []string{"late", "ok", "ok", "late"},
			reports: []string{"ok 0", "ok 1", "ok 2", "ok 3"},
		},
		{
			name:   "quorum counts survivors only: faults eat the margin first",
			slots:  []slot{ok(1, 8), {id: 2, samples: 10, span: 1, fault: fault.LinkFlap}, ok(3, 6)},
			quorum: 2, faults: crashPlan, makespan: 8, straggler: 1, survivors: []int{0, 2},
			flags:   []string{"ok", "faulted", "ok"},
			reports: []string{"ok 0", "fail 1@4", "ok 2"},
		},
		{
			name:  "below the floor: a failed round, the survivors still reported",
			slots: []slot{ok(1, 3), {id: 2, samples: 10, span: 9, fault: fault.Battery}, ok(3, 5)},
			floor: 3, makespan: 5, straggler: 3, survivors: []int{0, 2}, failed: true,
			flags:   []string{"ok", "faulted", "ok"},
			reports: []string{"ok 0", "fail 1@4", "ok 2"},
		},
		{
			name:   "nobody left under a fault plan: failed",
			slots:  []slot{{id: 1, samples: 10, span: 9, fault: fault.Crash}},
			faults: crashPlan, straggler: -1, failed: true,
			flags: []string{"faulted"}, reports: []string{"fail 0@4"},
		},
		{
			name:      "nobody left with no attrition expected: the engine's call, not a failed round",
			slots:     []slot{{id: 1, samples: 10, span: 9, diverged: true}},
			straggler: -1,
			flags:     []string{"diverged"}, reports: []string{"fail 0@4"},
		},
		{
			name:     "idle slot: no samples, neither survivor nor failure",
			slots:    []slot{ok(1, 3), {id: 2}, ok(3, 2)},
			quorum:   1,
			makespan: 2, straggler: 3, survivors: []int{2},
			flags:   []string{"late", "idle", "ok"},
			reports: []string{"ok 0", "ok 2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &reportLog{n: len(tc.slots)}
			rc := newRoundCore(nn.LeNetSmall(1, 12, 12, 4), 20, 0, rep, tc.faults, nil)
			rc.deadline, rc.quorum, rc.floor = tc.deadline, tc.quorum, tc.floor
			for s, sl := range tc.slots {
				rc.crs[s] = ClientRound{ClientID: sl.id, Samples: sl.samples, TrainLoss: 1, EnergyJ: 2, Fault: sl.fault, Diverged: sl.diverged}
				rc.spans[s] = sl.span
			}
			cl := rc.close(4, rc.draw(4))

			if cl.makespan != tc.makespan || cl.straggler != tc.straggler || cl.failed != tc.failed {
				t.Errorf("makespan %v straggler %d failed %v, want %v %d %v",
					cl.makespan, cl.straggler, cl.failed, tc.makespan, tc.straggler, tc.failed)
			}
			if got := rc.order[:cl.survivors]; !slices.Equal(got, tc.survivors) {
				t.Errorf("surviving slots %v, want %v", got, tc.survivors)
			}
			counts := map[string]int{}
			for s := range tc.slots {
				cr := rc.crs[s]
				flag := "ok"
				switch {
				case cr.Samples <= 0:
					flag = "idle"
				case cr.Fault != fault.None:
					flag = "faulted"
				case cr.Diverged:
					flag = "diverged"
				case cr.Dropped:
					flag = "dropped"
				case cr.Late:
					flag = "late"
				}
				counts[flag]++
				if flag != tc.flags[s] {
					t.Errorf("slot %d (client %d) is %s, want %s", s, cr.ClientID, flag, tc.flags[s])
				}
			}
			if cl.faulted != counts["faulted"] || cl.dropped != counts["dropped"] || cl.late != counts["late"] || cl.survivors != counts["ok"] {
				t.Errorf("close counted faulted %d dropped %d late %d survivors %d, slots say %v",
					cl.faulted, cl.dropped, cl.late, cl.survivors, counts)
			}
			if want := 10 * cl.survivors; cl.samples != want || cl.lossSum != float64(want) {
				t.Errorf("survivor samples %d lossSum %v, want %d", cl.samples, cl.lossSum, want)
			}
			if want := 2 * float64(len(tc.slots)); cl.energyJ != want {
				t.Errorf("energy %v, want %v (wasted work counts)", cl.energyJ, want)
			}
			if !reflect.DeepEqual(rep.log, tc.reports) {
				t.Errorf("sampler reports %v, want %v", rep.log, tc.reports)
			}
		})
	}
}

// roundEvents keeps the round-close events of one round, with the
// training-only fields (losses, accuracy) blanked so a simulation-only
// engine and a training engine can be compared.
func roundEvents(rec *trace.Recorder, round int) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Round != round {
			continue
		}
		switch e.Kind {
		case trace.KindClientRound, trace.KindFault, trace.KindRoundSummary, trace.KindThrottle:
			e.Loss, e.Accuracy = 0, 0
			out = append(out, e)
		}
	}
	return out
}

// TestPopulationMatchesRunOnSameDevices is the differential the shared
// core makes cheap: a PopulationRunner whose cohort is the whole fleet and
// fl.Run over clients holding the very same devices, shard sizes, link,
// fault plan, quorum and floor must close round 0 identically — makespan,
// straggler, per-client time/energy/battery, fault and late flags — bit
// for bit. (Later rounds differ by design: the population re-materializes
// its devices, Run's keep their heat.)
func TestPopulationMatchesRunOnSameDevices(t *testing.T) {
	const n, shards, shardSize = 6, 2, popShardSize
	arch := nn.LeNetSmall(1, 16, 16, 10)
	train, _ := data.TrainTest(data.SMNISTConfig(0, 67), n*shards*shardSize, 10)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = shards * shardSize
	}
	for seed := int64(1); seed <= 6; seed++ {
		plan := &fault.Plan{Seed: seed, CrashRate: 0.2, BatteryRate: 0.05, FlapRate: 0.15, CorruptRate: 0.1, DegradeRate: 0.4, DegradeFactor: 3}
		pop := device.NewPopulation(n, 40+seed)

		popTrace := trace.New(0)
		runner, err := NewPopulationRunner(PopulationConfig{
			Arch: arch, Population: pop, Sampler: sample.NewUniform(n, n, 1), Scheduler: sched.Equal{},
			TotalShards: n * shards, Workers: 4,
			Faults: plan, Quorum: 4, MinParticipants: 2, Trace: popTrace,
		})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := runner.Round(0)
		if err != nil {
			t.Fatal(err)
		}

		part := data.IIDSizes(train, sizes, newTestRand())
		devs := make([]*device.Device, n)
		links := make([]network.Link, n)
		for id := range devs {
			devs[id] = new(device.Device)
			pop.Materialize(id, devs[id])
			links[id] = network.WiFi()
		}
		clients, err := BuildClients(devs, links, part.Materialize(train))
		if err != nil {
			t.Fatal(err)
		}
		runTrace := trace.New(0)
		cfg := Config{
			Arch: arch, Rounds: 1, BatchSize: 20, Seed: seed, Workers: 4,
			Faults: plan, Quorum: 4, MinParticipants: 2, Trace: runTrace,
		}
		hist, err := Run(cfg, clients, nil)
		if err != nil {
			t.Fatal(err)
		}

		r0 := hist.Rounds[0]
		energy, faulted, late := 0.0, 0, 0
		for _, cr := range r0.Clients {
			energy += cr.EnergyJ
			if cr.Fault != fault.None {
				faulted++
			} else if cr.Late {
				late++
			}
		}
		if r0.Makespan != pr.MakespanS || r0.Failed != pr.Failed || energy != pr.EnergyJ || faulted != pr.Faulted || late != pr.Late {
			t.Fatalf("seed %d: Run closed at makespan %v failed %v energy %v faulted %d late %d, population at %+v",
				seed, r0.Makespan, r0.Failed, energy, faulted, late, pr)
		}
		got, want := roundEvents(runTrace, 0), roundEvents(popTrace, 0)
		if len(want) < n+1 {
			t.Fatalf("seed %d: population round emitted only %d events", seed, len(want))
		}
		if err := trace.Compare(want, got, trace.Exact); err != nil {
			t.Fatalf("seed %d: Run's round diverged from the population round: %v", seed, err)
		}
	}
}

// TestCheckpointResumeEveryRound extends TestCheckpointResumeBitIdentical
// from one kill point to all of them: a run snapshotted after every round
// is resumed — through the wire format, onto fresh clients — from each
// snapshot in turn (including the one taken after the final round), and
// every resume must reproduce the uninterrupted run's history, final
// weights and remaining trace bytes, with faults, a quorum and a cooldown
// sampler in play, at two Workers values.
func TestCheckpointResumeEveryRound(t *testing.T) {
	forceLanes(t, 4)
	const rounds = 5
	train, test := data.TrainTest(data.SMNISTConfig(0, 71), 500, 150)
	plan := mustPlan(t, "crash=0.2,battery=0.05,flap=0.15,corrupt=0.1,degrade=0.3,slow=3", 31)
	for _, workers := range []int{-1, 4} {
		mkCfg := func() Config {
			cfg := smallConfig(rounds)
			cfg.Workers = workers
			cfg.Faults = plan
			cfg.Quorum = 3
			cfg.MinParticipants = 2
			cfg.Sampler = sample.NewCooldown(sample.NewUniform(5, 4, 9), 2)
			cfg.Trace = trace.New(0)
			return cfg
		}
		// Each snapshot is kept twice: as Save wrote it, and in parts — its
		// state record plus the length of a history log that grows by the
		// one new round, the way the serve daemon persists it.
		var snaps, states [][]byte
		var log []byte
		var logLens []int
		ref := mkCfg()
		ref.CheckpointEvery = 1
		ref.CheckpointSink = func(ck *Checkpoint) error {
			var buf bytes.Buffer
			if err := ck.Save(&buf); err != nil {
				return err
			}
			snaps = append(snaps, buf.Bytes())
			states = append(states, ck.AppendState(nil))
			log = ck.AppendRounds(log, len(logLens))
			logLens = append(logLens, len(log))
			return nil
		}
		want, err := Run(ref, parallelClients(t, train, 5, true), test)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != rounds {
			t.Fatalf("Workers=%d: %d snapshots for %d rounds", workers, len(snaps), rounds)
		}
		for i, snap := range snaps {
			next := i + 1
			ck, err := LoadCheckpoint(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			if ck.NextRound != next {
				t.Fatalf("snapshot %d resumes at round %d", i, ck.NextRound)
			}
			if i%2 == 1 {
				// Odd snapshots resume from the parts instead, which must
				// reassemble into the very bytes Save wrote.
				if ck, err = LoadCheckpointParts(states[i], log[:logLens[i]]); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := ck.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), snap) {
					t.Fatalf("snapshot %d: state + log reassemble into different bytes than Save wrote (%v)", i, err)
				}
			}
			cfg := mkCfg()
			cfg.Resume = ck
			got, err := Run(cfg, parallelClients(t, train, 5, true), test)
			if err != nil {
				t.Fatalf("Workers=%d: resume at round %d: %v", workers, next, err)
			}
			requireSameHistory(t, want, got)
			if !bytes.Equal(traceRange(t, ref.Trace, next, rounds), traceRange(t, cfg.Trace, next, rounds)) {
				t.Fatalf("Workers=%d: trace of rounds %d.. diverged after resuming", workers, next)
			}
			if len(traceRange(t, cfg.Trace, 0, next)) != 0 {
				t.Fatalf("Workers=%d: resume at round %d re-emitted completed rounds", workers, next)
			}
		}
	}
}

// TestCheckpointModelBufferKept: a run encodes every snapshot's model
// into one buffer — the sink copies what it keeps — so a run
// checkpointed every round allocates no model-sized slice past its
// first snapshot.
func TestCheckpointModelBufferKept(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 77), 200, 10)
	cfg := smallConfig(4)
	cfg.CheckpointEvery = 1
	var first *byte
	snaps := 0
	cfg.CheckpointSink = func(ck *Checkpoint) error {
		if snaps == 0 {
			first = &ck.Model[0]
		} else if &ck.Model[0] != first {
			t.Errorf("snapshot %d encoded its model into a new buffer", snaps)
		}
		snaps++
		return nil
	}
	if _, err := Run(cfg, parallelClients(t, train, 2, false), nil); err != nil {
		t.Fatal(err)
	}
	if snaps != cfg.Rounds {
		t.Fatalf("%d snapshots in %d rounds", snaps, cfg.Rounds)
	}
}
