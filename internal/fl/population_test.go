package fl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

func popConfig(n, cohort, rounds int) PopulationConfig {
	return PopulationConfig{
		Arch:        nn.LeNetSmall(1, 12, 12, 4),
		Population:  device.NewPopulation(n, 42),
		Sampler:     sample.NewUniform(n, cohort, 42),
		Rounds:      rounds,
		TotalShards: 120,
	}
}

func TestPopulationRoundScalesWithCohortNotPopulation(t *testing.T) {
	// The tentpole invariant: steady-state per-round allocations depend on
	// the cohort, not the population. A 100× larger fleet must cost the
	// same per round once the runner is warm.
	measure := func(n int) float64 {
		cfg := popConfig(n, 16, 1)
		r, err := NewPopulationRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Round(0); err != nil { // warm-up
			t.Fatal(err)
		}
		round := 1
		return testing.AllocsPerRun(20, func() {
			if _, err := r.Round(round); err != nil {
				t.Fatal(err)
			}
			round++
		})
	}
	small := measure(5_000)
	big := measure(500_000)
	// TrainSamples allocates its batch-point slice per participant, and the
	// solver holds O(cohort) scratch — both population-independent. Allow
	// slack for map growth inside the sampler but nothing O(N).
	if big > small+64 {
		t.Fatalf("per-round allocs grew with population: %v (5e3) vs %v (5e5)", small, big)
	}
	if small > 2048 {
		t.Fatalf("per-round allocs implausibly high for cohort 16: %v", small)
	}
}

func TestPopulationLiveHeapOSelected(t *testing.T) {
	// Absolute backstop for the O(selected) claim: a warm 1M-client runner
	// plus one round's live state must fit comfortably under a small cap.
	if testing.Short() {
		t.Skip("1M-client heap check")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := popConfig(1_000_000, 32, 1)
	r, err := NewPopulationRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if pr.Participants == 0 {
		t.Fatal("empty round")
	}
	if grew := after.HeapAlloc - before.HeapAlloc; before.HeapAlloc < after.HeapAlloc && grew > 8<<20 {
		t.Fatalf("1M-client runner holds %d bytes live; expected O(cohort)", grew)
	}
}

func TestPopulationBatteryBudget(t *testing.T) {
	cfg := popConfig(10_000, 16, 1)
	cfg.BatteryBudget = 0.05
	hist, err := SimulatePopulationRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	free, err := SimulatePopulationRounds(popConfig(10_000, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, f := hist.Rounds[0], free.Rounds[0]
	if r.Participants == 0 || r.Samples == 0 {
		t.Fatalf("budgeted round trained nothing: %+v", r)
	}
	// A tight per-round budget caps the fast clients, so the load spreads
	// wider (or stays equal when the budget never binds).
	if r.Participants < f.Participants {
		t.Fatalf("battery budget reduced participation: %d vs %d", r.Participants, f.Participants)
	}
}

func TestPopulationAvailabilitySampling(t *testing.T) {
	cfg := popConfig(10_000, 16, 4)
	cfg.Sampler = sample.NewAvailability(10_000, 16, 42)
	hist, err := SimulatePopulationRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained := 0
	for _, r := range hist.Rounds {
		if r.Selected > 16 {
			t.Fatalf("round %d cohort %d exceeds requested size", r.Round, r.Selected)
		}
		if r.Samples > 0 {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no round trained any samples under availability sampling")
	}
}

func TestPopulationConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PopulationConfig)
	}{
		{"no-arch", func(c *PopulationConfig) { c.Arch = nil }},
		{"no-population", func(c *PopulationConfig) { c.Population = nil }},
		{"no-sampler", func(c *PopulationConfig) { c.Sampler = nil }},
		{"sampler-mismatch", func(c *PopulationConfig) { c.Sampler = sample.NewUniform(999, 16, 1) }},
		{"bad-population", func(c *PopulationConfig) { c.Population.SpeedJitter = 2 }},
		{"negative-rounds", func(c *PopulationConfig) { c.Rounds = -2 }},
		{"negative-shards", func(c *PopulationConfig) { c.TotalShards = -5 }},
		{"negative-quorum", func(c *PopulationConfig) { c.Quorum = -3 }},
		{"negative-min-participants", func(c *PopulationConfig) { c.MinParticipants = -1 }},
		{"battery-budget-above-1", func(c *PopulationConfig) { c.BatteryBudget = 5 }},
		{"negative-battery-budget", func(c *PopulationConfig) { c.BatteryBudget = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := popConfig(1000, 16, 1)
			tc.mutate(&cfg)
			if _, err := NewPopulationRunner(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// failingScheduler is Fed-LBAP until the call numbered failAt (from 0),
// which runs the solve — its solver and schedule events land in the
// trace — and then fails.
type failingScheduler struct {
	failAt, calls int
}

func (s *failingScheduler) Name() string { return "failing" }

func (s *failingScheduler) Schedule(req *sched.Request, rng *rand.Rand) (*sched.Assignment, error) {
	asg, err := sched.FedLBAP{}.Schedule(req, rng)
	s.calls++
	if s.calls-1 == s.failAt {
		return nil, errors.New("solver gave up")
	}
	return asg, err
}

// TestPopulationPipelineByteIdentical: a pipelined run (Workers ≥ 2,
// lanes free) plans a batch of rounds while it plays the last one;
// histories, trace bytes and the ring's drop count must equal a
// Round-by-Round run's, and so must a sequential one's (Workers −1:
// play, then plan), across hundreds
// of rounds under every knob that feeds back into the next draw or the
// trace — cooldown reports, faults, quorum, the participation floor,
// battery budgets, availability windows and a trace cap the run
// overflows — and a scheduler failing mid-batch, at a batch boundary or
// on the first round must leave the same partial history, error and
// trace.
func TestPopulationPipelineByteIdentical(t *testing.T) {
	forceLanes(t, 4)
	plan, err := fault.ParseSpec("crash=0.2,battery=0.05,flap=0.1,corrupt=0.05,degrade=0.3,slow=4", 7)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		hist    *PopulationHistory
		err     error
		trace   []byte
		dropped uint64
	}
	// roundByRound is the reference: plan and play one round at a time.
	roundByRound := func(cfg PopulationConfig) (*PopulationHistory, error) {
		r, err := NewPopulationRunner(cfg)
		if err != nil {
			return nil, err
		}
		hist := &PopulationHistory{Rounds: []PopulationRound{}}
		for round := 0; round < r.cfg.Rounds; round++ {
			pr, err := r.Round(round)
			if err != nil {
				return hist, err
			}
			hist.add(pr)
		}
		return hist, nil
	}
	run := func(sim func(PopulationConfig) (*PopulationHistory, error), workers int, mutate func(*PopulationConfig)) result {
		cfg := popConfig(20_000, 24, 210)
		cfg.Workers = workers
		cfg.Faults = plan
		mutate(&cfg)
		hist, err := sim(cfg)
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, cfg.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		return result{hist, err, buf.Bytes(), cfg.Trace.Dropped()}
	}
	cases := []struct {
		name   string
		mutate func(*PopulationConfig)
	}{
		{"cooldown-quorum-floor-budget-cap", func(c *PopulationConfig) {
			c.Sampler = sample.NewCooldown(sample.NewUniform(20_000, 24, 42), 2)
			c.Quorum, c.MinParticipants, c.BatteryBudget = 16, 12, 0.05
			c.Trace = trace.New(3000)
		}},
		{"window-cooldown", func(c *PopulationConfig) {
			a := sample.NewAvailability(20_000, 24, 42)
			a.WindowHours = 3
			c.Sampler = sample.NewCooldown(a, 1)
			c.Trace = trace.New(0)
		}},
	}
	for _, failAt := range []int{0, 2 * pipelineBatch, 151} {
		failAt := failAt
		cases = append(cases, struct {
			name   string
			mutate func(*PopulationConfig)
		}{fmt.Sprintf("scheduler-fails-at-%d", failAt), func(c *PopulationConfig) {
			c.Sampler = sample.NewCooldown(sample.NewUniform(20_000, 24, 42), 2)
			c.Scheduler = &failingScheduler{failAt: failAt}
			c.Quorum = 16
			c.Trace = trace.New(0)
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := run(roundByRound, 1, c.mutate)
			if len(want.trace) == 0 || (want.err == nil && len(want.hist.Rounds) != 210) {
				t.Fatalf("round-by-round run: %d rounds, %d trace bytes, err %v", len(want.hist.Rounds), len(want.trace), want.err)
			}
			for _, w := range []int{-1, 1, 2, 8} {
				got := run(SimulatePopulationRounds, w, c.mutate)
				if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
					t.Fatalf("Workers=%d: error %v, round by round %v", w, got.err, want.err)
				}
				if !reflect.DeepEqual(got.hist, want.hist) {
					t.Fatalf("Workers=%d: history differs from the round-by-round run's (%d vs %d rounds)", w, len(got.hist.Rounds), len(want.hist.Rounds))
				}
				if !bytes.Equal(got.trace, want.trace) || got.dropped != want.dropped {
					t.Fatalf("Workers=%d: trace differs from the round-by-round run's (%d vs %d bytes, dropped %d vs %d)",
						w, len(got.trace), len(want.trace), got.dropped, want.dropped)
				}
			}
		})
	}
}
