package fl

import (
	"fmt"
	"math"
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

// Engine-reduction relations: pairs of engines in configurations where
// they must agree, held to each other — model bits, device end state and
// virtual time — so a change to one engine's arithmetic or device
// timeline that the other does not share shows up here.

// withinTol reports |got − want| ≤ Abs + Rel·|want|.
func withinTol(want, got float64, tol trace.Tolerances) bool {
	return math.Abs(got-want) <= tol.Abs+tol.Rel*math.Abs(want)
}

// TestAsyncOneClientReducesToRun: RunAsync with one client, MixRate 1 and
// MaxUpdates R is Run for R rounds. Every merge replaces the global model
// with the update (staleness is always 0) and FedAvg over a lone survivor
// is that survivor's update, so accuracy and weights are bit-equal. A
// cycle plays the same download → compute → upload legs a round does, and
// a one-member round waits for nobody, so the device ends bit-equal too.
// Virtual time sums the same legs in a different order, so it agrees
// within DefaultTolerances.
//
// Under a fault plan an aborted (or corrupted) async cycle must leave the
// device exactly where the matching failed sync round does — both draw the
// fault by (iteration, client id) — and MaxUpdates counts the sync run's
// successful rounds. Virtual time is not compared there: a sync round
// that loses its only update closes at once (makespan 0), while the async
// clock runs through the aborted cycle.
func TestAsyncOneClientReducesToRun(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 33), 300, 200)
	const spec = "crash=0.15,battery=0.1,flap=0.15,corrupt=0.1,degrade=0.4,slow=3"
	cases := []struct {
		name   string
		faults *fault.Plan
		rounds []int
	}{
		{"clean", nil, []int{1, 3, 5}},
		// Rounds 0–5 draw none crash flap crash corrupt none under seed 7,
		// and none battery flap corrupt none under seed 28.
		{"faults seed 7", mustPlan(t, spec, 7), []int{6}},
		{"faults seed 28", mustPlan(t, spec, 28), []int{5}},
	}
	for _, tc := range cases {
		for _, rounds := range tc.rounds {
			cfg := smallConfig(rounds)
			cfg.Faults, cfg.Workers = tc.faults, -1
			syncClients := asyncClients(t, train, 1, true)
			h, err := Run(cfg, syncClients, test)
			if err != nil {
				t.Fatal(err)
			}
			merges, failed := 0, 0
			for _, r := range h.Rounds {
				if !r.Failed {
					merges++
				} else {
					failed++
				}
			}
			if tc.faults != nil && (failed == 0 || h.Rounds[rounds-1].Failed) {
				t.Fatalf("%s: fixture must fail some round and end on a merge: %d of %d rounds failed, last failed %v",
					tc.name, failed, rounds, h.Rounds[rounds-1].Failed)
			}

			acfg := AsyncConfig{Config: smallConfig(0), MixRate: 1, MaxUpdates: merges}
			acfg.Faults = tc.faults
			aClients := asyncClients(t, train, 1, true)
			ha, err := RunAsync(acfg, aClients, test)
			if err != nil {
				t.Fatal(err)
			}

			if h.FinalAccuracy != ha.FinalAccuracy {
				t.Errorf("%s R=%d: accuracy sync %v, async %v", tc.name, rounds, h.FinalAccuracy, ha.FinalAccuracy)
			}
			requireSameDump(t, "sync vs async weights", dumpOf(h.Model), dumpOf(aClients[0].w))
			requireSameDump(t, "sync vs async client weights", dumpOf(syncClients[0].w), dumpOf(aClients[0].w))
			if s, a := syncClients[0].Device.Snapshot(), aClients[0].Device.Snapshot(); s != a {
				t.Errorf("%s R=%d: device end state\nsync  %+v\nasync %+v", tc.name, rounds, s, a)
			}
			if tc.faults == nil && !withinTol(h.TotalSeconds, ha.VirtualSeconds, trace.DefaultTolerances) {
				t.Errorf("%s R=%d: virtual time sync %v, async %v", tc.name, rounds, h.TotalSeconds, ha.VirtualSeconds)
			}
		}
	}
}

// TestGossipTwoShardsReducesToRun: RunGossip over two clients on equal
// shards is FedAvg. Each round the ring pairs the two, and the pair's
// average (w₀ + w₁)·½ is bit for bit Run's ½w₀ + ½w₁, so both peers and
// the global model hold the same weights: accuracy is bit-equal and the
// disagreement 0. Device time legitimately differs: a swap follows the
// compute (upload, then the peer's download), while a server round trip
// downloads first, so the two engines' devices enter each compute with
// different thermal histories.
//
// The relation holds under a fault plan whose faults abort nothing
// (degraded links). It cannot hold under aborting faults: Run's lone
// survivor becomes the global model every client trains from next round,
// while in gossip only the survivor keeps it and the victim trains on from
// its own model.
func TestGossipTwoShardsReducesToRun(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 34), 300, 200)
	for _, spec := range []string{"", "degrade=0.5,slow=3"} {
		cfg := smallConfig(3)
		cfg.Workers = -1
		if spec != "" {
			cfg.Faults = mustPlan(t, spec, 5)
		}
		runClients := asyncClients(t, train, 2, true)
		h, err := Run(cfg, runClients, test)
		if err != nil {
			t.Fatal(err)
		}
		gossipClients := asyncClients(t, train, 2, true)
		hg, err := RunGossip(GossipConfig{Config: cfg}, gossipClients, test)
		if err != nil {
			t.Fatal(err)
		}
		if hg.Disagreement != 0 {
			t.Errorf("faults %q: gossip disagreement %v, want 0", spec, hg.Disagreement)
		}
		for i, c := range gossipClients {
			if hg.PerClient[i] != h.FinalAccuracy {
				t.Errorf("faults %q: peer %d accuracy %v, Run %v", spec, i, hg.PerClient[i], h.FinalAccuracy)
			}
			requireSameDump(t, fmt.Sprintf("peer %d vs Run weights", i), dumpOf(h.Model), dumpOf(c.w))
		}
	}
}

// TestPopulationRoundIsSimulateRoundsOnFreshDevices: a population round
// whose cohort is the whole fleet (Equal shards, no faults) is a one-round
// SimulateRounds over freshly materialized devices — makespan and every
// client, throttle and summary event, bit for bit, at every round. A
// multi-round SimulateRounds over the same devices agrees on round 0
// only: its devices keep their heat (and wait out each round), while the
// population re-materializes every member cold on each selection.
func TestPopulationRoundIsSimulateRoundsOnFreshDevices(t *testing.T) {
	const n, shards, rounds = 6, 2, 3
	arch := nn.LeNetSmall(1, 16, 16, 10)
	pop := device.NewPopulation(n, 77)
	popTrace := trace.New(0)
	runner, err := NewPopulationRunner(PopulationConfig{
		Arch: arch, Population: pop, Sampler: sample.NewUniform(n, n, 1), Scheduler: sched.Equal{},
		TotalShards: n * shards, Workers: -1, Trace: popTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() ([]*device.Device, []network.Link, []int) {
		devs, links, samples := make([]*device.Device, n), make([]network.Link, n), make([]int, n)
		for id := range devs {
			devs[id] = new(device.Device)
			pop.Materialize(id, devs[id])
			links[id], samples[id] = network.WiFi(), shards*popShardSize
		}
		return devs, links, samples
	}
	devs, links, samples := fresh()
	warm, err := SimulateRounds(arch, devs, links, samples, popBatchSize, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		pr, err := runner.Round(round)
		if err != nil {
			t.Fatal(err)
		}
		devs, links, samples := fresh()
		simTrace := trace.New(0)
		sim, err := SimulateRounds(arch, devs, links, samples, popBatchSize, 1, simTrace)
		if err != nil {
			t.Fatal(err)
		}
		if sim[0].Makespan != pr.MakespanS || pr.Participants != n {
			t.Fatalf("round %d: SimulateRounds makespan %v, population %+v", round, sim[0].Makespan, pr)
		}
		want := roundEvents(simTrace, 0)
		for i := range want {
			want[i].Round = round
		}
		if err := trace.Compare(want, roundEvents(popTrace, round), trace.Exact); err != nil {
			t.Fatalf("round %d: population round diverged from SimulateRounds: %v", round, err)
		}
		if round == 0 && warm[0].Makespan != pr.MakespanS {
			t.Fatalf("round 0: multi-round SimulateRounds makespan %v, population %v", warm[0].Makespan, pr.MakespanS)
		}
		t.Logf("round %d: population %.9f s, multi-round SimulateRounds %.9f s", round, pr.MakespanS, warm[round].Makespan)
	}
}

// TestDeviceClockAtRoundClose: after every closed round of Run, RunGossip
// and SimulateRounds, with and without faults, each cohort device's clock
// reads its clock at round open plus the makespan — plus its own span
// instead when that is longer, for a member the close did not wait for (a
// fault victim, or a survivor cut late by the quorum).
func TestDeviceClockAtRoundClose(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 35), 400, 10)

	// A poll holds every device's clock at each round's open (Cancel is
	// polled there), then once more after the run.
	type poll struct{ at [][]float64 }
	snap := func(p *poll, clients []*Client) {
		row := make([]float64, len(clients))
		for i, c := range clients {
			row[i] = c.Device.NowSeconds
		}
		p.at = append(p.at, row)
	}
	// check reports whether the member outran the close.
	check := func(t *testing.T, engine string, p *poll, round, id int, makespan, span float64) bool {
		t.Helper()
		want := p.at[round][id] + max(makespan, span)
		if got := p.at[round+1][id]; !withinTol(want, got, trace.DefaultTolerances) {
			t.Errorf("%s round %d client %d: clock %v at close, want open %v + %v = %v",
				engine, round, id, got, p.at[round][id], max(makespan, span), want)
		}
		return span > makespan
	}

	for _, spec := range []string{"", "crash=0.2,battery=0.05,flap=0.2,corrupt=0.1,degrade=0.3,slow=3"} {
		var faults *fault.Plan
		if spec != "" {
			faults = mustPlan(t, spec, 41)
		}

		clients := asyncClients(t, train, 4, true)
		var pr poll
		cfg := smallConfig(6)
		cfg.Faults, cfg.Quorum = faults, 3
		cfg.MinParticipants = 1
		cfg.Cancel = func() bool { snap(&pr, clients); return false }
		h, err := Run(cfg, clients, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap(&pr, clients)
		outran := 0
		for r, rs := range h.Rounds {
			for _, cr := range rs.Clients {
				if check(t, "Run "+spec, &pr, r, cr.ClientID, rs.Makespan, cr.ComputeS+cr.CommS) {
					outran++
				}
			}
		}
		if outran == 0 {
			t.Errorf("Run %q: fixture: no member outran a close", spec)
		}

		clients = asyncClients(t, train, 4, true)
		var pg poll
		rec := trace.New(0)
		gcfg := GossipConfig{Config: smallConfig(6)}
		gcfg.Faults, gcfg.Trace = faults, rec
		gcfg.Cancel = func() bool { snap(&pg, clients); return false }
		if _, err := RunGossip(gcfg, clients, nil); err != nil {
			t.Fatal(err)
		}
		snap(&pg, clients)
		spans := map[[2]int]float64{}
		for _, e := range rec.Events() {
			if e.Kind == trace.KindClientRound {
				spans[[2]int{e.Round, e.Client}] = e.ComputeS + e.CommS
			}
		}
		outran = 0
		for _, e := range rec.Events() {
			if e.Kind == trace.KindRoundSummary {
				for id := range clients {
					if check(t, "RunGossip "+spec, &pg, e.Round, id, e.MakespanS, spans[[2]int{e.Round, id}]) {
						outran++
					}
				}
			}
		}
		if spec != "" && outran == 0 {
			t.Errorf("RunGossip %q: fixture: no fault victim outran a close", spec)
		}
	}

	// SimulateRounds takes no fault plan; unequal phones make every
	// device but the straggler wait.
	clients := asyncClients(t, train, 4, true)
	devs, links, samples := make([]*device.Device, len(clients)), make([]network.Link, len(clients)), make([]int, len(clients))
	for i, c := range clients {
		devs[i], links[i], samples[i] = c.Device, c.Link, c.Local.Len()
	}
	var ps poll
	snap(&ps, clients)
	for r := 0; r < 4; r++ {
		sim, err := SimulateRounds(nn.LeNetSmall(1, 16, 16, 10), devs, links, samples, 20, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap(&ps, clients)
		for id := range clients {
			check(t, "SimulateRounds", &ps, r, id, sim[0].Makespan, 0)
		}
	}
}
