package fl

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/sample"
	"fedsched/internal/trace"
)

func mustPlan(t *testing.T, spec string, seed int64) *fault.Plan {
	t.Helper()
	plan, err := fault.ParseSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// traceRange serializes the recorder's events with from ≤ Round < to.
func traceRange(t *testing.T, rec *trace.Recorder, from, to int) []byte {
	t.Helper()
	var kept []trace.Event
	for _, e := range rec.Events() {
		if e.Round >= from && e.Round < to {
			kept = append(kept, e)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, kept); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunFaultKindsObserved drives all four fault kinds through the
// synchronous engine and checks each is recorded on the victim's
// ClientRound.
func TestRunFaultKindsObserved(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 41), 600, 200)
	clients := parallelClients(t, train, 4, true)
	cfg := smallConfig(8)
	cfg.Faults = mustPlan(t, "crash=0.2,battery=0.2,flap=0.2,corrupt=0.2", 5)
	cfg.MinParticipants = 1
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[fault.Kind]int{}
	for _, r := range hist.Rounds {
		for _, cr := range r.Clients {
			seen[cr.Fault]++
			if cr.Fault == fault.Crash || cr.Fault == fault.Battery || cr.Fault == fault.LinkFlap {
				if cr.TrainLoss != -1 {
					t.Fatalf("fatal fault %v carries a train loss %v, want -1 sentinel", cr.Fault, cr.TrainLoss)
				}
			}
		}
	}
	for _, k := range []fault.Kind{fault.Crash, fault.Battery, fault.LinkFlap, fault.Corrupt} {
		if seen[k] == 0 {
			t.Fatalf("fault kind %v never observed across %d rounds: %v", k, len(hist.Rounds), seen)
		}
	}
}

// TestRunQuorumMarksLate: with no faults and a quorum below the cohort
// size, every round closes after Quorum survivors and flags exactly the
// slowest remainder late.
func TestRunQuorumMarksLate(t *testing.T) {
	// The harness's quorum row: 4 devices, quorum 3, no faults.
	for _, r := range syncQuorum.at(t, 1, harnessLanes).hist.(*History).Rounds {
		late := 0
		for _, cr := range r.Clients {
			if cr.Late {
				late++
			}
		}
		if late != 1 {
			t.Fatalf("round %d flagged %d late clients, want exactly 1 (quorum 3 of 4)", r.Round, late)
		}
	}
}

// TestRunMinParticipantsRecordsFailedRounds: when every update is lost,
// the round is recorded as failed — NaN loss, sentinel accuracy, model
// unchanged — and the run continues instead of aborting.
func TestRunMinParticipantsRecordsFailedRounds(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 47), 400, 100)
	clients := parallelClients(t, train, 3, true)
	cfg := smallConfig(2)
	cfg.Faults = mustPlan(t, "crash=1", 1)
	cfg.MinParticipants = 1
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 2 {
		t.Fatalf("%d rounds recorded, want 2", len(hist.Rounds))
	}
	for _, r := range hist.Rounds {
		if !r.Failed {
			t.Fatalf("round %d with all updates lost not marked failed", r.Round)
		}
		if !math.IsNaN(r.TrainLoss) {
			t.Fatalf("failed round %d has loss %v, want NaN", r.Round, r.TrainLoss)
		}
		if r.Accuracy != -1 {
			t.Fatalf("failed round %d has accuracy %v, want -1 sentinel", r.Round, r.Accuracy)
		}
	}
}

// TestRunSecureAggMissingShares: under secure aggregation a lost cohort
// member makes the masked sum unrecoverable — the engine must fail the
// run loudly and still hand back the completed rounds.
func TestRunSecureAggMissingShares(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 53), 400, 100)
	clients := parallelClients(t, train, 4, true)
	cfg := smallConfig(6)
	cfg.SecureAgg = true
	cfg.Faults = mustPlan(t, "crash=0.5", 3)
	hist, err := Run(cfg, clients, test)
	if err == nil {
		t.Fatal("secure aggregation with lost members must fail the run")
	}
	if !strings.Contains(err.Error(), "secure aggregation") {
		t.Fatalf("error does not explain the mask loss: %v", err)
	}
	if hist == nil || hist.Model == nil {
		t.Fatal("mid-run failure must still return the partial history and model")
	}
}

func TestQuorumSecureAggIncompatible(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 57), 200, 10)
	clients := parallelClients(t, train, 2, false)
	cfg := smallConfig(1)
	cfg.SecureAgg = true
	cfg.Quorum = 1
	if _, err := Run(cfg, clients, nil); err == nil {
		t.Fatal("Quorum with SecureAgg must be rejected at config time")
	}
}

// TestRunCooldownBenchesFaultyClients: a cooldown-wrapped sampler must
// keep a client that faulted in round r out of the next BaseRounds
// cohorts.
func TestRunCooldownBenchesFaultyClients(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 59), 600, 200)
	clients := parallelClients(t, train, 6, true)
	cfg := smallConfig(6)
	cfg.Sampler = sample.NewCooldown(sample.NewUniform(6, 6, 42), 2)
	cfg.Faults = mustPlan(t, "crash=0.5", 11)
	cfg.MinParticipants = 1
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	selected := make([]map[int]bool, len(hist.Rounds))
	faulted := make([]map[int]bool, len(hist.Rounds))
	anyFault, anyBench := false, false
	for i, r := range hist.Rounds {
		selected[i], faulted[i] = map[int]bool{}, map[int]bool{}
		for _, cr := range r.Clients {
			selected[i][cr.ClientID] = true
			if cr.Fault != fault.None {
				faulted[i][cr.ClientID] = true
				anyFault = true
			}
		}
		if len(r.Clients) < 6 {
			anyBench = true
		}
	}
	if !anyFault {
		t.Fatal("fault plan injected nothing — cooldown never exercised")
	}
	if !anyBench {
		t.Fatal("no round ran with a reduced cohort — cooldown never filtered")
	}
	for r := range hist.Rounds {
		for id := range faulted[r] {
			// strikes=1 → banned for BaseRounds=2 rounds after the failure.
			for _, banned := range []int{r + 1, r + 2} {
				if banned < len(selected) && selected[banned][id] {
					t.Fatalf("client %d faulted in round %d but was selected again in round %d", id, r, banned)
				}
			}
		}
	}
}

// TestCheckpointRoundTrip pins the wire format: a checkpoint carrying
// NaN losses, fault flags and device state must survive
// Save → Load → Save byte-identically.
func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Seed: 7, Rounds: 5, NextRound: 3,
		Clients: []ClientCheckpoint{
			{ID: 0, Round: 3, HasDevice: true, Device: device.State{
				TempC: 41.5, FreqFactor: 0.8, BigOffline: true,
				NowSeconds: 123.4, EnergyJ: 55.5, Throttles: 2, Throttled: true,
			}},
			{ID: 1, Round: 2},
		},
		Cooldown: []sample.CooldownEntry{{Client: 4, Strikes: 2, Until: 9}},
		Model:    []byte{1, 2, 3, 4, 5},
		HistoryRounds: []RoundStats{{
			Round: 0, Makespan: 12.25, TrainLoss: math.NaN(), Accuracy: -1, Failed: true,
			Clients: []ClientRound{
				{ClientID: 1, Samples: 60, ComputeS: 1.5, CommS: 0.25, TrainLoss: -1,
					EnergyJ: 3.5, Temperature: 39, Throttles: 1, BatteryFrac: 0.75,
					Fault: fault.Crash},
				{ClientID: 0, Samples: 60, TrainLoss: 0.5, Late: true},
			},
		}},
		TotalSeconds: 99.5,
	}
	var first bytes.Buffer
	if err := ck.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(loaded.HistoryRounds[0].TrainLoss) {
		t.Fatal("NaN loss did not survive the round trip")
	}
	if !loaded.HistoryRounds[0].Failed {
		t.Fatal("Failed flag did not survive the round trip")
	}
	if got := loaded.HistoryRounds[0].Clients[0].Fault; got != fault.Crash {
		t.Fatalf("fault kind %v after round trip, want %v", got, fault.Crash)
	}
	if !loaded.HistoryRounds[0].Clients[1].Late {
		t.Fatal("Late flag did not survive the round trip")
	}
	if loaded.Clients[0].Device != ck.Clients[0].Device {
		t.Fatalf("device state changed: %+v vs %+v", loaded.Clients[0].Device, ck.Clients[0].Device)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → Load → Save is not byte-stable")
	}

	if _, err := LoadCheckpoint(strings.NewReader("definitely not a checkpoint")); err == nil {
		t.Fatal("garbage accepted as a checkpoint")
	}
	if _, err := LoadCheckpoint(bytes.NewReader(first.Bytes()[:first.Len()/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCheckpointResumeBitIdentical is the acceptance scenario: a run is
// killed mid-flight (the checkpoint sink aborts it after the round-3
// snapshot), then resumed from the serialized snapshot with fresh
// clients — and must reproduce the uninterrupted run's history, final
// weights and trace bit-identically, with faults enabled, at two
// Workers values.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 29), 600, 200)
	plan := mustPlan(t, "crash=0.2,flap=0.15,corrupt=0.1,degrade=0.3,slow=3", 23)
	errKilled := errors.New("killed")
	for _, workers := range []int{-1, 4} {
		mkCfg := func() Config {
			cfg := smallConfig(6)
			cfg.Workers = workers
			cfg.Faults = plan
			cfg.Quorum = 3
			cfg.MinParticipants = 1
			cfg.Trace = trace.New(0)
			return cfg
		}

		// Reference: the uninterrupted run.
		cfgA := mkCfg()
		histA, err := Run(cfgA, parallelClients(t, train, 4, true), test)
		if err != nil {
			t.Fatal(err)
		}

		// The killed run: snapshots every 2 rounds, dies after round 3.
		var snap []byte
		cfgB := mkCfg()
		cfgB.CheckpointEvery = 2
		cfgB.CheckpointSink = func(ck *Checkpoint) error {
			if ck.NextRound != 4 {
				return nil
			}
			var buf bytes.Buffer
			if err := ck.Save(&buf); err != nil {
				return err
			}
			snap = buf.Bytes()
			return errKilled
		}
		histB, err := Run(cfgB, parallelClients(t, train, 4, true), test)
		if err == nil || !errors.Is(err, errKilled) {
			t.Fatalf("Workers=%d: killed run returned err %v", workers, err)
		}
		if histB == nil || len(histB.Rounds) != 4 {
			t.Fatalf("Workers=%d: killed run must return the 4 completed rounds, got %+v", workers, histB)
		}
		requireSameDump(t, fmt.Sprintf("Workers=%d: partial rounds", workers), dumpOf(histA.Rounds[:4]), dumpOf(histB.Rounds))
		if !bytes.Equal(traceRange(t, cfgA.Trace, 0, 4), traceRange(t, cfgB.Trace, 0, 4)) {
			t.Fatalf("Workers=%d: killed run's trace diverged from the reference", workers)
		}

		// Resume from the serialized snapshot onto fresh clients.
		ck, err := LoadCheckpoint(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		cfgC := mkCfg()
		cfgC.Resume = ck
		histC, err := Run(cfgC, parallelClients(t, train, 4, true), test)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHistory(t, histA, histC)
		if !bytes.Equal(traceRange(t, cfgA.Trace, 4, 6), traceRange(t, cfgC.Trace, 4, 6)) {
			t.Fatalf("Workers=%d: resumed trace diverged from the uninterrupted run", workers)
		}
	}
}

func TestResumeValidation(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 37), 200, 50)
	mk := func() ([]*Client, Config) {
		cfg := smallConfig(2)
		cfg.CheckpointEvery = 1
		return parallelClients(t, train, 2, false), cfg
	}
	var snap *Checkpoint
	clients, cfg := mk()
	cfg.CheckpointSink = func(ck *Checkpoint) error {
		kept := *ck
		kept.Model = bytes.Clone(ck.Model) // the run rewrites ck.Model at its next snapshot
		snap = &kept
		return nil
	}
	if _, err := Run(cfg, clients, test); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("sink never called")
	}
	clients, cfg = mk()
	cfg.Seed = 999
	cfg.Resume = snap
	if _, err := Run(cfg, clients, test); err == nil {
		t.Fatal("resume with a mismatched seed must fail")
	}
	clients, cfg = mk()
	cfg.Rounds = 7
	cfg.Resume = snap
	if _, err := Run(cfg, clients, test); err == nil {
		t.Fatal("resume with mismatched rounds must fail")
	}
}

// TestPopulationFailedRounds: a fully-decimated population round is
// recorded as failed and the simulation carries on.
func TestPopulationFailedRounds(t *testing.T) {
	cfg := popConfig(5_000, 8, 2)
	cfg.Faults = mustPlan(t, "crash=1", 1)
	cfg.MinParticipants = 1
	hist, err := SimulatePopulationRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 2 {
		t.Fatalf("%d rounds recorded, want 2", len(hist.Rounds))
	}
	for _, r := range hist.Rounds {
		if !r.Failed {
			t.Fatalf("round %d lost every update but is not marked failed: %+v", r.Round, r)
		}
		if r.Faulted != r.Selected {
			t.Fatalf("round %d: %d faulted of %d selected under crash=1", r.Round, r.Faulted, r.Selected)
		}
	}
}
