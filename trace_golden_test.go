package fedsched

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/network"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/trace"
)

// updateGolden regenerates the golden traces under testdata/trace:
//
//	go test -run TestGoldenTrace . -args -update-golden
//
// (or `make trace-golden`). Review the resulting diff before committing —
// a golden change is a behaviour change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace files under testdata/trace")

// lbapGoldenTrace: Fed-LBAP on the paper's 6-device testbed — solver
// probes, the schedule, then three simulated rounds.
func lbapGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)
	tb := NewTestbed(2)
	arch := LeNet(1, 28, 28, 10)
	req, err := tb.Request(arch, 60000)
	if err != nil {
		t.Fatal(err)
	}
	req.Trace = rec
	asg, err := FedLBAP.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs, links := tb.Devices()
	if _, err := fl.SimulateRounds(arch, devs, links, asg.Samples(ShardSize), 20, 3, rec); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// minavgGoldenTrace: Fed-MinAvg with fixed non-IID class coverage, then
// two simulated rounds.
func minavgGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)
	tb := NewTestbed(2)
	arch := LeNet(1, 28, 28, 10)
	req, err := tb.Request(arch, 60000)
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range req.Users {
		u.Classes = []int{j % 10, (j + 3) % 10, (j + 6) % 10}
	}
	req.K, req.Alpha, req.Beta = 10, 1000, 2
	req.Trace = rec
	asg, err := FedMinAvg.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs, links := tb.Devices()
	if _, err := fl.SimulateRounds(arch, devs, links, asg.Samples(ShardSize), 20, 2, rec); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// baselineGoldenTrace: the Equal baseline schedule plus a real two-round
// FedAvg run on two devices (client rounds, throttles, round summaries
// with accuracy).
func baselineGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)

	// Schedule stage: Equal over a hand-built request — no profiling
	// needed, the costs just shape the predicted makespan in the trace.
	users := make([]*sched.User, 2)
	for j := range users {
		rate := float64(j+1) / 100
		users[j] = &sched.User{
			Name:        fmt.Sprintf("user-%d", j),
			Cost:        func(n int) float64 { return rate * float64(n) },
			CommSeconds: 1,
		}
	}
	req := &sched.Request{TotalShards: 6, ShardSize: 100, Users: users, Trace: rec}
	if _, err := Equal.Schedule(req, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	// Run stage: tiny synchronous FedAvg with per-round evaluation. The
	// golden is recorded with Workers: -1 (sequential); the engine
	// contract makes any other worker count produce identical bytes.
	train, test := SMNIST(240, 3), SMNIST(120, 4)
	part := PartitionIID(train, 2, 5)
	devs := []*device.Device{device.New(device.Pixel2()), device.New(device.Nexus6P())}
	links := []network.Link{network.WiFi(), network.WiFi()}
	clients, err := fl.BuildClients(devs, links, part.Materialize(train))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Arch: LeNetSmall(1, 16, 16, 10), Rounds: 2, BatchSize: 20,
		LR: 0.02, Momentum: 0.9, Seed: 1, EvalEvery: 1, Workers: -1,
		Trace: rec,
	}
	if _, err := fl.Run(cfg, clients, test); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// populationGoldenTrace: two population-scale rounds over a 1M-client
// fleet — uniform 16-client cohorts, Fed-LBAP, lazy
// device materialization. Pins the whole O(selected) pipeline: solver
// probes over the implicit cost matrix, the cohort's schedule, per-client
// rounds and round summaries. Recorded with Workers: -1 (sequential);
// the runner contract makes any other worker count produce identical
// bytes.
func populationGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)
	hist, err := fl.SimulatePopulationRounds(fl.PopulationConfig{
		Arch:        LeNetSmall(1, 16, 16, 10),
		Population:  device.NewPopulation(1_000_000, 42),
		Sampler:     sample.NewUniform(1_000_000, 16, 42),
		Rounds:      2,
		TotalShards: 120,
		Workers:     -1,
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 2 || hist.Rounds[0].Participants == 0 {
		t.Fatalf("implausible population history: %+v", hist.Rounds)
	}
	return rec.Events()
}

// faultsGoldenTrace: a four-client FedAvg run under an aggressive
// fixed-seed fault plan with a quorum cut — pins the fault pipeline's
// trace schema: KindFault events with their cost fields, the
// ClientFaulted/ClientLate flags on client_round events, and round
// summaries that exclude lost updates. Recorded with Workers: -1
// (sequential); the engine contract makes any other worker count
// produce identical bytes.
func faultsGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)
	train, test := SMNIST(240, 3), SMNIST(120, 4)
	part := PartitionIID(train, 4, 5)
	devs := []*device.Device{
		device.New(device.Pixel2()), device.New(device.Nexus6P()),
		device.New(device.Mate10()), device.New(device.Nexus6()),
	}
	links := []network.Link{network.WiFi(), network.WiFi(), network.WiFi(), network.WiFi()}
	clients, err := fl.BuildClients(devs, links, part.Materialize(train))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseSpec("crash=0.25,flap=0.2,corrupt=0.15,degrade=0.3,slow=3", 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Arch: LeNetSmall(1, 16, 16, 10), Rounds: 3, BatchSize: 20,
		LR: 0.02, Momentum: 0.9, Seed: 1, EvalEvery: 1, Workers: -1,
		Faults: plan, Quorum: 3, MinParticipants: 1,
		Trace: rec,
	}
	if _, err := fl.Run(cfg, clients, test); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// asyncGoldenTrace: a four-client staleness-weighted asynchronous run
// under a fixed-seed fault plan that reaches every branch of a client
// cycle — aborted (crash, battery, link flap), rejected (corrupt) and
// merged — pinning the event loop's sim_step timeline, its fault and merge
// events and their staleness. Recorded with Workers: -1 (sequential); the
// engine contract makes any other worker count produce identical bytes.
func asyncGoldenTrace(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.New(0)
	train := SMNIST(240, 3)
	part := PartitionIID(train, 4, 5)
	devs, links := NewTestbed(2).Devices()
	devs, links = devs[2:], links[2:] // Nexus6P ×2, Mate10, Pixel2
	clients, err := fl.BuildClients(devs, links, part.Materialize(train))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseSpec("crash=0.15,battery=0.1,flap=0.15,corrupt=0.15,degrade=0.3,slow=3", 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.AsyncConfig{
		Config: fl.Config{
			Arch: LeNetSmall(1, 16, 16, 10), BatchSize: 20,
			LR: 0.02, Momentum: 0.9, Seed: 1, Workers: -1,
			Faults: plan, Trace: rec,
		},
		MaxUpdates: 16, MixRate: 0.4, StalenessPower: 0.5,
	}
	if _, err := fl.RunAsync(cfg, clients, nil); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestGoldenTrace pins the full observability pipeline: fixed-seed runs
// of the Fed-LBAP, Fed-MinAvg, Equal-baseline, 1M-client population,
// fault-injection and asynchronous scenarios must keep producing the traces recorded
// under testdata/trace. Comparison is field-by-field under DefaultTolerances
// (not byte equality), so the goldens survive libm-level float drift
// across toolchains while still catching any schema, ordering, count or
// semantic change.
func TestGoldenTrace(t *testing.T) {
	cases := []struct {
		name  string
		trace func(*testing.T) []trace.Event
	}{
		{"lbap", lbapGoldenTrace},
		{"minavg", minavgGoldenTrace},
		{"baseline", baselineGoldenTrace},
		{"population", populationGoldenTrace},
		{"faults", faultsGoldenTrace},
		{"async", asyncGoldenTrace},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.trace(t)
			if len(got) == 0 {
				t.Fatal("scenario produced no trace events")
			}
			path := filepath.Join("testdata", "trace", "golden_"+c.name+".jsonl")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := trace.WriteFileJSONL(path, got); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d events to %s", len(got), path)
				return
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("%v (regenerate with `make trace-golden`)", err)
			}
			defer f.Close()
			golden, err := trace.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.Compare(golden, got, trace.DefaultTolerances); err != nil {
				t.Errorf("trace diverged from golden: %v\n%s"+
					"(if the change is intentional: `make trace-golden`, then review the diff)", err, goldenDiff(golden, got))
			}
		})
	}
}

// diffFields enumerates the event fields goldenDiff compares; kind, round
// and client are the key.
var diffFields = []struct {
	name string
	get  func(*trace.Event) float64
}{
	{"samples", func(e *trace.Event) float64 { return float64(e.Samples) }},
	{"throttles", func(e *trace.Event) float64 { return float64(e.Throttles) }},
	{"straggler", func(e *trace.Event) float64 { return float64(e.Straggler) }},
	{"staleness", func(e *trace.Event) float64 { return float64(e.Staleness) }},
	{"flag", func(e *trace.Event) float64 { return float64(e.Flag) }},
	{"at_s", func(e *trace.Event) float64 { return e.AtS }},
	{"compute_s", func(e *trace.Event) float64 { return e.ComputeS }},
	{"comm_s", func(e *trace.Event) float64 { return e.CommS }},
	{"energy_j", func(e *trace.Event) float64 { return e.EnergyJ }},
	{"battery", func(e *trace.Event) float64 { return e.Battery }},
	{"temp_c", func(e *trace.Event) float64 { return e.TempC }},
	{"freq_ghz", func(e *trace.Event) float64 { return e.FreqGHz }},
	{"makespan_s", func(e *trace.Event) float64 { return e.MakespanS }},
	{"loss", func(e *trace.Event) float64 { return e.Loss }},
	{"accuracy", func(e *trace.Event) float64 { return e.Accuracy }},
}

// goldenDiff summarizes how got moved from golden, per event kind: the
// event count on each side, how many events found no partner, then every
// field that moved beyond DefaultTolerances with its largest |Δ| and how
// many events it moved in. Events pair by (kind, round, client,
// occurrence), so a throttle event that appears or vanishes shifts only
// its own device's later throttles in that round, not the rest of the
// trace, and a reordering pairs each event with itself.
func goldenDiff(golden, got []trace.Event) string {
	type key struct {
		kind               trace.Kind
		round, client, nth int
	}
	index := func(evs []trace.Event) map[key]*trace.Event {
		m := make(map[key]*trace.Event, len(evs))
		for i := range evs {
			k := key{kind: evs[i].Kind, round: evs[i].Round, client: evs[i].Client}
			for m[k] != nil {
				k.nth++
			}
			m[k] = &evs[i]
		}
		return m
	}
	type moved struct {
		events int
		maxAbs float64
	}
	type kindDiff struct {
		golden, got, unpaired int
		fields                []moved // by diffFields index
	}
	kinds := map[trace.Kind]*kindDiff{}
	of := func(k trace.Kind) *kindDiff {
		if kinds[k] == nil {
			kinds[k] = &kindDiff{fields: make([]moved, len(diffFields))}
		}
		return kinds[k]
	}
	for i := range golden {
		of(golden[i].Kind).golden++
	}
	for i := range got {
		of(got[i].Kind).got++
	}
	gotBy := index(got)
	for k, g := range index(golden) {
		h := gotBy[k]
		kd := of(k.kind)
		if h == nil {
			kd.unpaired++
			continue
		}
		delete(gotBy, k)
		for f, field := range diffFields {
			if a, b := field.get(g), field.get(h); math.Abs(b-a) > trace.DefaultTolerances.Abs+trace.DefaultTolerances.Rel*math.Abs(a) {
				kd.fields[f].events++
				kd.fields[f].maxAbs = max(kd.fields[f].maxAbs, math.Abs(b-a))
			}
		}
	}
	for k := range gotBy {
		of(k.kind).unpaired++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %7s %7s %9s  %-11s %7s %12s\n", "kind", "golden", "got", "unpaired", "moved", "events", "max |Δ|")
	for k := range 256 {
		kd := kinds[trace.Kind(k)]
		if kd == nil {
			continue
		}
		fmt.Fprintf(&b, "%-13s %7d %7d %9d", trace.Kind(k), kd.golden, kd.got, kd.unpaired)
		sep := ""
		for f, m := range kd.fields {
			if m.events > 0 {
				fmt.Fprintf(&b, "%s  %-11s %7d %12.6g\n", sep, diffFields[f].name, m.events, m.maxAbs)
				sep = strings.Repeat(" ", 39)
			}
		}
		if sep == "" {
			b.WriteString("  —\n")
		}
	}
	return b.String()
}
