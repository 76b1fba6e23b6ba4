package fl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// The invariance harness holds every engine's determinism contract —
// histories, weights, devices and traces are bit-identical at any Workers
// or lane count — as table rows. A row is one engine scenario compared
// along one axis: Workers 1, −1 and 4 on GOMAXPROCS 4 with 3 tensor lanes,
// or lanes 3, 0 and 1 at Workers 1. Workers 2, two workers taking several
// slots each, joins the population rows, the unequal shards, the sync
// sampler and the sync and gossip fault rows. Each cell — a scenario at one worker and lane count — is
// trained at most once per test binary and rendered as one canonical dump
// (see newCell); the pinned tests below name the rows they hold and add
// the preconditions that keep a row from passing vacuously. A drain
// order that is wrong the same way at every worker count shows in no
// comparison, so every sync, gossip and population row's trace must also
// close each client's throttle events with that client's round event
// (throttlesClosed). Every row logs its dump's SHA-256, so
//
//	go test ./internal/fl -run 'BitIdentical|ByteIdentical|Deterministic|WorkerInvariant' -v | grep -o 'digest .*'
//
// run on two trees and diffed is a bit-identity check between them.

// A scenario is one engine configuration. run trains it once at a worker
// count on fresh clients (device state carries across rounds) and renders
// the result.
type scenario struct {
	engine, name string
	workers      []int // the worker axis; the first entry is 1
	run          func(t *testing.T, workers int) *cell
}

// A cell is one finished run: its history (*History, *AsyncHistory,
// *GossipHistory or *PopulationHistory), its trace events and its dump.
type cell struct {
	hist   any
	events []trace.Event
	dump   []byte
}

// A check is a precondition on a row's Workers 1 cell.
type check func(t *testing.T, sc *scenario, c *cell)

type cellKey struct {
	sc             *scenario
	workers, lanes int
}

// cells caches every cell trained so far; a nil entry is a run that
// failed. No fl test runs in parallel.
var cells = map[cellKey]*cell{}

// harnessLanes is forceLanes(t, 4)'s lane count: every cell's but the
// lanes rows'.
const harnessLanes = 3

var (
	baseAxis = []int{1, -1, 4}
	wideAxis = []int{1, -1, 2, 4}
)

// harnessRounds is every sync, gossip and population run's round count:
// enough for device, optimizer and RNG state to carry from one round into
// the next.
const harnessRounds = 2

// harnessData is the train and test set every trained scenario shares.
var harnessData = sync.OnceValues(func() (*data.Dataset, *data.Dataset) {
	return data.TrainTest(data.SMNISTConfig(0, 61), 600, 100)
})

// train runs sc once at workers and lanes on GOMAXPROCS 4, uncached.
func (sc *scenario) train(t *testing.T, workers, lanes int) *cell {
	t.Helper()
	defer setLanes(4, lanes)()
	return sc.run(t, workers)
}

// at returns sc's cell at workers and lanes, training it on first use.
func (sc *scenario) at(t *testing.T, workers, lanes int) *cell {
	t.Helper()
	key := cellKey{sc, workers, lanes}
	c, tried := cells[key]
	if !tried {
		cells[key] = nil
		c = sc.train(t, workers, lanes)
		cells[key] = c
	}
	if c == nil {
		t.Fatalf("%s/%s at Workers %d, lanes %d failed in an earlier test", sc.engine, sc.name, workers, lanes)
	}
	return c
}

// holds runs sc's worker row as subtest sc.name: its Workers 1 cell must
// pass every check, and every cell on the axis must dump the same bytes.
func (sc *scenario) holds(t *testing.T, checks ...check) {
	t.Helper()
	sc.row(t, sc.name, sc.workers, []int{harnessLanes}, checks)
}

// holdsAcrossLanes runs sc's lanes row as subtest name: with the client
// pool serial every lane goes to the GEMMs (at batch 20 the LeNetSmall
// convolutions cross the kernels' parallel cutoff), and lanes 0 and 1
// must dump the bytes of lanes 3, the worker row's Workers 1 cell.
func (sc *scenario) holdsAcrossLanes(t *testing.T, name string) {
	t.Helper()
	sc.row(t, name, []int{1}, []int{harnessLanes, 0, 1}, nil)
}

func (sc *scenario) row(t *testing.T, name string, workers, lanes []int, checks []check) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		want := sc.at(t, 1, harnessLanes)
		if sc.engine != "async" {
			throttlesClosed(t, sc, want)
		}
		for _, ck := range checks {
			ck(t, sc, want)
		}
		for _, w := range workers {
			for _, l := range lanes {
				requireSameDump(t, fmt.Sprintf("Workers %d, lanes %d", w, l), want.dump, sc.at(t, w, l).dump)
			}
		}
		t.Logf("digest %s/%s %x", sc.engine, sc.name, sha256.Sum256(want.dump))
	})
}

// requireSameDump fails on the first line where got differs from want.
func requireSameDump(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := range min(len(wl), len(gl)) {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s: dump line %d differs:\n got %.240s\nwant %.240s", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: dump has %d lines, want %d", what, len(gl), len(wl))
}

// newCell renders a finished run as its canonical dump: every history
// field, the final weights — the global model's, which a sync history
// holds, else every client's — every client device's Snapshot and the
// trace JSONL.
func newCell(t *testing.T, hist any, clients []*Client, rec *trace.Recorder) *cell {
	t.Helper()
	var b bytes.Buffer
	dumpValue(&b, "history", reflect.ValueOf(hist))
	_, global := hist.(*History)
	for i, c := range clients {
		if !global && c.w != nil {
			dumpValue(&b, fmt.Sprintf("client[%d].weights", i), reflect.ValueOf(c.w))
		}
		if c.Device != nil {
			dumpValue(&b, fmt.Sprintf("client[%d].device", i), reflect.ValueOf(c.Device.Snapshot()))
		}
	}
	events := rec.Events()
	if err := trace.WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	return &cell{hist: hist, events: events, dump: b.Bytes()}
}

// dumpOf renders v alone, as newCell renders a history.
func dumpOf(v any) []byte {
	var b bytes.Buffer
	dumpValue(&b, "", reflect.ValueOf(v))
	return b.Bytes()
}

// dumpValue renders v under name, one leaf a line: floats as their %016x
// bit patterns, a tensor as one line of them, a network as its weights.
func dumpValue(b *bytes.Buffer, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", name)
			return
		}
		switch p := v.Interface().(type) {
		case *nn.Network:
			dumpValue(b, name, reflect.ValueOf(p.GetWeights()))
		case *tensor.Tensor:
			raw := make([]byte, 0, 8*len(p.Data()))
			for _, x := range p.Data() {
				raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(x))
			}
			fmt.Fprintf(b, "%s=%x\n", name, raw)
		default:
			dumpValue(b, name, v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			dumpValue(b, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			dumpValue(b, fmt.Sprintf("%s[%d]", name, i), v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%016x\n", name, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", name, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", name, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", name, v.Bool())
	case reflect.String:
		fmt.Fprintf(b, "%s=%q\n", name, v.String())
	default:
		panic("dump: unhandled " + v.Type().String())
	}
}

// count counts the cell's trace events of kind — with flag, when flag ≥ 0.
func (c *cell) count(kind trace.Kind, flag int) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == kind && (flag < 0 || e.Flag == flag) {
			n++
		}
	}
	return n
}

// Scenario builders. Every run records a trace and trains on the
// harness data; tune adjusts a run's config (and may be nil).

func syncScenario(name string, workers []int, clients func(*testing.T) []*Client, tune func(*testing.T, *Config)) *scenario {
	sc := &scenario{engine: "sync", name: name, workers: workers}
	sc.run = func(t *testing.T, workers int) *cell {
		cfg := smallConfig(harnessRounds)
		cfg.Workers, cfg.Trace = workers, trace.New(0)
		if tune != nil {
			tune(t, &cfg)
		}
		_, test := harnessData()
		cs := clients(t)
		hist, err := Run(cfg, cs, test)
		if err != nil {
			t.Fatal(err)
		}
		c := newCell(t, hist, cs, cfg.Trace)
		hist.Model = nil // the dump holds its weights; the cache need not
		return c
	}
	return sc
}

func asyncScenario(name string, clients func(*testing.T) []*Client, tune func(*testing.T, *AsyncConfig)) *scenario {
	sc := &scenario{engine: "async", name: name, workers: baseAxis}
	sc.run = func(t *testing.T, workers int) *cell {
		cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: asyncMerges, MixRate: 0.4, StalenessPower: 0.5}
		cfg.Workers, cfg.Trace = workers, trace.New(0)
		if tune != nil {
			tune(t, &cfg)
		}
		_, test := harnessData()
		cs := clients(t)
		hist, err := RunAsync(cfg, cs, test)
		if err != nil {
			t.Fatal(err)
		}
		return newCell(t, hist, cs, cfg.Trace)
	}
	return sc
}

func gossipScenario(name string, workers []int, topo Topology, clients func(*testing.T) []*Client, tune func(*testing.T, *Config)) *scenario {
	sc := &scenario{engine: "gossip", name: name, workers: workers}
	sc.run = func(t *testing.T, workers int) *cell {
		cfg := GossipConfig{Config: smallConfig(harnessRounds), Topology: topo}
		cfg.Workers, cfg.Trace = workers, trace.New(0)
		if tune != nil {
			tune(t, &cfg.Config)
		}
		_, test := harnessData()
		cs := clients(t)
		hist, err := RunGossip(cfg, cs, test)
		if err != nil {
			t.Fatal(err)
		}
		return newCell(t, hist, cs, cfg.Trace)
	}
	return sc
}

// populationScenario runs population rounds over 10,000 devices with
// cohorts of 16. Population rounds train no model and re-materialize
// their devices every round, so the dump is the history and the trace.
func populationScenario(name string, tune func(*testing.T, *PopulationConfig)) *scenario {
	sc := &scenario{engine: "population", name: name, workers: wideAxis}
	sc.run = func(t *testing.T, workers int) *cell {
		cfg := popConfig(10_000, 16, harnessRounds)
		cfg.Workers, cfg.Trace = workers, trace.New(0)
		if tune != nil {
			tune(t, &cfg)
		}
		hist, err := SimulatePopulationRounds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newCell(t, hist, nil, cfg.Trace)
	}
	return sc
}

// equalShards builds n clients on equal shards of the harness data, on
// devices when withDevices is set.
func equalShards(n int, withDevices bool) func(*testing.T) []*Client {
	return func(t *testing.T) []*Client {
		train, _ := harnessData()
		return parallelClients(t, train, n, withDevices)
	}
}

// hotLBAP builds lbapClients on devices that start past their soft trip
// point: they throttle every round, so each round's slot logs hold events
// whose merge order the pool must not change.
func hotLBAP(t *testing.T) []*Client {
	train, _ := harnessData()
	cs := lbapClients(t, train)
	for _, c := range cs {
		c.Device.TempC = c.Device.SoftTripC + 2
	}
	return cs
}

// lbapTune puts a fault plan and a 5-of-6 cohort sampler on the unequal
// shards, so a round's cohort and its survivors vary too.
func lbapTune(t *testing.T, c *Config) {
	c.Faults = mustPlan(t, "crash=0.15,flap=0.1,degrade=0.3,slow=3", 19)
	c.Sampler = sample.NewUniform(len(lbapSizes), 5, 23)
}

// The rows' scenarios. Names are the pinned tests' subtest names.
var (
	syncPlain     = syncScenario("plain", baseAxis, equalShards(4, false), nil)
	syncDevices   = syncScenario("devices", baseAxis, equalShards(4, true), nil)
	syncSecureAgg = syncScenario("secureagg", baseAxis, equalShards(4, true), func(_ *testing.T, c *Config) { c.SecureAgg = true })
	syncEvalEvery = syncScenario("evalEvery", baseAxis, equalShards(4, false), func(_ *testing.T, c *Config) { c.EvalEvery = 1 })
	syncF32       = syncScenario("f32", baseAxis, equalShards(4, true), func(_ *testing.T, c *Config) { c.Precision = nn.F32 })
	syncF32Secure = syncScenario("f32-secureagg", baseAxis, equalShards(4, true), func(_ *testing.T, c *Config) {
		c.Precision, c.SecureAgg = nn.F32, true
	})
	syncLBAP     = syncScenario("unequal-shards", wideAxis, hotLBAP, lbapTune)
	syncDeadline = syncScenario("deadline", baseAxis, equalShards(4, true), func(t *testing.T, c *Config) {
		c.DeadlineSeconds = midSpan(t)
	})
	syncFaults = syncScenario("faults", wideAxis, equalShards(4, true), func(t *testing.T, c *Config) {
		c.Faults = mustPlan(t, "crash=0.25,battery=0.05,flap=0.2,corrupt=0.15,degrade=0.3,slow=3", 17)
		c.Quorum, c.MinParticipants = 3, 1
	})
	syncQuorum = syncScenario("quorum", baseAxis, equalShards(4, true), func(_ *testing.T, c *Config) {
		c.Quorum, c.MinParticipants = 3, 2
	})
	syncSampler = syncScenario("sampler", wideAxis, equalShards(6, false), func(_ *testing.T, c *Config) {
		c.Sampler = sample.NewUniform(6, 3, 42)
	})

	asyncPlain  = asyncScenario("plain", equalShards(3, true), nil)
	asyncFaults = asyncScenario("faults", equalShards(3, true), func(t *testing.T, c *AsyncConfig) {
		c.Faults = mustPlan(t, "crash=0.25,flap=0.2,corrupt=0.2,degrade=0.3", 19)
	})
	asyncF32      = asyncScenario("f32", equalShards(3, true), func(_ *testing.T, c *AsyncConfig) { c.Precision = nn.F32 })
	asyncDuration = asyncScenario("duration", equalShards(4, true), func(_ *testing.T, c *AsyncConfig) {
		c.MaxUpdates, c.Duration = 0, asyncWindow
		c.Sampler = sample.NewUniform(4, 3, 11)
	})

	gossipRing   = gossipScenario("ring", baseAxis, Ring, equalShards(4, true), nil)
	gossipLBAP   = gossipScenario("unequal-shards", wideAxis, RandomPairs, hotLBAP, lbapTune)
	gossipFaults = gossipScenario("faults", wideAxis, Ring, equalShards(4, true), func(t *testing.T, c *Config) {
		c.Faults = mustPlan(t, "crash=0.2,flap=0.2,degrade=0.3", 13)
	})
	gossipSampler = gossipScenario("sampler", baseAxis, Ring, equalShards(6, false), func(_ *testing.T, c *Config) {
		c.Sampler = sample.NewUniform(6, 4, 7)
	})
	// Cohorts of 2 of 6 over two rounds leave some peers untrained: their
	// final models are the initial one, as a float32 network holds it.
	gossipF32 = gossipScenario("f32", baseAxis, Ring, equalShards(6, true), func(_ *testing.T, c *Config) {
		c.Precision, c.Sampler = nn.F32, sample.NewUniform(6, 2, 5)
	})

	popPlain  = populationScenario("plain", nil)
	popFaults = populationScenario("faults", func(t *testing.T, c *PopulationConfig) {
		c.Faults = mustPlan(t, "crash=0.2,battery=0.05,flap=0.15,corrupt=0.1,degrade=0.3", 31)
		c.Quorum, c.MinParticipants = 10, 2
	})
	// VGG6 on 28×28 inputs heats some of the cohort past its soft trip
	// point, so the slot throttle logs the round core drains hold events.
	popHot = populationScenario("hot", func(_ *testing.T, c *PopulationConfig) {
		c.Arch, c.TotalShards = nn.VGG6(1, 28, 28, 10), 600
	})
)

const (
	// asyncMerges is every async run's MaxUpdates but the duration row's.
	asyncMerges = 8
	// asyncWindow is the duration row's virtual-time bound, in seconds:
	// short of what its clients need for asyncMerges merges.
	asyncWindow = 0.3
)

// midSpan places the deadline row's deadline halfway between the fastest
// and the slowest member's span in the devices row's last round.
func midSpan(t *testing.T) float64 {
	last := syncDevices.at(t, 1, harnessLanes).hist.(*History).Rounds[harnessRounds-1]
	lo, hi := math.Inf(1), 0.0
	for _, cr := range last.Clients {
		lo, hi = min(lo, cr.ComputeS+cr.CommS), max(hi, cr.ComputeS+cr.CommS)
	}
	if hi <= lo {
		t.Fatalf("precondition: the devices row's spans are all %v s", lo)
	}
	return (lo + hi) / 2
}

// Preconditions.

// retrained is the …Deterministic tests' check: a fresh Workers 1 run
// dumps the cached one's bytes.
func retrained(t *testing.T, sc *scenario, c *cell) {
	t.Helper()
	requireSameDump(t, "a fresh Workers 1 run", c.dump, sc.train(t, 1, harnessLanes).dump)
}

// some requires at least one event of kind (with flag, when flag ≥ 0).
func some(kind trace.Kind, flag int, what string) check {
	return func(t *testing.T, _ *scenario, c *cell) {
		t.Helper()
		if c.count(kind, flag) == 0 {
			t.Fatalf("precondition: %s — the row tests nothing", what)
		}
	}
}

// exactly requires n events of kind.
func exactly(kind trace.Kind, n int) check {
	return func(t *testing.T, _ *scenario, c *cell) {
		t.Helper()
		if got := c.count(kind, -1); got != n {
			t.Fatalf("precondition: %d %v events, want %d", got, kind, n)
		}
	}
}

var (
	struck    = some(trace.KindFault, -1, "the fault plan struck nobody")
	throttled = some(trace.KindThrottle, -1, "no device throttled")
)

// throttledClients requires throttle events from at least n clients.
func throttledClients(n int) check {
	return func(t *testing.T, _ *scenario, c *cell) {
		t.Helper()
		seen := map[int]bool{}
		for _, e := range c.events {
			if e.Kind == trace.KindThrottle {
				seen[e.Client] = true
			}
		}
		t.Logf("%d throttle events from %d clients", c.count(trace.KindThrottle, -1), len(seen))
		if len(seen) < n {
			t.Fatalf("precondition: %d clients throttled, want at least %d", len(seen), n)
		}
	}
}

// throttlesClosed requires every throttle event to be followed, past any
// further throttle events of its client, by that client's client-round
// event of the same round: the round core drains each slot's throttle
// log just before emitting the slot's own event.
func throttlesClosed(t *testing.T, _ *scenario, c *cell) {
	t.Helper()
	ev := c.events
	for i := 0; i < len(ev); i++ {
		e := ev[i]
		if e.Kind != trace.KindThrottle {
			continue
		}
		for i+1 < len(ev) && ev[i+1].Kind == trace.KindThrottle && ev[i+1].Client == e.Client {
			i++
		}
		if i+1 == len(ev) || ev[i+1].Kind != trace.KindClientRound || ev[i+1].Client != e.Client || ev[i+1].Round != e.Round {
			next := "the end of the trace"
			if i+1 < len(ev) {
				next = fmt.Sprintf("%+v", ev[i+1])
			}
			t.Fatalf("client %d's round-%d throttle events end at event %d, followed by %s", e.Client, e.Round, i, next)
		}
	}
}

// The pinned tests: each holds its rows plus its own preconditions.

func TestRunWorkersBitIdentical(t *testing.T) {
	for _, sc := range []*scenario{syncPlain, syncDevices, syncSecureAgg, syncF32, syncF32Secure} {
		sc.holds(t)
	}
	syncEvalEvery.holds(t, func(t *testing.T, _ *scenario, c *cell) {
		if acc := c.hist.(*History).Rounds[0].Accuracy; math.IsNaN(acc) {
			t.Fatal("precondition: round 0 was not evaluated — the row is the plain one")
		}
	})
	syncLBAP.holds(t, struck, throttled)
	syncQuorum.holds(t, some(trace.KindClientRound, trace.ClientLate, "the quorum cut nobody"))
}

func TestRunGEMMLanesBitIdentical(t *testing.T) {
	syncDevices.holdsAcrossLanes(t, "f64")
	syncF32.holdsAcrossLanes(t, "f32")
}

func TestRunWorkersDeadlineBitIdentical(t *testing.T) {
	syncDeadline.holds(t, some(trace.KindClientRound, trace.ClientDropped, "the deadline dropped nobody"))
}

func TestRunTraceWorkersByteIdentical(t *testing.T) {
	syncDevices.holds(t, exactly(trace.KindRoundSummary, harnessRounds), exactly(trace.KindClientRound, 4*harnessRounds))
	syncLBAP.holds(t, struck, throttled)
}

func TestRunFaultsWorkerBitIdentical(t *testing.T) {
	syncFaults.holds(t, struck)
}

func TestRunSamplerWorkerInvariant(t *testing.T) {
	syncSampler.holds(t)
}

func TestRunSamplerDeterministic(t *testing.T) {
	syncSampler.holds(t, retrained, func(t *testing.T, _ *scenario, c *cell) {
		for _, rs := range c.hist.(*History).Rounds {
			if len(rs.Clients) != 3 {
				t.Fatalf("round %d had %d participants, want a cohort of 3", rs.Round, len(rs.Clients))
			}
		}
	})
}

func TestFedAvgDeterministic(t *testing.T) {
	syncPlain.holds(t, retrained)
}

func TestAsyncWorkersBitIdentical(t *testing.T) {
	asyncPlain.holds(t)
	asyncF32.holds(t, exactly(trace.KindMerge, asyncMerges))
	asyncDuration.holds(t, func(t *testing.T, _ *scenario, c *cell) {
		if h := c.hist.(*AsyncHistory); h.Updates == 0 || h.Updates >= asyncMerges || h.VirtualSeconds > asyncWindow {
			t.Fatalf("precondition: %d merges in %v virtual seconds — the %v s window bounded nothing", h.Updates, h.VirtualSeconds, asyncWindow)
		}
	})
}

func TestAsyncTraceWorkersByteIdentical(t *testing.T) {
	asyncPlain.holds(t, exactly(trace.KindMerge, asyncMerges), some(trace.KindSimStep, -1, "no sim-step events"))
}

func TestAsyncFaultsDeterministic(t *testing.T) {
	// Faulted cycles burn virtual time and energy but never count as
	// updates: the run still reaches MaxUpdates real merges.
	asyncFaults.holds(t, struck, exactly(trace.KindMerge, asyncMerges), retrained)
}

func TestAsyncDeterministic(t *testing.T) {
	asyncPlain.holds(t, retrained)
}

func TestGossipWorkersBitIdentical(t *testing.T) {
	gossipRing.holds(t)
	gossipF32.holds(t, exactly(trace.KindRoundSummary, harnessRounds), func(t *testing.T, _ *scenario, c *cell) {
		trained := map[int]bool{}
		for _, e := range c.events {
			if e.Kind == trace.KindClientRound {
				trained[e.Client] = true
			}
		}
		if len(trained) >= 6 {
			t.Fatal("precondition: every peer trained — no final model is the initial one")
		}
	})
}

func TestGossipTraceWorkersByteIdentical(t *testing.T) {
	gossipRing.holds(t, exactly(trace.KindRoundSummary, harnessRounds))
	gossipLBAP.holds(t, struck, throttled)
}

func TestGossipFaultsWorkerBitIdentical(t *testing.T) {
	gossipFaults.holds(t, struck)
}

func TestGossipSamplerDeterministic(t *testing.T) {
	gossipSampler.holds(t, retrained)
}

func TestPopulationDeterministic(t *testing.T) {
	popPlain.holds(t, retrained, func(t *testing.T, _ *scenario, c *cell) {
		r0 := c.hist.(*PopulationHistory).Rounds[0]
		if r0.Selected != 16 || r0.Participants == 0 || r0.Samples == 0 {
			t.Fatalf("implausible round: %+v", r0)
		}
		if r0.MakespanS <= 0 || r0.PredictedS <= 0 || r0.Straggler < 0 {
			t.Fatalf("implausible timings: %+v", r0)
		}
	})
}

func TestPopulationTraceWorkerInvariant(t *testing.T) {
	popPlain.holds(t, exactly(trace.KindRoundSummary, harnessRounds))
	popHot.holds(t, exactly(trace.KindRoundSummary, harnessRounds), throttledClients(2))
}

func TestPopulationFaultsWorkerInvariant(t *testing.T) {
	popFaults.holds(t, struck, func(t *testing.T, _ *scenario, c *cell) {
		for _, r := range c.hist.(*PopulationHistory).Rounds {
			if r.Participants > 10 {
				t.Fatalf("round %d aggregated %d participants past quorum 10", r.Round, r.Participants)
			}
		}
	})
}
