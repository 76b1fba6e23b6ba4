package fl

import (
	"bytes"
	"reflect"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/trace"
)

// traceJSONL renders a recorder's events to canonical JSONL bytes.
func traceJSONL(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func countKind(events []trace.Event, kind trace.Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestThrottleTraceKeepsEveryTransition: a device's throttle events are
// staged per round and drained into the run trace, and the staging must
// not drop any. A Nexus 6 training VGG6 on a third of 60,000 samples makes
// thousands of governor transitions in one round, more than the staging
// buffer's starting size; every client_round's throttle count must be
// matched by that many throttle events for the client in the round.
func TestThrottleTraceKeepsEveryTransition(t *testing.T) {
	var devs []*device.Device
	var links []network.Link
	var samples []int
	for _, p := range device.Testbed(1) {
		devs = append(devs, device.New(p))
		links = append(links, network.WiFi())
		samples = append(samples, 60000/3)
	}
	rec := trace.NewLog(0)
	if _, err := SimulateRounds(nn.VGG6(1, 28, 28, 10), devs, links, samples, 20, 1, rec); err != nil {
		t.Fatal(err)
	}
	type key struct{ round, client int }
	staged := map[key]int{}
	most := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindThrottle:
			staged[key{e.Round, e.Client}]++
		case trace.KindClientRound:
			if got := staged[key{e.Round, e.Client}]; got < e.Throttles {
				t.Errorf("round %d client %d: client_round reports %d throttles, trace holds %d throttle events",
					e.Round, e.Client, e.Throttles, got)
			}
			most = max(most, e.Throttles)
		}
	}
	if most <= clientLogCapacity {
		t.Fatalf("busiest client made %d transitions; the test needs more than %d to exercise log growth", most, clientLogCapacity)
	}
}

// TestRunTraceWorkersByteIdentical extends the engine's bit-identity
// guarantee to the trace: the JSONL bytes of a fixed-seed run must be
// equal for Workers 1 and 8 — per-client logs are merged post-join in
// client order, never in completion order.
func TestRunTraceWorkersByteIdentical(t *testing.T) {
	forceLanes(t, 8)
	train, test := data.TrainTest(data.SMNISTConfig(0, 68), 400, 150)

	run := func(workers int) *trace.Recorder {
		rec := trace.New(0)
		cfg := smallConfig(3)
		cfg.Workers = workers
		cfg.EvalEvery = 1
		cfg.Trace = rec
		if _, err := Run(cfg, parallelClients(t, train, 4, true), test); err != nil {
			t.Fatal(err)
		}
		return rec
	}

	base := run(1)
	events := base.Events()
	if got := countKind(events, trace.KindRoundSummary); got != 3 {
		t.Fatalf("expected 3 round-summary events, got %d", got)
	}
	if got := countKind(events, trace.KindClientRound); got != 12 {
		t.Fatalf("expected 12 client-round events (4 clients × 3 rounds), got %d", got)
	}
	want := traceJSONL(t, base)
	for _, workers := range []int{4, 8} {
		if got := traceJSONL(t, run(workers)); !bytes.Equal(want, got) {
			t.Fatalf("trace bytes differ between Workers=1 and Workers=%d", workers)
		}
	}

	// Unequal shards under faults and a sampler: the pool dispatches
	// longest shard first, the trace still merges in cohort order.
	big, bigTest := data.TrainTest(data.SMNISTConfig(0, 68), 1200, 150)
	unequal := func(workers int) ([]byte, *History) {
		rec := trace.New(0)
		cfg := lbapConfig(t, 3, workers)
		cfg.Trace = rec
		hist, err := Run(cfg, lbapClients(t, big), bigTest)
		if err != nil {
			t.Fatal(err)
		}
		return traceJSONL(t, rec), hist
	}
	wantTrace, wantHist := unequal(-1)
	for _, workers := range []int{2, 4} {
		got, hist := unequal(workers)
		if !bytes.Equal(wantTrace, got) {
			t.Fatalf("unequal shards: trace bytes differ between Workers=-1 and Workers=%d", workers)
		}
		requireSameHistory(t, wantHist, hist)
	}
}

// TestAsyncTraceWorkersByteIdentical: the async engine's merge events
// fire in virtual-time order on the event-loop goroutine, so the async
// trace is byte-stable across worker counts too.
func TestAsyncTraceWorkersByteIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 69), 400, 100)

	run := func(workers int) *trace.Recorder {
		rec := trace.New(0)
		cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 12, MixRate: 0.4, StalenessPower: 0.5}
		cfg.Workers = workers
		cfg.Trace = rec
		if _, err := RunAsync(cfg, parallelClients(t, train, 3, true), test); err != nil {
			t.Fatal(err)
		}
		return rec
	}

	base := run(1)
	if got := countKind(base.Events(), trace.KindMerge); got != 12 {
		t.Fatalf("expected 12 merge events, got %d", got)
	}
	if countKind(base.Events(), trace.KindSimStep) == 0 {
		t.Fatal("expected sim-step events from the async engine")
	}
	if !bytes.Equal(traceJSONL(t, base), traceJSONL(t, run(4))) {
		t.Fatal("async trace bytes differ between Workers=1 and Workers=4")
	}
}

// TestGossipTraceWorkersByteIdentical: local epochs fan out but the trace
// is emitted after the join, in client order.
func TestGossipTraceWorkersByteIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 70), 400, 100)

	run := func(workers int) *trace.Recorder {
		rec := trace.New(0)
		cfg := GossipConfig{Config: smallConfig(2), Topology: Ring}
		cfg.Workers = workers
		cfg.Trace = rec
		if _, err := RunGossip(cfg, parallelClients(t, train, 4, true), test); err != nil {
			t.Fatal(err)
		}
		return rec
	}

	base := run(1)
	if got := countKind(base.Events(), trace.KindRoundSummary); got != 2 {
		t.Fatalf("expected 2 round-summary events, got %d", got)
	}
	if !bytes.Equal(traceJSONL(t, base), traceJSONL(t, run(4))) {
		t.Fatal("gossip trace bytes differ between Workers=1 and Workers=4")
	}

	// Unequal shards under faults and a sampler (see lbapConfig).
	big, bigTest := data.TrainTest(data.SMNISTConfig(0, 70), 1200, 100)
	unequal := func(workers int) ([]byte, *GossipHistory) {
		rec := trace.New(0)
		cfg := GossipConfig{Config: lbapConfig(t, 3, workers), Topology: RandomPairs}
		cfg.Trace = rec
		hist, err := RunGossip(cfg, lbapClients(t, big), bigTest)
		if err != nil {
			t.Fatal(err)
		}
		return traceJSONL(t, rec), hist
	}
	wantTrace, wantHist := unequal(-1)
	for _, workers := range []int{2, 4} {
		got, hist := unequal(workers)
		if !bytes.Equal(wantTrace, got) {
			t.Fatalf("unequal shards: gossip trace bytes differ between Workers=-1 and Workers=%d", workers)
		}
		if !reflect.DeepEqual(wantHist, hist) {
			t.Fatalf("unequal shards: gossip histories differ between Workers=-1 and Workers=%d:\n%+v\n%+v", workers, wantHist, hist)
		}
	}
}

// TestRunTraceDeadlineDrops: a dropped straggler still gets its
// client-round event, flagged, and the round summary counts it.
func TestRunTraceDeadlineDrops(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 71), 300, 100)

	// Probe warm spans to set a deadline between the two devices.
	probeClients := parallelClients(t, train, 2, true)
	probe, err := Run(smallConfig(2), probeClients, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := probe.Rounds[len(probe.Rounds)-1]
	spans := make([]float64, len(last.Clients))
	for i, cr := range last.Clients {
		spans[i] = cr.ComputeS + cr.CommS
	}
	if len(spans) != 2 || spans[0] == spans[1] {
		t.Fatalf("precondition: need two distinct spans, got %v", spans)
	}
	deadline := (spans[0] + spans[1]) / 2

	rec := trace.New(0)
	cfg := smallConfig(2)
	cfg.DeadlineSeconds = deadline
	cfg.Trace = rec
	if _, err := Run(cfg, parallelClients(t, train, 2, true), test); err != nil {
		t.Fatal(err)
	}

	droppedEvents, summaryDropped := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindClientRound:
			if e.Flag == trace.ClientDropped {
				droppedEvents++
			}
		case trace.KindRoundSummary:
			summaryDropped += e.Flag
		}
	}
	if droppedEvents == 0 {
		t.Fatal("deadline dropped nobody — test is vacuous")
	}
	if droppedEvents != summaryDropped {
		t.Fatalf("client events flag %d drops, round summaries count %d", droppedEvents, summaryDropped)
	}
}
