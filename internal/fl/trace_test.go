package fl

import (
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/trace"
)

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

// TestRunTraceDeadlineDrops: a dropped straggler still gets its
// client-round event, flagged, and the round summary counts it.
func TestRunTraceDeadlineDrops(t *testing.T) {
	c := syncDeadline.at(t, 1, harnessLanes) // the harness's deadline row
	dropped, summaryDropped := c.count(trace.KindClientRound, trace.ClientDropped), 0
	for _, e := range c.events {
		if e.Kind == trace.KindRoundSummary {
			summaryDropped += e.Flag
		}
	}
	if dropped == 0 {
		t.Fatal("deadline dropped nobody — test is vacuous")
	}
	if dropped != summaryDropped {
		t.Fatalf("client events flag %d drops, round summaries count %d", dropped, summaryDropped)
	}
}
