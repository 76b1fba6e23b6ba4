package fl

import (
	"math"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/network"
)

func TestDeadlineDropsStraggler(t *testing.T) {
	// Pixel2 vs Nexus6P with equal data and a paper-scale arch: the 6P is
	// several times slower, so a deadline between their spans must drop it.
	train, test := data.TrainTest(data.SMNISTConfig(0, 91), 400, 150)
	part := data.IIDEqual(train, 2, newTestRand())
	locals := part.Materialize(train)
	devs := []*device.Device{device.New(device.Pixel2()), device.New(device.Nexus6P())}
	links := []network.Link{network.WiFi(), network.WiFi()}
	clients, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	// Probe WARM spans (last of 3 rounds) — the cold first round includes
	// the governor ramp, which a deadline split on round 0 would misjudge.
	probe, err := Run(smallConfig(3), clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := probe.Rounds[len(probe.Rounds)-1]
	fast := last.Clients[0].ComputeS + last.Clients[0].CommS
	slow := last.Clients[1].ComputeS + last.Clients[1].CommS
	if slow <= fast {
		t.Fatalf("precondition failed: 6P (%.2f s) not slower than Pixel2 (%.2f s)", slow, fast)
	}

	for i, d := range devs {
		d.Reset()
		_ = i
	}
	cfg := smallConfig(3)
	cfg.DeadlineSeconds = (fast + slow) / 2
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if r.Makespan > cfg.DeadlineSeconds+1e-9 {
			t.Fatalf("round ran past deadline: %.2f > %.2f", r.Makespan, cfg.DeadlineSeconds)
		}
		dropped := 0
		for _, cr := range r.Clients {
			if cr.Dropped {
				dropped++
			}
		}
		if dropped != 1 {
			t.Fatalf("round %d dropped %d clients, want 1", r.Round, dropped)
		}
	}
	if hist.FinalAccuracy <= 0.2 {
		t.Fatalf("deadline run failed to learn: %.3f", hist.FinalAccuracy)
	}
}

func TestDeadlineAllDroppedRoundIsWasted(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 92), 200, 100)
	part := data.IIDEqual(train, 2, newTestRand())
	locals := part.Materialize(train)
	devs := []*device.Device{device.New(device.Nexus6P()), device.New(device.Nexus6P())}
	links := []network.Link{network.WiFi(), network.WiFi()}
	clients, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(2)
	cfg.DeadlineSeconds = 1e-6 // nobody can make this
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if !math.IsNaN(r.TrainLoss) {
			t.Fatalf("wasted round should have NaN loss, got %v", r.TrainLoss)
		}
	}
	// The untouched initial model still gets a final evaluation.
	if hist.FinalAccuracy < 0 {
		t.Fatal("final accuracy not evaluated")
	}
}

func TestNoDeadlineUnaffected(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 93), 300, 100)
	run := func(deadline float64) float64 {
		part := data.IIDEqual(train, 2, newTestRand())
		clients := partitionClients(t, train, part, false)
		cfg := smallConfig(2)
		cfg.DeadlineSeconds = deadline
		hist, err := Run(cfg, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return hist.FinalAccuracy
	}
	// A huge deadline must be identical to no deadline.
	if a, b := run(0), run(1e12); a != b {
		t.Fatalf("inactive deadline changed the run: %v vs %v", a, b)
	}
}
