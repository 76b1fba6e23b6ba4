package experiments

import (
	"math"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/profile"
	"fedsched/internal/trace"
)

var adaptiveArch = nn.LeNet(1, 28, 28, 10)

func adaptiveRig(t *testing.T) ([]*device.Device, []network.Link, []*profile.DeviceProfile) {
	t.Helper()
	profiles := []device.Profile{device.Pixel2(), device.Nexus6(), device.Mate10()}
	devs := make([]*device.Device, len(profiles))
	links := make([]network.Link, len(profiles))
	for i, p := range profiles {
		devs[i] = device.New(p)
		links[i] = network.WiFi()
	}
	base, err := profile.BuildTestbed(profiles, 1, 28, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	return devs, links, base
}

func TestStableRigNeedsNoReschedule(t *testing.T) {
	devs, links, base := adaptiveRig(t)
	res, err := runAdaptive(adaptiveConfig{Arch: adaptiveArch, TotalSamples: 12000, Rounds: 4}, devs, links, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("%d records", len(res.Records))
	}
	if res.Reschedules > 1 {
		t.Fatalf("stable rig rescheduled %d times", res.Reschedules)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no time accumulated")
	}
}

// TestAdaptiveDevicesKeepTheRoundClock: runAdaptive plays every round on
// the round core's device timeline — download, compute, upload, then wait
// for the round to close — so after a run on fresh devices each device's
// clock reads the run's Σ makespans, the straggler's and the waiters'
// alike. A device that trained without playing its model exchange would
// lag by one round trip per round.
func TestAdaptiveDevicesKeepTheRoundClock(t *testing.T) {
	devs, links, base := adaptiveRig(t)
	res, err := runAdaptive(adaptiveConfig{Arch: adaptiveArch, TotalSamples: 12000, Rounds: 4}, devs, links, base)
	if err != nil {
		t.Fatal(err)
	}
	tol := trace.DefaultTolerances
	for i, d := range devs {
		if math.Abs(d.NowSeconds-res.TotalTime) > tol.Abs+tol.Rel*res.TotalTime {
			t.Errorf("device %d (%s): clock %.9f s after the run, want Σ makespans %.9f s (off by %.9f s; one round trip is %.9f s)",
				i, d.Model, d.NowSeconds, res.TotalTime, res.TotalTime-d.NowSeconds, links[i].RoundTripTime(adaptiveArch.SizeBytes()))
		}
	}
}

func TestAdaptiveRecoversFromDrift(t *testing.T) {
	// Inject a mid-run environment change: the fastest device (Pixel2)
	// lands in a hot pocket — ambient jumps 30°C, so it throttles hard.
	run := func(threshold float64) (*adaptiveResult, []*device.Device) {
		devs, links, base := adaptiveRig(t)
		// Pre-degrade after scheduling by raising ambient before round 0
		// is NOT the test; instead degrade after two rounds by wrapping
		// rounds manually: simplest is two phases.
		cfg := adaptiveConfig{Arch: adaptiveArch, TotalSamples: 12000, Rounds: 2, DriftThreshold: threshold}
		res1, err := runAdaptive(cfg, devs, links, base)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 2: Pixel2 overheats persistently.
		devs[0].AmbientC += 30
		devs[0].TempC += 30
		devs[0].SoftTripC = devs[0].AmbientC + 2 // permanent throttle
		devs[0].ThrottleFactor = 0.25
		cfg.Rounds = 6
		res2, err := runAdaptive(cfg, devs, links, base)
		if err != nil {
			t.Fatal(err)
		}
		res2.TotalTime += res1.TotalTime
		return res2, devs
	}
	adaptive, _ := run(0.3)
	static, _ := run(math.Inf(1))
	if adaptive.Reschedules == 0 {
		t.Fatal("controller never rescheduled despite a 4× slowdown")
	}
	if static.Reschedules != 0 {
		t.Fatal("static baseline must not reschedule")
	}
	// After adaptation the final rounds must be faster than the static
	// schedule's final rounds.
	lastA := adaptive.Records[len(adaptive.Records)-1].Makespan
	lastS := static.Records[len(static.Records)-1].Makespan
	if lastA >= lastS {
		t.Fatalf("adaptive final round %.1f s not faster than static %.1f s", lastA, lastS)
	}
	// And the adapted schedule should shift load off the degraded device.
	if adaptive.Assignment.Shards[0] >= static.Assignment.Shards[0] {
		t.Fatalf("load not shifted off degraded device: adaptive %d vs static %d shards",
			adaptive.Assignment.Shards[0], static.Assignment.Shards[0])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := runAdaptive(adaptiveConfig{}, nil, nil, nil); err == nil {
		t.Fatal("expected error without arch")
	}
	devs, links, base := adaptiveRig(t)
	if _, err := runAdaptive(adaptiveConfig{Arch: adaptiveArch, TotalSamples: 1000}, devs, links[:1], base); err == nil {
		t.Fatal("expected mismatch error")
	}
	_ = devs
	_ = base
}
