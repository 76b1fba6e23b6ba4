package fault

import (
	"math"
	"testing"
)

func TestNilPlanIsClean(t *testing.T) {
	var p *Plan
	for round := 0; round < 3; round++ {
		for client := 0; client < 100; client++ {
			f := p.Fault(round, client)
			if f.Kind != None || f.Point != 0 || f.Slow != 1 {
				t.Fatalf("nil plan injected %+v at (%d,%d)", f, round, client)
			}
		}
	}
	if p.Active() {
		t.Fatal("nil plan reports Active")
	}
	if err := p.Check(); err != nil {
		t.Fatalf("nil plan Check: %v", err)
	}
}

func TestFaultDeterministic(t *testing.T) {
	a := &Plan{Seed: 7, CrashRate: 0.2, BatteryRate: 0.1, FlapRate: 0.1, CorruptRate: 0.1, DegradeRate: 0.3}
	b := &Plan{Seed: 7, CrashRate: 0.2, BatteryRate: 0.1, FlapRate: 0.1, CorruptRate: 0.1, DegradeRate: 0.3}
	for round := 0; round < 5; round++ {
		for client := 0; client < 500; client++ {
			fa, fb := a.Fault(round, client), b.Fault(round, client)
			if fa != fb {
				t.Fatalf("(%d,%d): %+v vs %+v", round, client, fa, fb)
			}
			if fa != a.Fault(round, client) {
				t.Fatalf("(%d,%d): repeated draw differs", round, client)
			}
		}
	}
}

func TestFaultBounds(t *testing.T) {
	p := &Plan{Seed: 3, CrashRate: 0.5, BatteryRate: 0.3, FlapRate: 0.4, CorruptRate: 0.4, DegradeRate: 0.5, DegradeFactor: 8}
	for round := 0; round < 10; round++ {
		for client := 0; client < 1000; client++ {
			f := p.Fault(round, client)
			if f.Point < 0 || f.Point >= 1 {
				t.Fatalf("Point %g outside [0,1)", f.Point)
			}
			if f.Slow < 1 {
				t.Fatalf("Slow %g < 1", f.Slow)
			}
			if f.Kind > Corrupt {
				t.Fatalf("unknown kind %d", f.Kind)
			}
			if (f.Kind == None || f.Kind == Corrupt) && f.Point != 0 {
				t.Fatalf("kind %v carries Point %g", f.Kind, f.Point)
			}
		}
	}
}

// TestFaultRates checks the empirical per-kind frequency against the
// configured rates over a large sample (±2 pp at n = 20000).
func TestFaultRates(t *testing.T) {
	p := &Plan{Seed: 11, CrashRate: 0.10, DegradeRate: 0.25}
	const n = 20000
	crashes, degraded := 0, 0
	for client := 0; client < n; client++ {
		f := p.Fault(4, client)
		if f.Kind == Crash {
			crashes++
		}
		if f.Slow > 1 {
			degraded++
		}
	}
	if got := float64(crashes) / n; math.Abs(got-0.10) > 0.02 {
		t.Errorf("crash frequency %.3f, want ≈ 0.10", got)
	}
	if got := float64(degraded) / n; math.Abs(got-0.25) > 0.02 {
		t.Errorf("degrade frequency %.3f, want ≈ 0.25", got)
	}
}

// TestKindIndependence: a kind's lane draw is unaffected by the other
// kinds' rates — adding crash faults must not move which clients suffer
// battery death, only (by precedence) mask lower-severity kinds.
func TestKindIndependence(t *testing.T) {
	full := &Plan{Seed: 5, CrashRate: 0.2, BatteryRate: 0.1, FlapRate: 0.15, CorruptRate: 0.1}
	batteryOnly := &Plan{Seed: 5, BatteryRate: 0.1}
	crashOnly := &Plan{Seed: 5, CrashRate: 0.2}
	for client := 0; client < 5000; client++ {
		f := full.Fault(0, client)
		b := batteryOnly.Fault(0, client)
		c := crashOnly.Fault(0, client)
		// Battery is the highest severity: the full plan reports it
		// exactly when the single-kind plan fires.
		if (f.Kind == Battery) != (b.Kind == Battery) {
			t.Fatalf("client %d: battery draw moved (full %v, solo %v)", client, f.Kind, b.Kind)
		}
		// Crash is masked only by battery.
		wantCrash := c.Kind == Crash && b.Kind != Battery
		if (f.Kind == Crash) != wantCrash {
			t.Fatalf("client %d: crash draw moved (full %v, solo %v/%v)", client, f.Kind, c.Kind, b.Kind)
		}
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	p := &Plan{Seed: 9, FlapRate: 1}
	for client := 0; client < 100; client++ {
		if f := p.Fault(2, client); f.Kind != LinkFlap {
			t.Fatalf("client %d: rate-1 flap drew %v", client, f.Kind)
		}
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("crash=0.1, battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=6", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, CrashRate: 0.1, BatteryRate: 0.02, FlapRate: 0.05, CorruptRate: 0.01, DegradeRate: 0.2, DegradeFactor: 6}
	if *p != want {
		t.Fatalf("got %+v, want %+v", *p, want)
	}
	if p.String() != "crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=6" {
		t.Fatalf("String() = %q", p.String())
	}

	if p, err := ParseSpec("", 1); p != nil || err != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{
		"crash", "crash=x", "meteor=0.1", "crash=1.5", "slow=0.5,degrade=1",
		// strconv.ParseFloat reads these; Check must not admit them.
		"degrade=1,slow=Inf", "crash=NaN", "battery=+Inf", "flap=-Inf", "degrade=0.5,slow=NaN",
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestCheck(t *testing.T) {
	if err := (&Plan{CrashRate: -0.1}).Check(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (&Plan{BatteryRate: 1.1}).Check(); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (&Plan{DegradeRate: 0.5, DegradeFactor: 0.2}).Check(); err == nil {
		t.Error("degrade factor < 1 accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Plan{
		{CrashRate: nan}, {BatteryRate: inf}, {FlapRate: -inf}, {CorruptRate: nan}, {DegradeRate: nan},
		{DegradeRate: 1, DegradeFactor: inf}, {DegradeRate: 1, DegradeFactor: nan}, {DegradeFactor: -inf},
	} {
		if err := p.Check(); err == nil {
			t.Errorf("non-finite plan %+v accepted", p)
		}
	}
	if err := (&Plan{CrashRate: 1, DegradeRate: 1, DegradeFactor: 4}).Check(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Crash: "crash", Battery: "battery", LinkFlap: "flap", Corrupt: "corrupt"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k, want)
		}
	}
}

func TestAllocFreeDraw(t *testing.T) {
	p := &Plan{Seed: 1, CrashRate: 0.5, DegradeRate: 0.5}
	var sink Fault
	if allocs := testing.AllocsPerRun(100, func() {
		sink = p.Fault(3, 17)
	}); allocs != 0 {
		t.Fatalf("Fault allocates %v per draw", allocs)
	}
	_ = sink
}
