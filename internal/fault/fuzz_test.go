package fault

import (
	"math"
	"testing"
)

// clampRate maps an arbitrary fuzzed float into a valid rate in [0, 1].
func clampRate(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Abs(v)
	return v - math.Floor(v)
}

// FuzzFaultPlan fuzzes the plan invariants: draws are deterministic and
// pure, results are in bounds, and each kind's lane is independent of the
// other kinds' rates (precedence only masks, never moves, a draw).
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), 0.1, 0.05, 0.05, 0.02, 0.2, 8, 64)
	f.Add(int64(42), 0.5, 0.0, 1.0, 0.0, 0.0, 0, 1)
	f.Add(int64(-9), 0.99, 0.99, 0.99, 0.99, 0.99, 1000000, 1000000)
	f.Fuzz(func(t *testing.T, seed int64, crash, battery, flap, corrupt, degrade float64, round, client int) {
		if round < 0 || client < 0 || round > 1<<30 || client > 1<<30 {
			t.Skip()
		}
		p := &Plan{
			Seed:        seed,
			CrashRate:   clampRate(crash),
			BatteryRate: clampRate(battery),
			FlapRate:    clampRate(flap),
			CorruptRate: clampRate(corrupt),
			DegradeRate: clampRate(degrade),
		}
		if err := p.Check(); err != nil {
			t.Fatalf("clamped plan invalid: %v", err)
		}

		got := p.Fault(round, client)

		// Bounds.
		if got.Kind > Corrupt {
			t.Fatalf("unknown kind %d", got.Kind)
		}
		if got.Point < 0 || got.Point >= 1 {
			t.Fatalf("Point %g outside [0,1)", got.Point)
		}
		if got.Slow < 1 {
			t.Fatalf("Slow %g < 1", got.Slow)
		}

		// Determinism: an identical plan and a repeated draw agree.
		q := *p
		if again := (&q).Fault(round, client); again != got {
			t.Fatalf("identical plan drew %+v, want %+v", again, got)
		}
		if again := p.Fault(round, client); again != got {
			t.Fatalf("repeated draw %+v, want %+v", again, got)
		}

		// Kind independence: the full plan's reported kind must be
		// exactly what the single-kind plans predict under severity
		// precedence (battery > crash > flap > corrupt).
		fires := func(pl *Plan, k Kind) bool { return pl.Fault(round, client).Kind == k }
		b := fires(&Plan{Seed: seed, BatteryRate: p.BatteryRate}, Battery)
		c := fires(&Plan{Seed: seed, CrashRate: p.CrashRate}, Crash)
		fl := fires(&Plan{Seed: seed, FlapRate: p.FlapRate}, LinkFlap)
		co := fires(&Plan{Seed: seed, CorruptRate: p.CorruptRate}, Corrupt)
		want := None
		switch {
		case b:
			want = Battery
		case c:
			want = Crash
		case fl:
			want = LinkFlap
		case co:
			want = Corrupt
		}
		if got.Kind != want {
			t.Fatalf("kind %v, want %v (lanes b=%v c=%v f=%v co=%v)", got.Kind, want, b, c, fl, co)
		}

		// Degradation is independent of the fatal lanes.
		d := &Plan{Seed: seed, DegradeRate: p.DegradeRate}
		if (d.Fault(round, client).Slow > 1) != (got.Slow > 1) {
			t.Fatalf("degrade draw moved with fatal rates")
		}

		// A zero-rate plan never fires; rate-1 lanes always fire.
		if zero := new(Plan).Fault(round, client); zero.Kind != None || zero.Slow != 1 {
			t.Fatalf("zero plan injected %+v", zero)
		}
		one := &Plan{Seed: seed, CorruptRate: 1}
		if k := one.Fault(round, client).Kind; k != Corrupt {
			t.Fatalf("rate-1 corrupt drew %v", k)
		}
	})
}

// FuzzParseSpec fuzzes the spec parser: every spec it accepts yields
// finite rates in [0, 1], a degrade factor that is 0 (default) or finite
// and ≥ 1, and draws whose Slow is finite and ≥ 1.
func FuzzParseSpec(f *testing.F) {
	f.Add("crash=0.1, battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=6", int64(42))
	f.Add("degrade=1,slow=Inf", int64(1))
	f.Add("crash=NaN", int64(1))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p, err := ParseSpec(spec, seed)
		if err != nil || p == nil {
			return
		}
		for _, r := range []float64{p.CrashRate, p.BatteryRate, p.FlapRate, p.CorruptRate, p.DegradeRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSpec(%q) accepted rate %g", spec, r)
			}
		}
		if f := p.DegradeFactor; math.IsInf(f, 0) || !(f >= 1 || f == 0) {
			t.Fatalf("ParseSpec(%q) accepted degrade factor %g", spec, f)
		}
		for client := range 64 {
			if s := p.Fault(3, client).Slow; math.IsInf(s, 0) || !(s >= 1) {
				t.Fatalf("ParseSpec(%q): client %d drew Slow %g", spec, client, s)
			}
		}
	})
}
