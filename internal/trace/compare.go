package trace

import (
	"fmt"
	"math"
)

// Tolerances bounds the float drift Compare accepts. Integer fields are
// always compared exactly — a different straggler id, throttle count or
// assigned size is a behavioural change, never noise.
type Tolerances struct {
	// Rel is the maximum relative error |got−golden| / |golden| allowed
	// on float fields.
	Rel float64
	// Abs is the absolute slack added on top (covers golden values at or
	// near zero, where a relative bound is meaningless).
	Abs float64
}

// Exact is the zero tolerance: byte-level float equality.
var Exact = Tolerances{}

// DefaultTolerances absorbs cross-platform libm drift (math.Exp/Pow have
// per-architecture assembly) while still catching any model change: the
// simulator's quantities live in seconds/joules/°C, so 1e-9 relative is
// far below one integration step of drift.
var DefaultTolerances = Tolerances{Rel: 1e-9, Abs: 1e-12}

// within reports |got−golden| ≤ Abs + Rel·|golden|.
func (t Tolerances) within(golden, got float64) bool {
	return math.Abs(got-golden) <= t.Abs+float64(t.Rel*math.Abs(golden))
}

// intField / floatField pair a field name with its accessor, so Compare
// reports mismatches by name and the event schema is enumerated once.
var intFields = []struct {
	name string
	get  func(*Event) int
}{
	{"round", func(e *Event) int { return e.Round }},
	{"client", func(e *Event) int { return e.Client }},
	{"samples", func(e *Event) int { return e.Samples }},
	{"throttles", func(e *Event) int { return e.Throttles }},
	{"straggler", func(e *Event) int { return e.Straggler }},
	{"staleness", func(e *Event) int { return e.Staleness }},
	{"flag", func(e *Event) int { return e.Flag }},
}

var floatFields = []struct {
	name string
	get  func(*Event) float64
}{
	{"at_s", func(e *Event) float64 { return e.AtS }},
	{"compute_s", func(e *Event) float64 { return e.ComputeS }},
	{"comm_s", func(e *Event) float64 { return e.CommS }},
	{"energy_j", func(e *Event) float64 { return e.EnergyJ }},
	{"battery", func(e *Event) float64 { return e.Battery }},
	{"temp_c", func(e *Event) float64 { return e.TempC }},
	{"freq_ghz", func(e *Event) float64 { return e.FreqGHz }},
	{"makespan_s", func(e *Event) float64 { return e.MakespanS }},
	{"loss", func(e *Event) float64 { return e.Loss }},
	{"accuracy", func(e *Event) float64 { return e.Accuracy }},
}

// Compare diffs a recorded trace against a golden one: event count and
// every integer field must match exactly; float fields must agree within
// tol. It returns nil when the traces match, or an error naming the
// first mismatching event and field. Both the golden-trace tests and the
// CI gate go through this single definition of "same behaviour".
func Compare(golden, got []Event, tol Tolerances) error {
	if len(golden) != len(got) {
		return fmt.Errorf("trace: event count mismatch: golden %d, got %d", len(golden), len(got))
	}
	for i := range golden {
		g, h := &golden[i], &got[i]
		if g.Kind != h.Kind {
			return fmt.Errorf("trace: event %d: kind mismatch: golden %s, got %s", i, g.Kind, h.Kind)
		}
		for _, f := range intFields {
			if a, b := f.get(g), f.get(h); a != b {
				return fmt.Errorf("trace: event %d (%s): %s mismatch: golden %d, got %d", i, g.Kind, f.name, a, b)
			}
		}
		for _, f := range floatFields {
			if a, b := f.get(g), f.get(h); !tol.within(a, b) {
				return fmt.Errorf("trace: event %d (%s): %s drift beyond tolerance: golden %v, got %v (|Δ|=%g > %g+%g·|golden|)",
					i, g.Kind, f.name, a, b, math.Abs(b-a), tol.Abs, tol.Rel)
			}
		}
	}
	return nil
}
