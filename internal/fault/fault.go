// Package fault is the deterministic fault-injection layer for federated
// rounds. The paper's setting is battery-powered phones, where clients
// die mid-round as a matter of course — batteries drain, apps crash,
// links flap — so the engines must tolerate lost and corrupted updates
// instead of assuming a clean fleet.
//
// A Plan is stateless: whether a given client faults in a given round is
// a pure splitmix64-style hash of (kind, round, client, seed). That
// gives three properties the engines rely on:
//
//   - O(selected) compatibility: deciding a cohort member's fate costs a
//     handful of integer mixes and touches no per-client state, so a
//     10^6-client population pays only for its selected cohort — same
//     contract as internal/sample and device.Population.
//   - Worker independence: draws do not consume a shared RNG stream, so
//     fault decisions are bit-identical for any Workers value and any
//     order of evaluation.
//   - Kind independence: each fault kind draws from its own hash lane.
//     Raising the crash rate never moves which clients suffer battery
//     death, which keeps scenario sweeps comparable across a single axis.
//
// When several fatal kinds fire for the same (round, client), the
// reported kind follows severity precedence: battery death beats crash
// beats link flap beats corrupt. Link degradation (a slow, not dead,
// link) is an independent, non-fatal draw that also applies to
// survivors.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates injected fault types. The zero value None means the
// client completes its round normally. Values are stable wire constants:
// they appear as the Flag of KindFault trace events.
type Kind uint8

const (
	// None: no fault this round.
	None Kind = iota
	// Crash: the client process dies mid-shard. The fraction Point of
	// its local compute was already spent (time, energy, heat); the
	// update never uploads.
	Crash
	// Battery: the battery hits empty mid-shard — Crash plus a drained
	// battery account (composes with the DVFS/battery model in
	// internal/device).
	Battery
	// LinkFlap: the radio drops during upload. The full local epoch was
	// computed and the fraction Point of the transfer sent; the update
	// is lost in flight.
	LinkFlap
	// Corrupt: the update arrives but is garbage (NaN/outlier weights —
	// bit-flips, truncated uploads, poisoned clients). The server
	// rejects it on receipt, like a diverged update.
	Corrupt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Battery:
		return "battery"
	case LinkFlap:
		return "flap"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Aborts reports whether the kind kills the round before the update is
// out (Crash, Battery, LinkFlap): the doomed work burns time and energy
// up to Fault.Point and nothing reaches the server. Corrupt updates
// arrive — and are rejected there.
func (k Kind) Aborts() bool { return k == Crash || k == Battery || k == LinkFlap }

// Fault is one (round, client) draw: what happened to the client and how
// far it got.
type Fault struct {
	// Kind is the injected fault (None = clean round).
	Kind Kind
	// Point is the failure point in [0, 1): the fraction of the doomed
	// work completed before the fault — of local compute for
	// Crash/Battery, of the upload for LinkFlap. Zero for None/Corrupt.
	Point float64
	// Slow is the link-degradation factor, ≥ 1 (1 = clean link). It
	// divides the client's bandwidth for the round and applies to
	// survivors and victims alike.
	Slow float64
}

// Plan is a seeded fault scenario: per-kind rates, all in [0, 1].
// The zero value (and a nil *Plan) injects nothing.
type Plan struct {
	// Seed fixes every draw. Two plans with equal seeds and rates are
	// bit-identical scenarios.
	Seed int64
	// CrashRate is the per-(round, client) probability of a mid-shard
	// process crash.
	CrashRate float64
	// BatteryRate is the probability of battery death mid-shard.
	BatteryRate float64
	// FlapRate is the probability the upload link drops mid-transfer.
	FlapRate float64
	// CorruptRate is the probability the uploaded update is garbage.
	CorruptRate float64
	// DegradeRate is the probability the client's link is degraded this
	// round (independent of the fatal kinds; survivors just get slow).
	DegradeRate float64
	// DegradeFactor divides a degraded client's bandwidth (default 4).
	DegradeFactor float64
}

// Hash lanes: one odd constant per independent draw so kinds never share
// bits. Folded into the seed before the finalizer chain.
const (
	laneCrash   uint64 = 0xa24baed4963ee407
	laneBattery uint64 = 0x9fb21c651e98df25
	laneFlap    uint64 = 0xd6e8feb86659fd93
	laneCorrupt uint64 = 0xc2b2ae3d27d4eb4f
	lanePoint   uint64 = 0x165667b19e3779f9
	laneDegrade uint64 = 0x27d4eb2f165667c5
)

// mix64 is the SplitMix64 finalizer (same mixing step as
// internal/sample and device.Population use — duplicated to keep the
// package dependency-free).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0, 1) hashed from (seed, lane, round,
// client). Allocation-free and stateless: it is safe from any goroutine
// and any evaluation order.
//
// fedlint:hotpath
func (p *Plan) draw(lane uint64, round, client int) float64 {
	h := mix64(uint64(p.Seed) ^ lane)
	h = mix64(h ^ uint64(round)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(client)*0xbf58476d1ce4e5b9)
	return float64(h>>11) * (1.0 / (1 << 53))
}

// slowFactor returns the configured degradation factor, defaulted.
func (p *Plan) slowFactor() float64 {
	if p.DegradeFactor > 1 {
		return p.DegradeFactor
	}
	return 4
}

// Fault draws the (round, client) fault. Nil-safe: a nil plan reports a
// clean round. Each kind fires from its own independent lane; when
// several fatal kinds fire at once the reported kind follows severity
// precedence (Battery > Crash > LinkFlap > Corrupt).
//
// fedlint:hotpath
// fedlint:deterministic
func (p *Plan) Fault(round, client int) Fault {
	f := Fault{Slow: 1}
	if p == nil {
		return f
	}
	switch {
	case p.BatteryRate > 0 && p.draw(laneBattery, round, client) < p.BatteryRate:
		f.Kind = Battery
	case p.CrashRate > 0 && p.draw(laneCrash, round, client) < p.CrashRate:
		f.Kind = Crash
	case p.FlapRate > 0 && p.draw(laneFlap, round, client) < p.FlapRate:
		f.Kind = LinkFlap
	case p.CorruptRate > 0 && p.draw(laneCorrupt, round, client) < p.CorruptRate:
		f.Kind = Corrupt
	}
	if f.Kind.Aborts() {
		f.Point = p.draw(lanePoint, round, client)
	}
	if p.DegradeRate > 0 && p.draw(laneDegrade, round, client) < p.DegradeRate {
		f.Slow = p.slowFactor()
	}
	return f
}

// Active reports whether the plan can inject anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.CrashRate > 0 || p.BatteryRate > 0 || p.FlapRate > 0 ||
		p.CorruptRate > 0 || p.DegradeRate > 0
}

// Check validates the plan: every rate in [0, 1] and a degrade factor of
// 0 (default) or a finite value ≥ 1; NaN and ±Inf are rejected. Nil
// plans are valid (inject nothing).
func (p *Plan) Check() error {
	if p == nil {
		return nil
	}
	rates := [...]struct {
		name string
		v    float64
	}{
		{"crash", p.CrashRate},
		{"battery", p.BatteryRate},
		{"flap", p.FlapRate},
		{"corrupt", p.CorruptRate},
		{"degrade", p.DegradeRate},
	}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", r.name, r.v)
		}
	}
	if f := p.DegradeFactor; math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || (f > 0 && f < 1) {
		return fmt.Errorf("fault: degrade factor %g must be 0 (default) or a finite value ≥ 1", f)
	}
	return nil
}

// PlanSeed is the fault-plan seed of a run: the explicit fault seed when
// one is set, otherwise a fixed derivation from the run seed — so every
// front end (fedsim, fedtrain, fedserve) replays the same faults for the
// same -seed.
func PlanSeed(faultSeed, runSeed int64) int64 {
	if faultSeed != 0 {
		return faultSeed
	}
	return runSeed*0x9e3779b9 + 97
}

// ParseSpec parses a fault scenario of the form
//
//	crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=4
//
// Keys may appear in any order and be omitted (rate 0); "slow" sets
// DegradeFactor. An empty spec returns a nil plan (no faults).
func ParseSpec(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad value in %q: %v", part, err)
		}
		switch strings.TrimSpace(key) {
		case "crash":
			p.CrashRate = v
		case "battery":
			p.BatteryRate = v
		case "flap":
			p.FlapRate = v
		case "corrupt":
			p.CorruptRate = v
		case "degrade":
			p.DegradeRate = v
		case "slow":
			p.DegradeFactor = v
		default:
			return nil, fmt.Errorf("fault: unknown fault kind %q (have crash, battery, flap, corrupt, degrade, slow)", key)
		}
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in ParseSpec syntax (diagnostics, CLI echo).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	add := func(k string, v float64) {
		if v > 0 {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%g", k, v)
		}
	}
	add("crash", p.CrashRate)
	add("battery", p.BatteryRate)
	add("flap", p.FlapRate)
	add("corrupt", p.CorruptRate)
	add("degrade", p.DegradeRate)
	if p.DegradeRate > 0 && p.DegradeFactor > 1 {
		add("slow", p.DegradeFactor)
	}
	return b.String()
}
