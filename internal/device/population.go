package device

import "math"

// Population describes a client population by construction rather than by
// enumeration: client id's device is a deterministic function of
// (Seed, id), so a million-client fleet costs a few words of memory and a
// Device is materialized only when the client is actually selected for a
// round. This is the lazy-materialization half of the O(selected) round
// loop — the sampling half lives in internal/sample.
type Population struct {
	// Profiles are the device archetypes; client id draws archetype
	// hash(id) mod len(Profiles).
	Profiles []Profile
	// N is the population size.
	N int
	// Seed fixes every per-client draw (archetype, speed, temperature,
	// initial battery drain).
	Seed int64

	// TempJitterC spreads ambient temperature per client: ±TempJitterC
	// around the archetype's AmbientC (default 4 °C).
	TempJitterC float64
	// SpeedJitter scales throughput per client: a uniform factor in
	// [1−SpeedJitter, 1+SpeedJitter] (default 0.25) applied to both
	// anchors, modeling silicon/thermal-paste lottery and background load.
	SpeedJitter float64
	// DrainMax is the maximum initial battery drain fraction (default
	// 0.5): client id starts with a uniform fraction in [0, DrainMax] of
	// its battery already spent.
	DrainMax float64
}

// NewPopulation returns a population of n clients over the four paper
// testbed archetypes with default heterogeneity knobs.
func NewPopulation(n int, seed int64) *Population {
	return &Population{
		Profiles:    []Profile{Nexus6(), Nexus6P(), Mate10(), Pixel2()},
		N:           n,
		Seed:        seed,
		TempJitterC: 4,
		SpeedJitter: 0.25,
		DrainMax:    0.5,
	}
}

// popMix is the splitmix64 finalizer, duplicated here (three lines) to
// keep device free of a dependency on internal/sample.
func popMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to a uniform float in [0, 1). The division compiles to
// a multiply by 2⁻⁵³; the conversion keeps a caller's add from fusing with
// it (`make nofma`).
func unit(h uint64) float64 { return float64(float64(h>>11) / (1 << 53)) }

// draw returns the id-specific hash for one attribute lane.
func (p *Population) draw(id int, lane uint64) uint64 {
	return popMix(uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 + lane)
}

// ArchetypeOf returns the archetype index for client id.
func (p *Population) ArchetypeOf(id int) int {
	return int(p.draw(id, 1) % uint64(len(p.Profiles)))
}

// SpeedOf returns client id's throughput scale in [1−SpeedJitter, 1+SpeedJitter].
func (p *Population) SpeedOf(id int) float64 {
	j := p.SpeedJitter
	return 1 - j + float64(2*j*unit(p.draw(id, 2)))
}

// ambientOf returns client id's ambient temperature.
func (p *Population) ambientOf(id int) float64 {
	base := p.Profiles[p.ArchetypeOf(id)].AmbientC
	return base + float64(p.TempJitterC*(float64(2*unit(p.draw(id, 3)))-1))
}

// drainOf returns client id's initial battery-drain fraction in [0, DrainMax].
func (p *Population) drainOf(id int) float64 {
	return p.DrainMax * unit(p.draw(id, 4))
}

// Materialize (re)initializes d in place as client id's device: archetype
// profile with per-client speed/temperature jitter applied, clock and
// throttle state reset, and the initial battery drain charged to the
// energy account. It allocates nothing — the Profile value copy shares
// the archetype's Clusters slice, which Device never mutates — so a round
// loop can reuse one Device per cohort slot. The caller sets Tracer and
// TraceID afterwards if it records traces.
//
// fedlint:hotpath
func (p *Population) Materialize(id int, d *Device) {
	prof := p.Profiles[p.ArchetypeOf(id)]
	speed := p.SpeedOf(id)
	prof.TputSmall *= speed
	prof.TputLarge *= speed
	prof.AmbientC = p.ambientOf(id)
	*d = Device{Profile: prof, TempC: prof.AmbientC, FreqFactor: idleFreqFactor}
	d.EnergyJ = prof.BatteryJ * p.drainOf(id)
}

// Check validates the population parameters.
func (p *Population) Check() error {
	switch {
	case p.N <= 0:
		return errPopulation("N must be > 0")
	case len(p.Profiles) == 0:
		return errPopulation("no archetype profiles")
	case p.SpeedJitter < 0 || p.SpeedJitter >= 1:
		return errPopulation("SpeedJitter must be in [0, 1)")
	case p.DrainMax < 0 || p.DrainMax > 1:
		return errPopulation("DrainMax must be in [0, 1]")
	case math.IsNaN(p.TempJitterC):
		return errPopulation("TempJitterC is NaN")
	}
	return nil
}

type errPopulation string

func (e errPopulation) Error() string { return "device: population: " + string(e) }
