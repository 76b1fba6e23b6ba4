package device

import (
	"math"

	"fedsched/internal/nn"
	"fedsched/internal/trace"
)

// Device is a stateful simulated phone. It tracks simulated time,
// temperature, governor frequency, and consumed energy across training
// work. A Device is not safe for concurrent use; federated clients each own
// one.
type Device struct {
	Profile

	// TempC is the current package temperature.
	TempC float64
	// FreqFactor is the governor's current frequency scale in (0, 1].
	FreqFactor float64
	// bigOffline records a hard thermal trip (Nexus 6P pathology).
	bigOffline bool
	// NowSeconds is the device-local simulated clock.
	NowSeconds float64
	// EnergyJ is the total energy consumed so far.
	EnergyJ float64
	// Throttles counts governor state transitions so far: soft-throttle
	// engage/release plus hard trips and recoveries. The per-round delta
	// is the paper's "how often did DVFS bite" observability signal.
	Throttles int
	// Tracer, when non-nil, receives one KindThrottle event per governor
	// transition. Engines that train clients in parallel point it at a
	// per-client log and merge post-join (see internal/trace).
	Tracer *trace.Recorder
	// TraceID labels this device's events (the owning client's id).
	TraceID int
	// throttled mirrors whether the soft throttle is currently engaged,
	// to detect transitions.
	throttled bool
}

// thermalStep is the integration step for the thermal/governor model.
const thermalStep = 0.25 // seconds

// New returns a cold, idle device with the given profile.
func New(p Profile) *Device {
	return &Device{Profile: p, TempC: p.AmbientC, FreqFactor: idleFreqFactor}
}

// idleFreqFactor is the governor's resting frequency scale.
const idleFreqFactor = 0.35

// Reset cools the device to ambient, resets the governor, clock and energy
// account.
func (d *Device) Reset() {
	d.TempC = d.AmbientC
	d.FreqFactor = idleFreqFactor
	d.bigOffline = false
	d.NowSeconds = 0
	d.EnergyJ = 0
	d.Throttles = 0
	d.throttled = false
}

// intensityBlend maps a per-sample training FLOP cost to the interpolation
// coordinate between the small and large anchors (log scale, clamped).
func (d *Device) intensityBlend(trainFlops float64) float64 {
	if trainFlops <= 0 {
		return 0
	}
	// Log10 ends in a multiply (Log2 · Ln2/Ln10): converted so that no
	// subtraction fuses with it (`make nofma`).
	lo, hi := float64(math.Log10(d.AnchorSmall)), float64(math.Log10(d.AnchorLarge))
	s := (float64(math.Log10(trainFlops)) - lo) / (hi - lo)
	return math.Min(1, math.Max(0, s))
}

// workload returns the fraction of peak power a workload of trainFlops
// per sample draws and its cold full-frequency training throughput
// (FLOP/s), both from one intensity blend.
func (d *Device) workload(trainFlops float64) (util, base float64) {
	s := d.intensityBlend(trainFlops)
	return d.UtilSmall + float64((d.UtilLarge-d.UtilSmall)*s), (d.TputSmall + float64((d.TputLarge-d.TputSmall)*s)) * 1e9
}

// throughput applies governor frequency and thermal trips to a base
// throughput (the workload's, which callers compute once: it depends only
// on the profile and the per-sample cost).
func (d *Device) throughput(base float64) float64 {
	t := base * d.FreqFactor
	if d.bigOffline {
		t *= d.BigOffFactor
	}
	return t
}

// rampSeconds is the governor's frequency ramp time constant, clamped away
// from zero; callers resolve it once per run of advance calls.
func (d *Device) rampSeconds() float64 { return math.Max(d.RampSeconds, 1e-3) }

// advance integrates the governor and thermal model for dt seconds under
// the given utilization, accumulating energy; ramp is rampSeconds(). It
// is the device simulator's innermost loop (one call per thermalStep of
// simulated time), so the trace emission below must stay allocation-free.
//
// fedlint:hotpath
func (d *Device) advance(dt, ramp, util float64, loaded bool) {
	// Governor: exponential approach to target frequency.
	target := idleFreqFactor
	throttled := false
	if loaded {
		target = 1.0
		if d.TempC > d.SoftTripC {
			target = d.ThrottleFactor
			throttled = true
		}
	}
	if throttled != d.throttled {
		d.throttled = throttled
		d.Throttles++
		flag := trace.ThrottleRelease
		if throttled {
			flag = trace.ThrottleEngage
		}
		d.Tracer.Emit(trace.Event{
			Kind: trace.KindThrottle, Round: -1, Client: d.TraceID, Flag: flag,
			AtS: d.NowSeconds, TempC: d.TempC, FreqGHz: d.effectiveFreqGHz(),
		})
	}
	alpha := 1 - math.Exp(-dt/ramp)
	d.FreqFactor += float64((target - d.FreqFactor) * alpha)

	// Power: dynamic power ≈ peak · util · f³ plus a small static floor.
	power := 0.15
	if loaded {
		f := d.FreqFactor
		if d.bigOffline {
			// Little cluster only: much lower power draw.
			power += float64(d.PeakWatts * util * f * f * f * 0.3)
		} else {
			power += float64(d.PeakWatts * util * f * f * f)
		}
	}
	// RC thermal update.
	dT := (power - float64(d.CoolingWPerC*(d.TempC-d.AmbientC))) / d.ThermalMassJPerC
	d.TempC += float64(dT * dt)
	// Hard trip with hysteresis.
	if d.HardTripC > 0 {
		if !d.bigOffline && d.TempC >= d.HardTripC {
			d.bigOffline = true
			d.Throttles++
			d.Tracer.Emit(trace.Event{
				Kind: trace.KindThrottle, Round: -1, Client: d.TraceID, Flag: trace.ThrottleTrip,
				AtS: d.NowSeconds, TempC: d.TempC, FreqGHz: d.effectiveFreqGHz(),
			})
		} else if d.bigOffline && d.TempC <= d.HardTripC-d.HysteresisC {
			d.bigOffline = false
			d.Throttles++
			d.Tracer.Emit(trace.Event{
				Kind: trace.KindThrottle, Round: -1, Client: d.TraceID, Flag: trace.ThrottleRecover,
				AtS: d.NowSeconds, TempC: d.TempC, FreqGHz: d.effectiveFreqGHz(),
			})
		}
	}
	d.EnergyJ += float64(power * dt)
	d.NowSeconds += dt
}

// BatchPoint records one mini-batch of a training trace (Fig 1).
type BatchPoint struct {
	Batch     int
	Seconds   float64 // batch duration
	TempC     float64
	FreqGHz   float64 // effective mean clock at batch end
	BigOnline bool
}

// effectiveFreqGHz reports the mean clock implied by the current governor
// state, for Fig 1(c)-style traces.
func (d *Device) effectiveFreqGHz() float64 {
	cores, sum := 0, 0.0
	for _, c := range d.Clusters {
		if d.bigOffline && c.Big {
			continue
		}
		cores += c.Cores
		sum += float64(float64(c.Cores) * c.MaxFreqGHz * d.FreqFactor)
	}
	if cores == 0 {
		return 0
	}
	return sum / float64(cores)
}

// TrainSamples simulates training n samples of the given architecture in
// mini-batches of batch size, advancing the device state. It returns the
// elapsed simulated seconds and the per-batch trace.
func (d *Device) TrainSamples(arch *nn.Arch, n, batch int) (float64, []BatchPoint) {
	if n <= 0 {
		return 0, nil
	}
	var l lane
	l.begin(d, arch.TrainFlopsPerSample(), n, batch)
	l.points = make([]BatchPoint, (n+l.batch-1)/l.batch)
	for !l.step() {
	}
	return l.elapsed(), l.points
}

// Train is TrainSamples without the per-batch trace: the same simulation,
// step for step, for callers that only want the elapsed seconds and the
// device's end state (the round engines, the profiler).
//
// fedlint:hotpath
func (d *Device) Train(arch *nn.Arch, n, batch int) float64 {
	if n <= 0 {
		return 0
	}
	var l lane
	l.begin(d, arch.TrainFlopsPerSample(), n, batch)
	for !l.step() {
	}
	return l.elapsed()
}

// TrainLockstep is Train for a cohort: devs[i] trains samples[i] samples
// and seconds[i] receives its elapsed simulated seconds — 0 when
// samples[i] ≤ 0, which leaves devs[i] untouched (it may then be nil).
// The phones run two at a time, one thermal step each in turn, and a lane
// whose phone finishes takes the next phone in slice order: each step is
// a serial divide → exp → cube → divide chain, and two independent chains
// overlap in the CPU where one cannot. Every phone executes exactly the
// steps, expressions and trace emissions of its own Train call, so the
// results are bit-identical to calling Train phone by phone. Devices must
// not share a Tracer: their events would interleave.
//
// fedlint:hotpath
func TrainLockstep(arch *nn.Arch, batch int, devs []*Device, samples []int, seconds []float64) {
	c := cohortRun{devs: devs, samples: samples, seconds: seconds, flops: arch.TrainFlopsPerSample(), batch: batch}
	var a, b lane
	okA, okB := c.fill(&a), c.fill(&b)
	for okA && okB {
		if a.step() {
			okA = c.finish(&a)
		}
		if b.step() {
			okB = c.finish(&b)
		}
	}
	for okA {
		if a.step() {
			okA = c.finish(&a)
		}
	}
	for okB {
		if b.step() {
			okB = c.finish(&b)
		}
	}
}

// cohortRun deals a TrainLockstep cohort out to its lanes in slice order.
type cohortRun struct {
	devs    []*Device
	samples []int
	seconds []float64
	next    int
	flops   float64
	batch   int
}

// fill starts l on the next phone with work, zeroing the seconds of the
// idle ones it passes; false when the cohort is used up.
func (c *cohortRun) fill(l *lane) bool {
	for c.next < len(c.devs) {
		i := c.next
		c.next++
		c.seconds[i] = 0
		if c.samples[i] > 0 {
			l.begin(c.devs[i], c.flops, c.samples[i], c.batch)
			l.slot = i
			return true
		}
	}
	return false
}

// finish records l's finished phone and refills l.
func (c *cohortRun) finish(l *lane) bool {
	c.seconds[l.slot] = l.elapsed()
	return c.fill(l)
}

// lane is one phone's Train in progress, resumable one thermal step at a
// time: the loop state (batch index, work left in the batch) lives here
// rather than on the stack, so TrainLockstep can interleave two phones.
// The per-run invariants — the workload's FLOPs per sample, utilization
// and base throughput, and the governor's clamped ramp — are resolved once
// in begin.
type lane struct {
	d                       *Device
	n, batch, b             int
	work                    float64 // FLOPs left in batch b
	flops, util, base, ramp float64
	start, bStart           float64
	points                  []BatchPoint // per-batch trace (TrainSamples), or nil
	slot                    int          // TrainLockstep: the phone's index
}

// begin starts a run of n > 0 samples in mini-batches of batch (≤ 0: 20)
// on d, for a workload of flops per sample.
func (l *lane) begin(d *Device, flops float64, n, batch int) {
	if batch <= 0 {
		batch = 20
	}
	util, base := d.workload(flops)
	*l = lane{
		d: d, n: n, batch: batch,
		work:  float64(min(batch, n)) * flops,
		flops: flops, util: util, base: base, ramp: d.rampSeconds(),
		start: d.NowSeconds, bStart: d.NowSeconds,
	}
}

// step integrates one thermal step — the rest of the current batch when
// it fits in one, else a full thermalStep of it — and reports whether the
// run is over.
//
// fedlint:hotpath
func (l *lane) step() bool {
	d := l.d
	tput := d.throughput(l.base)
	need := l.work / tput
	if need > thermalStep {
		l.work -= float64(tput * thermalStep)
		d.advance(thermalStep, l.ramp, l.util, true)
		return false
	}
	d.advance(need, l.ramp, l.util, true)
	if l.points != nil {
		l.points[l.b] = BatchPoint{
			Batch:     l.b,
			Seconds:   d.NowSeconds - l.bStart,
			TempC:     d.TempC,
			FreqGHz:   d.effectiveFreqGHz(),
			BigOnline: !d.bigOffline,
		}
	}
	l.b++
	if l.b*l.batch >= l.n {
		return true
	}
	l.work = float64(min(l.batch, l.n-l.b*l.batch)) * l.flops
	l.bStart = d.NowSeconds
	return false
}

// elapsed is the simulated time the run has taken so far.
func (l *lane) elapsed() float64 { return l.d.NowSeconds - l.start }

// EpochTime returns the simulated wall time for one full epoch over n
// samples starting from the device's current thermal state.
func (d *Device) EpochTime(arch *nn.Arch, n int) float64 {
	return d.Train(arch, n, 20)
}

// Idle advances the device for dt seconds without load (cooling down).
func (d *Device) Idle(dt float64) {
	ramp := d.rampSeconds()
	for dt > 0 {
		step := math.Min(thermalStep, dt)
		d.advance(step, ramp, 0, false)
		dt -= step
	}
}

// ColdEpochTime measures the epoch time from a cold start without
// perturbing the device: it snapshots state, measures, and restores. This
// is what offline profiling uses.
func (d *Device) ColdEpochTime(arch *nn.Arch, n int) float64 {
	saved := *d
	d.Reset()
	d.Tracer = nil // measurement probes must not pollute the trace
	t := d.EpochTime(arch, n)
	*d = saved
	return t
}

// State is the dynamic portion of a Device — everything Snapshot/Restore
// round-trips for checkpoint/resume of a multi-round run. The Profile is
// configuration, not state, and is reconstructed by the caller.
type State struct {
	TempC      float64 `json:"temp_c"`
	FreqFactor float64 `json:"freq_factor"`
	BigOffline bool    `json:"big_offline,omitempty"`
	NowSeconds float64 `json:"now_seconds"`
	EnergyJ    float64 `json:"energy_j"`
	Throttles  int     `json:"throttles,omitempty"`
	Throttled  bool    `json:"throttled,omitempty"`
}

// Snapshot captures the device's dynamic state. Restoring it onto a
// device with the same Profile reproduces the original bit-for-bit: the
// thermal/governor integration is a pure function of (Profile, State,
// workload).
func (d *Device) Snapshot() State {
	return State{
		TempC:      d.TempC,
		FreqFactor: d.FreqFactor,
		BigOffline: d.bigOffline,
		NowSeconds: d.NowSeconds,
		EnergyJ:    d.EnergyJ,
		Throttles:  d.Throttles,
		Throttled:  d.throttled,
	}
}

// Restore overwrites the device's dynamic state with a Snapshot. The
// Tracer/TraceID wiring is left untouched (it belongs to the session,
// not the state).
func (d *Device) Restore(s State) {
	d.TempC = s.TempC
	d.FreqFactor = s.FreqFactor
	d.bigOffline = s.BigOffline
	d.NowSeconds = s.NowSeconds
	d.EnergyJ = s.EnergyJ
	d.Throttles = s.Throttles
	d.throttled = s.Throttled
}

// DrainBattery empties the battery account: the device's consumed energy
// jumps to its full battery capacity, so BatteryRemaining reports 0 and
// CapacityShards 0 — battery death mid-round (internal/fault). Devices
// without a battery model (BatteryJ ≤ 0) are unaffected.
func (d *Device) DrainBattery() {
	if d.BatteryJ > 0 && d.EnergyJ < d.BatteryJ {
		d.EnergyJ = d.BatteryJ
	}
}

// BatteryRemaining returns the fraction of battery energy left, clamped to
// [0, 1].
func (d *Device) BatteryRemaining() float64 {
	if d.BatteryJ <= 0 {
		return 1
	}
	r := 1 - d.EnergyJ/d.BatteryJ
	return math.Max(0, math.Min(1, r))
}

// EnergyPerSample estimates the energy (J) to train one sample of the
// architecture at full frequency from the device's current thermal state —
// a first-order estimate (power × time) for capacity planning.
func (d *Device) EnergyPerSample(arch *nn.Arch) float64 {
	flops := arch.TrainFlopsPerSample()
	util, base := d.workload(flops)
	tput := d.throughput(base)
	if d.FreqFactor < 1 {
		// Planning assumes the governor ramps to full clock.
		tput = base
		if d.bigOffline {
			tput *= d.BigOffFactor
		}
	}
	seconds := flops / tput
	power := 0.15 + float64(d.PeakWatts*util)
	return power * seconds
}

// CapacityShards implements the paper's battery-quantified capacity C_j
// (§VI-A): the number of shards of the given architecture the device can
// train per round while spending at most budgetFraction of its REMAINING
// battery energy per round. Returns at least 0; a dead battery yields 0.
func (d *Device) CapacityShards(arch *nn.Arch, shardSize int, budgetFraction float64) int {
	if shardSize <= 0 || budgetFraction <= 0 {
		return 0
	}
	remaining := d.BatteryJ - d.EnergyJ
	if d.BatteryJ <= 0 {
		// No battery model: effectively unconstrained.
		return math.MaxInt32
	}
	if remaining <= 0 {
		return 0
	}
	perShard := d.EnergyPerSample(arch) * float64(shardSize)
	if perShard <= 0 {
		return math.MaxInt32
	}
	return int(remaining * budgetFraction / perShard)
}
