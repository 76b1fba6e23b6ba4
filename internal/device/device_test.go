package device

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fedsched/internal/nn"
)

var (
	lenet = nn.LeNet(1, 28, 28, 10)
	vgg6  = nn.VGG6(1, 28, 28, 10)
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{"Nexus6", "Nexus6P", "Mate10", "Pixel2"} {
		p, ok := cat[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if p.Model != name {
			t.Fatalf("model %q under key %q", p.Model, name)
		}
		if p.TputSmall <= 0 || p.TputLarge <= 0 {
			t.Fatalf("%s has non-positive throughput", name)
		}
	}
}

func TestTestbedSizes(t *testing.T) {
	for id, want := range map[int]int{1: 3, 2: 6, 3: 10} {
		if got := len(Testbed(id)); got != want {
			t.Fatalf("testbed %d has %d devices, want %d", id, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown testbed")
		}
	}()
	Testbed(4)
}

func TestMeanFreq(t *testing.T) {
	p := Nexus6P() // 4×1.55 + 4×2.0 → mean 1.775
	if got := p.MeanFreqGHz(); got < 1.77 || got > 1.78 {
		t.Fatalf("mean freq %v", got)
	}
	if (Profile{}).MeanFreqGHz() != 0 {
		t.Fatal("empty profile mean freq should be 0")
	}
}

// Table II reproduction: simulated epoch times must stay within 15% of the
// paper's measurements for every (device, model, data size) cell.
func TestTable2Calibration(t *testing.T) {
	targets := map[string]struct{ l3, l6, v3, v6 float64 }{
		"Nexus6":  {31, 62, 495, 1021},
		"Nexus6P": {69, 220, 540, 1134},
		"Mate10":  {45, 89, 359, 712},
		"Pixel2":  {25, 51, 339, 661},
	}
	check := func(name string, got, want float64) {
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: simulated %.1f s vs paper %.0f s (>15%% off)", name, got, want)
		}
	}
	for name, tg := range targets {
		d := New(Catalog()[name])
		check(name+"/LeNet/3K", d.ColdEpochTime(lenet, 3000), tg.l3)
		check(name+"/LeNet/6K", d.ColdEpochTime(lenet, 6000), tg.l6)
		check(name+"/VGG6/3K", d.ColdEpochTime(vgg6, 3000), tg.v3)
		check(name+"/VGG6/6K", d.ColdEpochTime(vgg6, 6000), tg.v6)
	}
}

func TestEpochTimeMonotoneInData(t *testing.T) {
	// Property 1 of the paper: T(D) is non-decreasing in D.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"Nexus6", "Nexus6P", "Mate10", "Pixel2"}
		p := Catalog()[names[rng.Intn(len(names))]]
		d := New(p)
		prev := 0.0
		for n := 200; n <= 4200; n += 800 {
			t := d.ColdEpochTime(lenet, n)
			if t < prev {
				return false
			}
			prev = t
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestNexus6PSuperlinear(t *testing.T) {
	d := New(Nexus6P())
	t3 := d.ColdEpochTime(lenet, 3000)
	t6 := d.ColdEpochTime(lenet, 6000)
	if t6 < 2.5*t3 {
		t.Fatalf("Nexus6P thermal trip missing: 3K=%.0f s, 6K=%.0f s (ratio %.2f, want >2.5)", t3, t6, t6/t3)
	}
	// And the other devices stay near-linear.
	for _, p := range []Profile{Nexus6(), Mate10(), Pixel2()} {
		d := New(p)
		t3 := d.ColdEpochTime(lenet, 3000)
		t6 := d.ColdEpochTime(lenet, 6000)
		if r := t6 / t3; r < 1.8 || r > 2.3 {
			t.Fatalf("%s LeNet scaling ratio %.2f, want ≈2", p.Model, r)
		}
	}
}

func TestTraceShapesAndThermal(t *testing.T) {
	d := New(Nexus6P())
	elapsed, trace := d.TrainSamples(lenet, 2000, 20)
	if len(trace) != 100 {
		t.Fatalf("trace has %d batches, want 100", len(trace))
	}
	if elapsed <= 0 {
		t.Fatal("non-positive elapsed time")
	}
	sum := 0.0
	for _, pt := range trace {
		sum += pt.Seconds
		if pt.TempC < d.AmbientC-1 {
			t.Fatalf("temperature below ambient: %v", pt.TempC)
		}
		if pt.FreqGHz <= 0 {
			t.Fatal("non-positive frequency in trace")
		}
	}
	if diff := sum - elapsed; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("trace durations sum %.3f != elapsed %.3f", sum, elapsed)
	}
	// Temperature must have risen under sustained load.
	if trace[len(trace)-1].TempC < d.AmbientC+5 {
		t.Fatalf("device barely heated: %.1f °C", trace[len(trace)-1].TempC)
	}
}

func TestBigClusterTripsAndRecovers(t *testing.T) {
	d := New(Nexus6P())
	_, trace := d.TrainSamples(lenet, 6000, 20)
	tripped := false
	for _, pt := range trace {
		if !pt.BigOnline {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("Nexus6P big cluster never tripped on a 6K-sample epoch")
	}
	// Long idle cools the device and brings the big cluster back.
	d.Idle(600)
	if d.TempC > d.AmbientC+5 {
		t.Fatalf("device did not cool while idle: %.1f °C", d.TempC)
	}
	_, trace2 := d.TrainSamples(lenet, 100, 20)
	if !trace2[0].BigOnline {
		t.Fatal("big cluster still offline after long cool-down")
	}
}

func TestResetRestoresColdState(t *testing.T) {
	d := New(Pixel2())
	d.TrainSamples(vgg6, 500, 20)
	if d.EnergyJ <= 0 || d.NowSeconds <= 0 {
		t.Fatal("no energy/time recorded")
	}
	d.Reset()
	if d.TempC != d.AmbientC || d.EnergyJ != 0 || d.NowSeconds != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestColdEpochTimePreservesState(t *testing.T) {
	d := New(Mate10())
	d.TrainSamples(lenet, 1000, 20)
	before := *d
	_ = d.ColdEpochTime(lenet, 2000)
	if d.TempC != before.TempC || d.NowSeconds != before.NowSeconds || d.EnergyJ != before.EnergyJ {
		t.Fatal("ColdEpochTime perturbed device state")
	}
}

func TestColdEpochDeterministic(t *testing.T) {
	a := New(Nexus6()).ColdEpochTime(lenet, 3000)
	b := New(Nexus6()).ColdEpochTime(lenet, 3000)
	if a != b {
		t.Fatalf("nondeterministic epoch time: %v vs %v", a, b)
	}
}

func TestWarmSlowerThanCold(t *testing.T) {
	// A thermally saturated device must not be faster than a cold one.
	d := New(Nexus6P())
	cold := d.ColdEpochTime(lenet, 3000)
	d.Reset()
	d.TrainSamples(lenet, 6000, 20) // heat it up
	warm := d.EpochTime(lenet, 3000)
	if warm < cold {
		t.Fatalf("warm epoch (%.0f s) faster than cold (%.0f s)", warm, cold)
	}
}

func TestEnergyAccountingAndBattery(t *testing.T) {
	d := New(Pixel2())
	if d.BatteryRemaining() != 1 {
		t.Fatal("fresh battery should be full")
	}
	d.TrainSamples(lenet, 3000, 20)
	e1 := d.EnergyJ
	if e1 <= 0 {
		t.Fatal("no energy consumed")
	}
	d.TrainSamples(lenet, 3000, 20)
	if d.EnergyJ <= e1 {
		t.Fatal("energy must accumulate")
	}
	if r := d.BatteryRemaining(); r >= 1 || r <= 0 {
		t.Fatalf("battery remaining %v", r)
	}
}

func TestZeroAndTinyWork(t *testing.T) {
	d := New(Nexus6())
	el, tr := d.TrainSamples(lenet, 0, 20)
	if el != 0 || tr != nil {
		t.Fatal("zero samples should be free")
	}
	el, tr = d.TrainSamples(lenet, 1, 0) // batch defaults to 20
	if el <= 0 || len(tr) != 1 {
		t.Fatalf("tiny work: elapsed %v, %d batches", el, len(tr))
	}
}

func TestObservation1OldBeatsNewOnLeNet(t *testing.T) {
	// Paper Observation 1: Nexus 6 (2014) outruns Mate 10 on LeNet, but
	// Mate 10 wins on VGG6.
	n6 := New(Nexus6())
	m10 := New(Mate10())
	if n6.ColdEpochTime(lenet, 3000) >= m10.ColdEpochTime(lenet, 3000) {
		t.Fatal("Nexus6 should beat Mate10 on LeNet")
	}
	if m10.ColdEpochTime(vgg6, 3000) >= n6.ColdEpochTime(vgg6, 3000) {
		t.Fatal("Mate10 should beat Nexus6 on VGG6")
	}
}

func BenchmarkEpochSimulation(b *testing.B) {
	d := New(Nexus6P())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		d.EpochTime(lenet, 3000)
	}
}

func TestEnergyPerSamplePositiveAndOrdered(t *testing.T) {
	// Heavier models must cost more energy per sample on every device.
	for name, p := range Catalog() {
		d := New(p)
		le := d.EnergyPerSample(lenet)
		vg := d.EnergyPerSample(vgg6)
		if le <= 0 || vg <= 0 {
			t.Fatalf("%s: non-positive energy estimate", name)
		}
		if vg <= le {
			t.Fatalf("%s: VGG6 (%.2f J) not costlier than LeNet (%.2f J)", name, vg, le)
		}
	}
}

func TestCapacityShardsBatteryBudget(t *testing.T) {
	d := New(Pixel2())
	full := d.CapacityShards(lenet, 100, 1.0)
	if full <= 0 {
		t.Fatal("fresh battery should afford shards")
	}
	half := d.CapacityShards(lenet, 100, 0.5)
	if half >= full {
		t.Fatalf("smaller budget must shrink capacity: %d vs %d", half, full)
	}
	// Capacity shrinks as the battery drains.
	d.TrainSamples(lenet, 20000, 20)
	drained := d.CapacityShards(lenet, 100, 1.0)
	if drained >= full {
		t.Fatalf("capacity did not shrink after drain: %d vs %d", drained, full)
	}
	// Degenerate arguments.
	if d.CapacityShards(lenet, 0, 1) != 0 || d.CapacityShards(lenet, 100, 0) != 0 {
		t.Fatal("degenerate arguments must yield zero capacity")
	}
	// Energy-model sanity: the estimate roughly matches a simulated epoch.
	fresh := New(Pixel2())
	est := fresh.EnergyPerSample(lenet) * 3000
	fresh.TrainSamples(lenet, 3000, 20)
	if est < fresh.EnergyJ*0.5 || est > fresh.EnergyJ*2 {
		t.Fatalf("energy estimate %.0f J vs simulated %.0f J — off by >2x", est, fresh.EnergyJ)
	}
}

func TestCapacityShardsNoBatteryModel(t *testing.T) {
	p := Pixel2()
	p.BatteryJ = 0
	d := New(p)
	if d.CapacityShards(lenet, 100, 1) < 1<<30 {
		t.Fatal("missing battery model should be unconstrained")
	}
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	// Warm a device into a non-trivial state (throttled, energy spent),
	// snapshot, keep training, then restore onto a fresh device and
	// verify the continuation replays bit-for-bit.
	a := New(Nexus6P())
	a.TrainSamples(lenet, 6000, 20)
	snap := a.Snapshot()

	cont, _ := a.TrainSamples(lenet, 3000, 20)
	after := a.Snapshot()

	b := New(Nexus6P())
	b.Restore(snap)
	if got := b.Snapshot(); got != snap {
		t.Fatalf("Restore round-trip %+v, want %+v", got, snap)
	}
	cont2, _ := b.TrainSamples(lenet, 3000, 20)
	if cont2 != cont {
		t.Fatalf("restored continuation took %v s, original %v s", cont2, cont)
	}
	if got := b.Snapshot(); got != after {
		t.Fatalf("restored end state %+v, want %+v", got, after)
	}
}

func TestDrainBattery(t *testing.T) {
	d := New(Pixel2())
	d.TrainSamples(lenet, 1000, 20)
	if d.BatteryRemaining() <= 0 {
		t.Fatal("fixture battery already empty")
	}
	d.DrainBattery()
	if got := d.BatteryRemaining(); got != 0 {
		t.Fatalf("BatteryRemaining after drain = %v, want 0", got)
	}
	if d.CapacityShards(lenet, 100, 1) != 0 {
		t.Fatal("drained battery should afford no shards")
	}
	// Idempotent, and a no-op without a battery model.
	e := d.EnergyJ
	d.DrainBattery()
	if d.EnergyJ != e {
		t.Fatal("second drain changed the energy account")
	}
	p := Pixel2()
	p.BatteryJ = 0
	n := New(p)
	n.TrainSamples(lenet, 100, 20)
	e = n.EnergyJ
	n.DrainBattery()
	if n.EnergyJ != e {
		t.Fatal("drain changed a device without a battery model")
	}
}

// referenceTrainSamples is TrainSamples as it stood before the invariants
// were hoisted: baseThroughput (three log10s and a clamp) re-derived on
// every thermal step, every batch recorded. The hoisted loop must
// reproduce it bit for bit.
func referenceTrainSamples(d *Device, arch *nn.Arch, n, batch int) (float64, []BatchPoint) {
	flops := arch.TrainFlopsPerSample()
	util := d.utilization(flops)
	start := d.NowSeconds
	batches := (n + batch - 1) / batch
	points := make([]BatchPoint, batches)
	for b := 0; b < batches; b++ {
		size := batch
		if rem := n - b*batch; rem < size {
			size = rem
		}
		work := float64(size) * flops
		bStart := d.NowSeconds
		for {
			tput := d.baseThroughput(flops) * d.FreqFactor
			if d.bigOffline {
				tput *= d.BigOffFactor
			}
			need := work / tput
			if need <= thermalStep {
				d.advance(need, util, true)
				break
			}
			work -= tput * thermalStep
			d.advance(thermalStep, util, true)
		}
		points[b] = BatchPoint{
			Batch:     b,
			Seconds:   d.NowSeconds - bStart,
			TempC:     d.TempC,
			FreqGHz:   d.effectiveFreqGHz(),
			BigOnline: !d.bigOffline,
		}
	}
	return d.NowSeconds - start, points
}

func TestTrainMatchesUnhoistedReference(t *testing.T) {
	// Two back-to-back epochs per case, the second from a hot, throttled
	// state; sizes with a ragged last batch; VGG6 on the Nexus 6P walks
	// through the big-cluster hard trip.
	tripped := false
	for _, p := range []Profile{Nexus6(), Nexus6P(), Mate10(), Pixel2()} {
		for _, arch := range []*nn.Arch{lenet, vgg6} {
			for _, c := range []struct{ n, batch int }{{3000, 20}, {1234, 32}, {7, 20}} {
				ref, rec, plain := New(p), New(p), New(p)
				for epoch := 0; epoch < 2; epoch++ {
					wantS, wantPts := referenceTrainSamples(ref, arch, c.n, c.batch)
					gotS, gotPts := rec.TrainSamples(arch, c.n, c.batch)
					plainS := plain.Train(arch, c.n, c.batch)
					name := fmt.Sprintf("%s/%s/n=%d/epoch=%d", p.Model, arch.Name, c.n, epoch)
					if gotS != wantS || plainS != wantS {
						t.Fatalf("%s: elapsed %v (recording) / %v (plain), reference %v", name, gotS, plainS, wantS)
					}
					if rec.Snapshot() != ref.Snapshot() || plain.Snapshot() != ref.Snapshot() {
						t.Fatalf("%s: end state differs:\nrecording %+v\nplain     %+v\nreference %+v",
							name, rec.Snapshot(), plain.Snapshot(), ref.Snapshot())
					}
					if len(gotPts) != len(wantPts) {
						t.Fatalf("%s: %d batch points, reference %d", name, len(gotPts), len(wantPts))
					}
					for b := range wantPts {
						if gotPts[b] != wantPts[b] {
							t.Fatalf("%s: batch %d: %+v, reference %+v", name, b, gotPts[b], wantPts[b])
						}
						tripped = tripped || !wantPts[b].BigOnline
					}
				}
			}
		}
	}
	if !tripped {
		t.Fatal("no case took the big-cluster-offline path; the Nexus 6P VGG6 epoch should")
	}
}
