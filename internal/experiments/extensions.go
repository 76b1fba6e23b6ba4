package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fl"
	"fedsched/internal/privacy"
	"fedsched/internal/profile"
	"fedsched/internal/sched"
)

// Extension experiments beyond the paper's figures: ablations and the
// optional directions its text discusses (energy on battery-powered
// devices, asynchronous aggregation, secure aggregation, decentralized
// topologies, differentially-private class reporting, shard granularity).

func init() {
	register("ext-energy", ExtEnergy)
	register("ext-async", ExtAsync)
	register("ext-secagg", ExtSecAgg)
	register("ext-gossip", ExtGossip)
	register("ext-dp", ExtDP)
	register("ext-granularity", ExtGranularity)
	register("ext-dropout", ExtDropout)
	register("ext-adaptive", ExtAdaptive)
}

// ExtEnergy measures per-round energy and battery drain per scheduler on
// the straggler testbed — the "battery-powered" dimension of the title
// that the paper's evaluation leaves implicit.
func ExtEnergy(o Options) (*Report, error) {
	rep := &Report{ID: "ext-energy", Title: "Energy per round and battery drain by scheduler (extension)"}
	ds := mnistBench()
	arch := paperArch("LeNet", ds)
	tb := fedsched.NewTestbed(2)
	req, err := tb.Request(arch, ds.TotalSamples)
	if err != nil {
		return nil, err
	}
	req.Trace = o.Trace
	tbl := &Table{
		Title:   "Testbed II, MNIST+LeNet, 3 rounds of 60K samples",
		Columns: []string{"scheduler", "mean round [s]", "total energy [kJ]", "worst battery drain %", "Nexus6P energy [kJ]"},
	}
	for _, s := range schedulers() {
		rng := rand.New(rand.NewSource(o.Seed))
		asg, err := s.Schedule(req, rng)
		if err != nil {
			return nil, err
		}
		mean, devs, err := meanSpan(tb, arch, asg.Samples(fedsched.ShardSize), 3, o.Trace)
		if err != nil {
			return nil, err
		}
		totalE, worstDrain, stragglerE := 0.0, 0.0, 0.0
		for _, d := range devs {
			totalE += d.EnergyJ
			if drain := 1 - d.BatteryRemaining(); drain > worstDrain {
				worstDrain = drain
			}
			if d.Model == "Nexus6P" {
				stragglerE += d.EnergyJ
			}
		}
		tbl.AddRow(s.Name(), mean, totalE/1000, 100*worstDrain, stragglerE/1000)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: Fed-LBAP starves the thermally-limited Nexus6P devices, cutting both round time and the stragglers' energy burn.")
	return rep, nil
}

// ExtAsync compares synchronous FedAvg with staleness-weighted
// asynchronous aggregation (paper §II-B's rejected alternative) for equal
// total local epochs.
func ExtAsync(o Options) (*Report, error) {
	rep := &Report{ID: "ext-async", Title: "Synchronous vs asynchronous aggregation (extension; paper §II-B)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	users := 4
	train, test := data.TrainTest(data.SMNISTConfig(0, o.Seed+81), trainN, testN)
	mkClients := func() ([]*fl.Client, error) {
		part := data.IIDEqual(train, users, rand.New(rand.NewSource(o.Seed)))
		profiles := []device.Profile{device.Pixel2(), device.Nexus6(), device.Nexus6P(), device.Mate10()}
		devs := make([]*device.Device, users)
		for i := range devs {
			devs[i] = device.New(profiles[i%len(profiles)])
		}
		return clientsOn(devs, train, part)
	}
	cfg := flConfig(o, smallArch("LeNet", train.C), rounds, o.Seed)
	syncClients, err := mkClients()
	if err != nil {
		return nil, err
	}
	syncHist, err := fl.Run(cfg, syncClients, test)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title:   fmt.Sprintf("%d users, %d total local epochs each mode", users, rounds*users),
		Columns: []string{"mode", "virtual time [s]", "updates", "mean staleness", "accuracy"},
	}
	tbl.AddRow("sync (FedAvg)", syncHist.TotalSeconds, rounds*users, 0.0, syncHist.FinalAccuracy)
	for _, pow := range []float64{0, 1} {
		aClients, err := mkClients()
		if err != nil {
			return nil, err
		}
		aHist, err := fl.RunAsync(fl.AsyncConfig{
			Config: cfg, MaxUpdates: rounds * users, MixRate: 0.4, StalenessPower: pow,
		}, aClients, test)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("async (staleness^%.0f)", pow),
			aHist.VirtualSeconds, aHist.Updates, aHist.MeanStaleness, aHist.FinalAccuracy)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: async finishes the same number of local epochs in less virtual time (no barrier) but its updates are stale; sync matches or beats its accuracy — the paper's rationale for synchronous aggregation.")
	return rep, nil
}

// ExtSecAgg measures the cost of pairwise-mask secure aggregation and
// verifies it does not change learning outcomes.
func ExtSecAgg(o Options) (*Report, error) {
	rep := &Report{ID: "ext-secagg", Title: "Secure aggregation overhead and fidelity (extension; paper §IV-A)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	train, test := data.TrainTest(data.SMNISTConfig(0, o.Seed+83), trainN, testN)
	tbl := &Table{
		Title:   fmt.Sprintf("5 users, %d rounds, reduced-scale LeNet", rounds),
		Columns: []string{"aggregation", "accuracy", "final loss", "wall time [ms]"},
	}
	for _, secure := range []bool{false, true} {
		part := data.IIDEqual(train, 5, rand.New(rand.NewSource(o.Seed)))
		clients, err := clientsOn(nil, train, part)
		if err != nil {
			return nil, err
		}
		cfg := flConfig(o, smallArch("LeNet", train.C), rounds, o.Seed)
		cfg.SecureAgg = secure
		start := time.Now()
		hist, err := fl.Run(cfg, clients, test)
		if err != nil {
			return nil, err
		}
		name := "plaintext"
		if secure {
			name = "pairwise masks"
		}
		tbl.AddRow(name, hist.FinalAccuracy, hist.Rounds[len(hist.Rounds)-1].TrainLoss,
			float64(time.Since(start).Milliseconds()))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: identical accuracy (fixed-point quantization ≈2⁻²⁴ per weight) at a modest masking overhead.")
	return rep, nil
}

// ExtGossip compares server-based FedAvg with the decentralized gossip
// topology the paper's system model claims amenability to (§IV-A).
func ExtGossip(o Options) (*Report, error) {
	rep := &Report{ID: "ext-gossip", Title: "Parameter server vs decentralized gossip (extension; paper §IV-A)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	users := 4
	train, test := data.TrainTest(data.SMNISTConfig(0, o.Seed+85), trainN, testN)
	cfg := flConfig(o, smallArch("LeNet", train.C), rounds, o.Seed)
	mkClients := func() ([]*fl.Client, error) {
		return clientsOn(nil, train, data.IIDEqual(train, users, rand.New(rand.NewSource(o.Seed))))
	}
	tbl := &Table{
		Title:   fmt.Sprintf("%d users, %d rounds", users, rounds),
		Columns: []string{"mode", "accuracy (mean)", "accuracy (best)", "consensus gap"},
	}
	fedClients, err := mkClients()
	if err != nil {
		return nil, err
	}
	fedHist, err := fl.Run(cfg, fedClients, test)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("FedAvg (server)", fedHist.FinalAccuracy, fedHist.FinalAccuracy, 0.0)
	for _, topo := range []fl.Topology{fl.Ring, fl.RandomPairs} {
		gClients, err := mkClients()
		if err != nil {
			return nil, err
		}
		gHist, err := fl.RunGossip(fl.GossipConfig{Config: cfg, Topology: topo}, gClients, test)
		if err != nil {
			return nil, err
		}
		tbl.AddRow("gossip/"+topo.String(), gHist.MeanAccuracy, gHist.BestAccuracy, gHist.Disagreement)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: gossip approaches FedAvg accuracy on IID data while keeping a non-zero consensus gap; it removes the parameter server at the cost of slower mixing.")
	return rep, nil
}

// ExtDP measures how differentially-private class reporting degrades
// Fed-MinAvg's schedules (paper §IV-A / §VI-A privacy discussion).
func ExtDP(o Options) (*Report, error) {
	rep := &Report{ID: "ext-dp", Title: "Fed-MinAvg under differentially-private class reporting (extension)"}
	ds := cifarBench()
	arch := paperArch("LeNet", ds)
	tb := fedsched.NewTestbed(2)
	sc := paperScenarios()[1] // S(II)
	tbl := &Table{
		Title:   "S(II), α=500, β=2; schedules from privatized class reports (10 trials/ε)",
		Columns: []string{"epsilon", "flip prob", "mean makespan [s]", "mean participants", "coverage (of 10)"},
	}
	// The schedule is scored under the TRUE cost model; sched.Makespan
	// reads only costs.
	costs, err := tb.Request(arch, ds.TotalSamples)
	if err != nil {
		return nil, err
	}
	for _, eps := range []float64{0.5, 1, 2, 4, 8} {
		rep2, err := privacy.NewReporter(eps, 10)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + int64(eps*10)))
		const trials = 10
		makespan, participants, coverage := 0.0, 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			reported := make([][]int, len(sc.ClassSets))
			for j, cs := range sc.ClassSets {
				reported[j] = rep2.EstimateSet(rep2.Randomize(cs, rng))
			}
			asg, err := tb.ScheduleNonIID(arch, ds.TotalSamples, reported, 10, 500, 2)
			if err != nil {
				// Fully erased class sets can make scheduling impossible;
				// count it as a degenerate trial.
				continue
			}
			makespan += sched.Makespan(costs, asg)
			participants += float64(asg.Participants())
			coverage += float64(covered(asg, sc.ClassSets))
		}
		tbl.AddRow(eps, rep2.FlipProbability(), makespan/trials, participants/trials, coverage/trials)
	}
	// Truthful baseline.
	asg, err := tb.ScheduleNonIID(arch, ds.TotalSamples, sc.ClassSets, 10, 500, 2)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("truthful", 0.0, asg.PredictedMakespan, asg.Participants(), covered(asg, sc.ClassSets))
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: schedules converge to the truthful one as ε grows; small ε inflates perceived class counts (randomized response reports ~half the bits set), flattening the accuracy cost.")
	return rep, nil
}

// ExtGranularity is the shard-size ablation: the paper fixes shards at 100
// samples (§IV-A); finer shards give Fed-LBAP more freedom at higher
// scheduling cost.
func ExtGranularity(o Options) (*Report, error) {
	rep := &Report{ID: "ext-granularity", Title: "Shard-size ablation for Fed-LBAP (extension; paper §IV-A fixes 100)"}
	ds := mnistBench()
	arch := paperArch("LeNet", ds)
	tb := fedsched.NewTestbed(2)
	tbl := &Table{
		Title:   "Testbed II, MNIST+LeNet, 60K samples",
		Columns: []string{"shard size", "shards", "predicted makespan [s]", "simulated round [s]", "schedule time [ms]"},
	}
	for _, shard := range []int{25, 50, 100, 200, 500, 1000} {
		req, err := tb.Request(arch, ds.TotalSamples)
		if err != nil {
			return nil, err
		}
		req.ShardSize, req.TotalShards = shard, ds.TotalSamples/shard
		start := time.Now()
		asg, err := sched.FedLBAP{}.Schedule(req, nil)
		if err != nil {
			return nil, err
		}
		schedMS := float64(time.Since(start).Microseconds()) / 1000
		span, _, err := meanSpan(tb, arch, asg.Samples(shard), 1, nil)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(shard, req.TotalShards, asg.PredictedMakespan, span, schedMS)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: makespan is nearly flat down to ~100-sample shards (the paper's choice) — coarser shards lose a little balance, finer ones only cost scheduling time.")
	return rep, nil
}

// ExtDropout contrasts three straggler strategies on Testbed II: waiting
// for everyone (Equal), the hard per-round deadline dropout of Bonawitz et
// al. [5] (which discards straggler updates — the paper's §II-B critique),
// and Fed-LBAP's load unbalancing (which keeps every sample in play).
// Round times come from the paper-scale device simulator; accuracy from a
// reduced-scale run where dropout removes the stragglers' data from
// aggregation.
func ExtDropout(o Options) (*Report, error) {
	rep := &Report{ID: "ext-dropout", Title: "Straggler strategies: wait vs hard dropout vs Fed-LBAP (extension; paper §II-B)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	ds := cifarBench()
	train, test := data.TrainTest(ds.Cfg(0, o.Seed+95), trainN, testN)
	tb := fedsched.NewTestbed(2)
	arch := paperArch("LeNet", ds)
	users := len(tb.Profiles)
	rng := rand.New(rand.NewSource(o.Seed))

	// Paper-scale time for the three strategies.
	req, err := tb.Request(arch, ds.TotalSamples)
	if err != nil {
		return nil, err
	}
	equalAsg, err := sched.Equal{}.Schedule(req, nil)
	if err != nil {
		return nil, err
	}
	lbapAsg, err := sched.FedLBAP{}.Schedule(req, nil)
	if err != nil {
		return nil, err
	}
	waitSpan, _, err := meanSpan(tb, arch, equalAsg.Samples(fedsched.ShardSize), 3, nil)
	if err != nil {
		return nil, err
	}
	// For the deadline strategy the round ends when the last NON-straggler
	// finishes; emulate by zeroing the stragglers' samples in the time
	// simulation (their updates are discarded anyway).
	dropSamples := equalAsg.Samples(fedsched.ShardSize)
	for i, p := range tb.Profiles {
		if p.Model == "Nexus6P" {
			dropSamples[i] = 0
		}
	}
	dropSpan, _, err := meanSpan(tb, arch, dropSamples, 3, nil)
	if err != nil {
		return nil, err
	}
	lbapSpan, _, err := meanSpan(tb, arch, lbapAsg.Samples(fedsched.ShardSize), 3, nil)
	if err != nil {
		return nil, err
	}

	// Reduced-scale accuracy: the dropout strategy trains on the Equal
	// partition with the stragglers' share discarded every round.
	accuracyOf := func(sizes []int, skipModel string) (float64, error) {
		before := 0
		for _, v := range sizes {
			before += v
		}
		s := append([]int(nil), sizes...)
		for i := range s {
			if skipModel != "" && tb.Profiles[i].Model == skipModel {
				s[i] = 0
			}
		}
		used := 0
		for _, v := range s {
			used += v
		}
		if used == 0 || before == 0 {
			return 0, nil
		}
		// Discarded data is genuinely lost: the reduced training set
		// shrinks by the same fraction the strategy drops.
		target := train.Len() * used / before
		part := data.IIDSizes(train, scaleSizes(s, target), rng)
		hist, err := fedAvg(o, smallArch("LeNet", train.C), train, test, part, rounds)
		if err != nil {
			return 0, err
		}
		return hist.FinalAccuracy, nil
	}
	equalSizes := make([]int, users)
	for i := range equalSizes {
		equalSizes[i] = ds.TotalSamples / users
	}
	waitAcc, err := accuracyOf(equalSizes, "")
	if err != nil {
		return nil, err
	}
	dropAcc, err := accuracyOf(equalSizes, "Nexus6P")
	if err != nil {
		return nil, err
	}
	lbapAcc, err := accuracyOf(lbapAsg.Samples(fedsched.ShardSize), "")
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		Title:   fmt.Sprintf("Testbed II, CIFAR10+LeNet; time at paper scale, accuracy over %d reduced rounds", rounds),
		Columns: []string{"strategy", "mean round [s]", "accuracy", "data used %"},
	}
	tbl.AddRow("Equal (wait for all)", waitSpan, waitAcc, 100.0)
	tbl.AddRow("Equal + deadline [5]", dropSpan, dropAcc, 100.0*float64(users-2)/float64(users))
	tbl.AddRow("Fed-LBAP (load unbalance)", lbapSpan, lbapAcc, 100.0)
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: hard dropout is fast because it silently trains on 2/3 of the data and pays for it in accuracy; Fed-LBAP reschedules the stragglers' share onto healthy devices — near-dropout speed with no data loss (the paper's §II-B argument).")
	return rep, nil
}

// ExtAdaptive demonstrates the adaptive rescheduling controller: a device
// degrades mid-run (hot environment → persistent throttling) and the
// controller re-profiles online and recomputes the Fed-LBAP schedule,
// while a static schedule keeps overloading the degraded phone.
func ExtAdaptive(o Options) (*Report, error) {
	rep := &Report{ID: "ext-adaptive", Title: "Adaptive rescheduling under mid-run device degradation (extension)"}
	ds := mnistBench()
	arch := paperArch("LeNet", ds)
	tb := fedsched.NewTestbed(1)
	base, err := profile.BuildTestbed(tb.Profiles, ds.C, ds.H, ds.W, 10)
	if err != nil {
		return nil, err
	}
	run := func(threshold float64) (*adaptiveResult, error) {
		devs, links := tb.Devices()
		cfg := adaptiveConfig{
			Arch: arch, TotalSamples: 12000, Rounds: 2, DriftThreshold: threshold,
		}
		res1, err := runAdaptive(cfg, devs, links, base)
		if err != nil {
			return nil, err
		}
		// Mid-run degradation: the fastest phone (Pixel2, index 2 in
		// Testbed I) lands in a hot environment and throttles to 25%.
		devs[2].AmbientC += 30
		devs[2].TempC += 30
		devs[2].SoftTripC = devs[2].AmbientC + 2
		devs[2].ThrottleFactor = 0.25
		cfg.Rounds = 6
		res2, err := runAdaptive(cfg, devs, links, base)
		if err != nil {
			return nil, err
		}
		res2.TotalTime += res1.TotalTime
		return res2, nil
	}
	adaptiveRes, err := run(0.3)
	if err != nil {
		return nil, err
	}
	staticRes, err := run(math.Inf(1))
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title:   "Testbed I, MNIST+LeNet, 12K samples/round; Pixel2 degrades 4× after round 2",
		Columns: []string{"controller", "total time [s]", "final round [s]", "reschedules", "degraded-device samples"},
	}
	tbl.AddRow("static schedule",
		staticRes.TotalTime, staticRes.Records[len(staticRes.Records)-1].Makespan,
		staticRes.Reschedules, staticRes.Assignment.Samples(adaptiveShard)[2])
	tbl.AddRow("adaptive (drift>30% → reschedule)",
		adaptiveRes.TotalTime, adaptiveRes.Records[len(adaptiveRes.Records)-1].Makespan,
		adaptiveRes.Reschedules, adaptiveRes.Assignment.Samples(adaptiveShard)[2])
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: the adaptive controller detects the misprediction, shifts load off the degraded phone and recovers the round time; the static schedule stays stuck behind it.")
	return rep, nil
}
