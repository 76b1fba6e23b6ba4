package fl

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
)

// forceLanes pretends the machine has `procs` CPUs so the worker pools and
// the tensor lane semaphore genuinely spawn goroutines even on a 1-core
// test box. Restored on cleanup.
func forceLanes(t *testing.T, procs int) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(procs)
	prevLanes := tensor.MaxLanes()
	tensor.SetMaxLanes(procs - 1)
	t.Cleanup(func() {
		tensor.SetMaxLanes(prevLanes)
		runtime.GOMAXPROCS(prevProcs)
	})
}

func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameHistory asserts two synchronous runs are bit-identical:
// every per-round and per-client statistic, and every final weight.
func requireSameHistory(t *testing.T, a, b *History) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if !eqFloat(ra.Makespan, rb.Makespan) || !eqFloat(ra.TrainLoss, rb.TrainLoss) ||
			!eqFloat(ra.Accuracy, rb.Accuracy) {
			t.Fatalf("round %d stats differ: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Clients) != len(rb.Clients) {
			t.Fatalf("round %d participant counts differ: %d vs %d", i, len(ra.Clients), len(rb.Clients))
		}
		for j := range ra.Clients {
			if ra.Clients[j] != rb.Clients[j] {
				t.Fatalf("round %d client %d differs:\n%+v\n%+v", i, j, ra.Clients[j], rb.Clients[j])
			}
		}
	}
	if !eqFloat(a.FinalAccuracy, b.FinalAccuracy) ||
		!eqFloat(a.TotalSeconds, b.TotalSeconds) || !eqFloat(a.TotalEnergyJ, b.TotalEnergyJ) {
		t.Fatalf("summary differs: acc %v/%v time %v/%v energy %v/%v",
			a.FinalAccuracy, b.FinalAccuracy, a.TotalSeconds, b.TotalSeconds,
			a.TotalEnergyJ, b.TotalEnergyJ)
	}
	requireSameWeights(t, a.Model.GetWeights(), b.Model.GetWeights())
}

func requireSameWeights(t *testing.T, wa, wb []*tensor.Tensor) {
	t.Helper()
	if len(wa) != len(wb) {
		t.Fatalf("weight tensor counts differ: %d vs %d", len(wa), len(wb))
	}
	for k := range wa {
		da, db := wa[k].Data(), wb[k].Data()
		if len(da) != len(db) {
			t.Fatalf("tensor %d sizes differ: %d vs %d", k, len(da), len(db))
		}
		for e := range da {
			if da[e] != db[e] {
				t.Fatalf("tensor %d element %d differs: %v vs %v (bitwise determinism broken)",
					k, e, da[e], db[e])
			}
		}
	}
}

// parallelClients builds a fresh client set — fresh devices matter, since
// device thermal/energy state carries across rounds and must start equal
// for both runs under comparison.
func parallelClients(t *testing.T, train *data.Dataset, users int, withDevices bool) []*Client {
	t.Helper()
	return partitionClients(t, train, data.IIDEqual(train, users, rand.New(rand.NewSource(5))), withDevices)
}

// lbapSizes is Fed-LBAP's partition of train_heavy's 1,200 samples over
// testbed II. Its shards are unequal, so the pool's longest-first order
// (slots 5 1 0 4 2 3) is not the cohort order — with equal shards the two
// coincide and a worker-count comparison says nothing about dispatch.
var lbapSizes = []int{276, 278, 66, 66, 194, 320}

// lbapClients builds six device-backed clients on lbapSizes shards.
func lbapClients(t *testing.T, train *data.Dataset) []*Client {
	t.Helper()
	return partitionClients(t, train, data.IIDSizes(train, lbapSizes, rand.New(rand.NewSource(5))), true)
}

// lbapConfig puts a fault plan and a 5-of-6 cohort sampler on top of the
// unequal shards, so a round's cohort and its survivors vary too.
func lbapConfig(t *testing.T, rounds, workers int) Config {
	t.Helper()
	cfg := smallConfig(rounds)
	cfg.Workers = workers
	cfg.Faults = mustPlan(t, "crash=0.15,flap=0.1,degrade=0.3,slow=3", 19)
	cfg.Sampler = sample.NewUniform(len(lbapSizes), 5, 23)
	return cfg
}

// partitionClients builds one client per partition entry, on a device
// (cycling through four phone models) when withDevices is set.
func partitionClients(t *testing.T, train *data.Dataset, part data.Partition, withDevices bool) []*Client {
	t.Helper()
	locals := part.Materialize(train)
	users := len(locals)
	devs := make([]*device.Device, users)
	if withDevices {
		profiles := []device.Profile{device.Pixel2(), device.Nexus6(), device.Nexus6P(), device.Mate10()}
		for i := range devs {
			devs[i] = device.New(profiles[i%len(profiles)])
		}
	}
	links := make([]network.Link, users)
	for i := range links {
		links[i] = network.WiFi()
	}
	clients, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

// TestRunWorkersBitIdentical is the tentpole guarantee: Workers: 1 and
// Workers: 4 produce bit-identical histories for the same seed, in plain
// FedAvg, under secure aggregation, and under deadline dropout.
func TestRunWorkersBitIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 61), 600, 200)

	variants := []struct {
		name        string
		withDevices bool
		mutate      func(*Config)
	}{
		{"plain", false, func(c *Config) {}},
		{"devices", true, func(c *Config) {}},
		{"secureagg", true, func(c *Config) { c.SecureAgg = true }},
		{"evalEvery", false, func(c *Config) { c.EvalEvery = 2 }},
		{"f32", false, func(c *Config) { c.Precision = nn.F32 }},
		{"f32-secureagg", true, func(c *Config) { c.Precision = nn.F32; c.SecureAgg = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(workers int) *History {
				cfg := smallConfig(3)
				cfg.Workers = workers
				v.mutate(&cfg)
				hist, err := Run(cfg, parallelClients(t, train, 4, v.withDevices), test)
				if err != nil {
					t.Fatal(err)
				}
				return hist
			}
			requireSameHistory(t, run(1), run(4))
		})
	}

	t.Run("unequal-shards", func(t *testing.T) {
		train, test := data.TrainTest(data.SMNISTConfig(0, 61), 1200, 200)
		run := func(workers int) *History {
			hist, err := Run(lbapConfig(t, 3, workers), lbapClients(t, train), test)
			if err != nil {
				t.Fatal(err)
			}
			return hist
		}
		want := run(-1)
		faulted := 0
		for _, r := range want.Rounds {
			for _, cr := range r.Clients {
				if cr.Fault != fault.None {
					faulted++
				}
			}
		}
		if faulted == 0 {
			t.Fatal("the fault plan struck nobody")
		}
		for _, workers := range []int{2, 4} {
			requireSameHistory(t, want, run(workers))
		}
	})
}

// TestRunGEMMLanesBitIdentical extends the workers guarantee one layer
// down, into the blocked GEMM kernels: with the client worker pool held
// fixed, the number of tensor lanes the matmuls may fan out over must not
// change a single bit of the history either. (At batch 20 the LeNetSmall
// convolutions cross the kernel's parallel cutoff, so lanes > 0 genuinely
// split the output grid across goroutines.)
func TestRunGEMMLanesBitIdentical(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prevProcs) })
	train, test := data.TrainTest(data.SMNISTConfig(0, 67), 600, 200)

	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		t.Run(string(prec), func(t *testing.T) {
			run := func(lanes int) *History {
				prev := tensor.MaxLanes()
				tensor.SetMaxLanes(lanes)
				defer tensor.SetMaxLanes(prev)
				cfg := smallConfig(3)
				cfg.Workers = 1 // serial client pool: every lane goes to the GEMMs
				cfg.Precision = prec
				hist, err := Run(cfg, parallelClients(t, train, 4, true), test)
				if err != nil {
					t.Fatal(err)
				}
				return hist
			}
			serial := run(0)
			for _, lanes := range []int{1, 3} {
				requireSameHistory(t, serial, run(lanes))
			}
		})
	}
}

// TestRunWorkersDeadlineBitIdentical covers straggler dropout: the
// deadline sits between the fast and slow device's warm spans, so one
// client is dropped every round — identically for any worker count.
func TestRunWorkersDeadlineBitIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 62), 400, 150)

	newClients := func() []*Client {
		part := data.IIDEqual(train, 2, rand.New(rand.NewSource(5)))
		locals := part.Materialize(train)
		devs := []*device.Device{device.New(device.Pixel2()), device.New(device.Nexus6P())}
		links := []network.Link{network.WiFi(), network.WiFi()}
		clients, err := BuildClients(devs, links, locals)
		if err != nil {
			t.Fatal(err)
		}
		return clients
	}

	// Probe warm spans to place the deadline between the two devices.
	probe, err := Run(smallConfig(3), newClients(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := probe.Rounds[len(probe.Rounds)-1]
	fast := last.Clients[0].ComputeS + last.Clients[0].CommS
	slow := last.Clients[1].ComputeS + last.Clients[1].CommS
	if slow <= fast {
		t.Fatalf("precondition: Nexus6P (%.2f s) not slower than Pixel2 (%.2f s)", slow, fast)
	}

	run := func(workers int) *History {
		cfg := smallConfig(3)
		cfg.Workers = workers
		cfg.DeadlineSeconds = (fast + slow) / 2
		hist, err := Run(cfg, newClients(), test)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	a, b := run(1), run(4)
	dropped := 0
	for _, r := range a.Rounds {
		for _, cr := range r.Clients {
			if cr.Dropped {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("deadline variant dropped nobody — test is vacuous")
	}
	requireSameHistory(t, a, b)
}

// TestWorkersGuards: negative Workers degrades to strictly sequential and
// a single participant never spawns goroutines; both still equal the
// default-parallel result bitwise.
func TestWorkersGuards(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 63), 300, 100)

	run := func(workers, users int) *History {
		cfg := smallConfig(2)
		cfg.Workers = workers
		hist, err := Run(cfg, parallelClients(t, train, users, false), test)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	// Negative == sequential == default pool, bit for bit.
	requireSameHistory(t, run(-3, 3), run(1, 3))
	requireSameHistory(t, run(-3, 3), run(0, 3))
	// One participant with a huge worker request still runs (and matches
	// the sequential path — there is nothing to parallelize over).
	requireSameHistory(t, run(64, 1), run(1, 1))
}

// TestEvaluateParallelMatchesSerial pins the satellite guarantee: the
// batched evaluators return identical results whether batches run on one
// goroutine or fan out across network clones.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	_, test := data.TrainTest(data.SMNISTConfig(0, 64), 10, 230)
	net := nn.LeNetSmall(1, 16, 16, 10).Build(rand.New(rand.NewSource(3)))

	// Serial: GOMAXPROCS 1 → WorkerCount resolves to 1, no clones.
	forceLanes(t, 1)
	serialAcc := Evaluate(net, test, 64)
	serialConf := evaluate(net, test, 64, 0, nil)

	// Parallel: 4 lanes → batches spread over clones.
	forceLanes(t, 4)
	parAcc := Evaluate(net, test, 64)
	parConf := evaluate(net, test, 64, 0, nil)

	if serialAcc != parAcc {
		t.Fatalf("Evaluate differs across worker counts: %v vs %v", serialAcc, parAcc)
	}
	if serialConf.Accuracy() != parConf.Accuracy() || serialConf.MacroRecall() != parConf.MacroRecall() {
		t.Fatalf("confusion differs: acc %v/%v recall %v/%v",
			serialConf.Accuracy(), parConf.Accuracy(), serialConf.MacroRecall(), parConf.MacroRecall())
	}
}

// TestEvaluateLanesSaturated: with every lane of a 4-lane pool held by
// someone else (a daemon whose other jobs are training), forEachBatch
// must take the sequential path without building a single clone —
// observed as allocations, since a Clone is a whole BuildNetwork — hand
// back nothing it did not take, and evaluate to the same result as the
// fanned-out run. A blueprint-less network returns the lanes it was
// granted.
func TestEvaluateLanesSaturated(t *testing.T) {
	_, test := data.TrainTest(data.SMNISTConfig(0, 64), 10, 230)
	net := nn.LeNetSmall(1, 16, 16, 10).Build(rand.New(rand.NewSource(3)))
	forceLanes(t, 4)
	want := Evaluate(net, test, 64)

	held := tensor.TryAcquireLanes(3)
	if held != 3 {
		t.Fatalf("acquired %d of 3 lanes", held)
	}
	var sawClone bool
	fn := func(_ int, m *nn.Network) { sawClone = sawClone || m != net }
	allocs := testing.AllocsPerRun(5, func() { forEachBatch(net, nil, 4, 8, fn) })
	if allocs > 0 || sawClone {
		t.Errorf("saturated forEachBatch allocated %v times per call (clone used: %v), want the bare sequential loop", allocs, sawClone)
	}
	if got := Evaluate(net, test, 64); got != want {
		t.Errorf("saturated Evaluate = %v, fanned-out %v", got, want)
	}
	tensor.ReleaseLanes(held)

	bare := nn.NewNetworkOf[float64]("bare", net.Layers...)
	calls := 0
	forEachBatch(bare, nil, 4, 8, func(_ int, m *nn.Network) {
		if m != bare {
			t.Error("blueprint-less network was cloned")
		}
		calls++
	})
	if calls != 8 {
		t.Errorf("blueprint-less network ran %d of 8 batches", calls)
	}
	if free := tensor.TryAcquireLanes(3); free != 3 {
		t.Errorf("%d of 3 lanes free after the nil-blueprint path", free)
	} else {
		tensor.ReleaseLanes(free)
	}
}

// TestEvaluateSplitInvariant: how the test set splits into batches and
// how many workers run them changes no prediction and no count. At batch
// 1 the dense layers' GEMMs fall under gemmSmallCutoff and run the naive
// kernels; larger batches run the blocked ones. Covered on an f64
// trainer's live network and on an f32 trainer's float64 evaluation twin.
func TestEvaluateSplitInvariant(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 74), 200, 230)
	n := test.Len()
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		t.Run(string(prec), func(t *testing.T) {
			// One epoch in, so the predictions spread over the classes.
			tr := nn.NewTrainer(prec, smallConfig(1).Arch, rand.New(rand.NewSource(3)), 0.05, 0.9)
			localEpoch(tr, train, rand.New(rand.NewSource(4)), 20)
			net := tr.EvalNetwork()
			// One spare list across every call: copies warmed at one batch
			// shape serve the next.
			var spares []*nn.Network
			// The reference: every sample predicted on its own.
			want := newConfusion(test.Classes)
			perSample := make([]int, n)
			for i := range perSample {
				x, y := test.Batch(i, i+1)
				perSample[i] = net.Predict(x)[0]
				want.Add(y, perSample[i:i+1])
			}
			for _, batch := range []int{1, 5, 13, 100, 256, n} {
				var preds []int
				for i := 0; i < n; i += batch {
					x, _ := test.Batch(i, min(i+batch, n))
					preds = append(preds, net.Predict(x)...)
				}
				if !slices.Equal(preds, perSample) {
					t.Fatalf("batch %d: Predict differs from the per-sample predictions", batch)
				}
				for _, workers := range []int{-1, 1, 2, 4} {
					if got := evaluate(net, test, batch, workers, &spares); !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d, workers %d: confusion %v, want %v", batch, workers, got.Counts, want.Counts)
					}
				}
				if got := Evaluate(net, test, batch); got != want.Accuracy() {
					t.Fatalf("batch %d: Evaluate %v, want %v", batch, got, want.Accuracy())
				}
				if got := evaluate(net, test, batch, 0, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: default pool %v, want %v", batch, got.Counts, want.Counts)
				}
			}
		})
	}
}

// TestRunEvaluationClones: a run evaluates inside its Workers budget and
// keeps its evaluation clones. With 4 lanes free and a test set several
// batches long, Workers 1 builds no clone at all, and Workers 2 and 4
// build one per extra worker for the whole run, every round and the final
// confusion matrix included.
func TestRunEvaluationClones(t *testing.T) {
	forceLanes(t, 5)
	train, test := data.TrainTest(data.SMNISTConfig(0, 75), 200, 600)
	clones := 0
	prev := cloneNet
	cloneNet = func(net *nn.Network) *nn.Network { clones++; return prev(net) }
	t.Cleanup(func() { cloneNet = prev })

	var model *nn.Network
	for _, c := range []struct{ workers, want int }{{1, 0}, {2, 1}, {4, 3}} {
		clones = 0
		cfg := smallConfig(3)
		cfg.Workers = c.workers
		cfg.EvalEvery = 1
		hist, err := Run(cfg, parallelClients(t, train, 2, false), test)
		if err != nil {
			t.Fatal(err)
		}
		if clones != c.want {
			t.Errorf("a Workers-%d run built %d evaluation clones, want %d", c.workers, clones, c.want)
		}
		model = hist.Model
	}
	// The exported evaluator sizes its pool from GOMAXPROCS and keeps no
	// clone between calls.
	clones = 0
	Evaluate(model, test, 256)
	Evaluate(model, test, 256)
	if clones != 8 {
		t.Errorf("two Evaluate calls with 4 lanes free built %d clones, want 8", clones)
	}
}

// TestLongestFirst pins the pool's dispatch order: local shard size
// descending, ties by slot, the identity for a sequential pool — all
// without allocating.
func TestLongestFirst(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 76), 1200, 10)
	members := partitionClients(t, train, data.IIDSizes(train, lbapSizes, rand.New(rand.NewSource(5))), false)
	rc := newRoundCore(smallConfig(1).Arch, 20, len(members), nil, nil, nil)
	sel := rc.draw(0)
	if got, want := rc.longestFirst(2, sel, members), []int{5, 1, 0, 4, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("longest first over %v: slots %v, want %v", lbapSizes, got, want)
	}
	if got, want := rc.longestFirst(1, sel, members), []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("sequential pool: slots %v, want cohort order %v", got, want)
	}
	// A sampled cohort orders its slots, not the members' indices: members
	// 3, 2, 5 hold 66, 66 and 320 samples.
	if got, want := rc.longestFirst(4, []int{3, 2, 5}, members), []int{2, 0, 1}; !slices.Equal(got, want) {
		t.Errorf("cohort [3 2 5]: slots %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { rc.longestFirst(4, sel, members) }); allocs != 0 {
		t.Errorf("longestFirst allocated %v times per call", allocs)
	}
}

// TestAsyncWorkersBitIdentical: the futures engine must keep every server
// merge in exact virtual-time order, so the whole history matches the
// sequential engine field by field.
func TestAsyncWorkersBitIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 65), 400, 100)

	run := func(workers int) *AsyncHistory {
		cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 16, MixRate: 0.4, StalenessPower: 0.5}
		cfg.Workers = workers
		hist, err := RunAsync(cfg, parallelClients(t, train, 3, true), test)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	a, b := run(1), run(4)
	if a.Updates != b.Updates || !eqFloat(a.VirtualSeconds, b.VirtualSeconds) ||
		!eqFloat(a.FinalAccuracy, b.FinalAccuracy) || !eqFloat(a.MeanStaleness, b.MeanStaleness) ||
		!eqFloat(a.TotalEnergyJ, b.TotalEnergyJ) {
		t.Fatalf("async histories differ:\n%+v\n%+v", a, b)
	}
	for i := range a.UpdatesPerClient {
		if a.UpdatesPerClient[i] != b.UpdatesPerClient[i] {
			t.Fatalf("updates per client differ at %d: %v vs %v",
				i, a.UpdatesPerClient, b.UpdatesPerClient)
		}
	}
}

// TestGossipWorkersBitIdentical: local epochs fan out, pairing and
// averaging happen after the join — any worker count, same history.
func TestGossipWorkersBitIdentical(t *testing.T) {
	forceLanes(t, 4)
	train, test := data.TrainTest(data.SMNISTConfig(0, 66), 400, 100)

	run := func(workers int) *GossipHistory {
		cfg := GossipConfig{Config: smallConfig(3), Topology: Ring}
		cfg.Workers = workers
		hist, err := RunGossip(cfg, parallelClients(t, train, 4, true), test)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	a, b := run(1), run(4)
	if a.Rounds != b.Rounds || !eqFloat(a.MeanAccuracy, b.MeanAccuracy) ||
		!eqFloat(a.BestAccuracy, b.BestAccuracy) || !eqFloat(a.Disagreement, b.Disagreement) ||
		!eqFloat(a.TotalSeconds, b.TotalSeconds) {
		t.Fatalf("gossip histories differ:\n%+v\n%+v", a, b)
	}
	for i := range a.PerClient {
		if a.PerClient[i] != b.PerClient[i] {
			t.Fatalf("per-client accuracy differs at %d: %v vs %v", i, a.PerClient, b.PerClient)
		}
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct{ requested, tasks, want int }{
		{-1, 8, 1},
		{0, 8, runtime.GOMAXPROCS(0)},
		{3, 8, 3},
		{8, 3, 3},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := tensor.WorkerCount(c.requested, c.tasks); got != c.want {
			t.Errorf("tensor.WorkerCount(%d, %d) = %d, want %d", c.requested, c.tasks, got, c.want)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	forceLanes(t, 4)
	for _, workers := range []int{1, 2, 4, 9} {
		for _, n := range []int{0, 1, 5, 23} {
			hits := make([]int32, n)
			forEach(workers, n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}
