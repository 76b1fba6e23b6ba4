package fl

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/tensor"
)

// forceLanes pretends the machine has `procs` CPUs so the worker pools and
// the tensor lane semaphore genuinely spawn goroutines even on a 1-core
// test box. Restored on cleanup.
func forceLanes(t *testing.T, procs int) {
	t.Helper()
	t.Cleanup(setLanes(procs, procs-1))
}

// setLanes sets GOMAXPROCS to procs and the tensor lane budget to lanes,
// and returns what restores both.
func setLanes(procs, lanes int) (restore func()) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevLanes := tensor.MaxLanes()
	tensor.SetMaxLanes(lanes)
	return func() {
		tensor.SetMaxLanes(prevLanes)
		runtime.GOMAXPROCS(prevProcs)
	}
}

// requireSameHistory asserts two synchronous runs are bit-identical:
// every history field and every final weight.
func requireSameHistory(t *testing.T, a, b *History) {
	t.Helper()
	requireSameDump(t, "history", dumpOf(a), dumpOf(b))
}

// parallelClients builds a fresh client set — fresh devices matter, since
// device thermal/energy state carries across rounds and must start equal
// for both runs under comparison.
func parallelClients(t *testing.T, train *data.Dataset, users int, withDevices bool) []*Client {
	t.Helper()
	return partitionClients(t, train, data.IIDEqual(train, users, rand.New(rand.NewSource(5))), withDevices)
}

// lbapSizes is Fed-LBAP's schedule of 600 shards over testbed II, one
// sample a shard. Its shards are unequal, so the pool's longest-first order
// (slots 5 1 0 4 2 3) is not the cohort order — with equal shards the two
// coincide and a worker-count comparison says nothing about dispatch.
var lbapSizes = []int{138, 139, 33, 33, 97, 160}

// lbapClients builds six device-backed clients on lbapSizes shards.
func lbapClients(t *testing.T, train *data.Dataset) []*Client {
	t.Helper()
	return partitionClients(t, train, data.IIDSizes(train, lbapSizes, rand.New(rand.NewSource(5))), true)
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
// how many workers run them changes no prediction and no count: a row's
// outputs do not depend on how many other rows share its GEMMs, from
// batch 1 (one-row products) up. Covered on an f64 trainer's live network
// and on an f32 trainer's float64 evaluation twin.
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
// TestTrainersFollowLanes: a run builds one trainer per worker lane it
// fans out to, whatever its client count — a 10-client sync run one at
// Workers 1 and one per lane at Workers 4 — and async, which trains on
// its event loop, exactly one.
func TestTrainersFollowLanes(t *testing.T) {
	forceLanes(t, 5)
	train, _ := data.TrainTest(data.SMNISTConfig(0, 76), 400, 10)
	builds := 0
	prev := buildTrainer
	buildTrainer = func(cfg *Config) nn.Trainer { builds++; return prev(cfg) }
	t.Cleanup(func() { buildTrainer = prev })

	for _, c := range []struct{ workers, want int }{{1, 1}, {4, 4}} {
		builds = 0
		cfg := smallConfig(2)
		cfg.Workers = c.workers
		if _, err := Run(cfg, parallelClients(t, train, 10, false), nil); err != nil {
			t.Fatal(err)
		}
		if builds != c.want {
			t.Errorf("a 10-client Workers-%d sync run built %d trainers, want %d", c.workers, builds, c.want)
		}
	}

	builds = 0
	acfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 12}
	acfg.Workers = 4
	if _, err := RunAsync(acfg, parallelClients(t, train, 10, false), nil); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("a 10-client async run built %d trainers, want 1", builds)
	}

	builds = 0
	gcfg := GossipConfig{Config: smallConfig(2)}
	gcfg.Workers = 3
	if _, err := RunGossip(gcfg, parallelClients(t, train, 10, false), nil); err != nil {
		t.Fatal(err)
	}
	if builds < 1 || builds > gcfg.Workers {
		t.Errorf("a 10-client Workers-%d gossip run built %d trainers, want 1 to %d", gcfg.Workers, builds, gcfg.Workers)
	}
}

func TestLongestFirst(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 76), 600, 10)
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
	// 3, 2, 5 hold 33, 33 and 160 samples.
	if got, want := rc.longestFirst(4, []int{3, 2, 5}, members), []int{2, 0, 1}; !slices.Equal(got, want) {
		t.Errorf("cohort [3 2 5]: slots %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { rc.longestFirst(4, sel, members) }); allocs != 0 {
		t.Errorf("longestFirst allocated %v times per call", allocs)
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
