package fedsched

import (
	"bytes"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"fedsched/internal/device"
	"fedsched/internal/fl"
	"fedsched/internal/lint"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/privacy"
	"fedsched/internal/profile"
	"fedsched/internal/sample"
	"fedsched/internal/sched"
	"fedsched/internal/secagg"
	"fedsched/internal/trace"
)

func TestTestbedScheduleIID(t *testing.T) {
	tb := NewTestbed(1)
	arch := LeNet(1, 28, 28, 10)
	req, err := tb.Request(arch, 6000)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := FedLBAP.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range asg.Shards {
		total += s
	}
	if total != 60 {
		t.Fatalf("assigned %d shards, want 60", total)
	}
	if asg.PredictedMakespan <= 0 {
		t.Fatal("no predicted makespan")
	}
	spans, err := tb.SimulateRounds(arch, asg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0] <= 0 {
		t.Fatalf("bad spans %v", spans)
	}
}

func TestTestbedScheduleNonIID(t *testing.T) {
	tb := NewTestbed(1)
	arch := LeNet(3, 32, 32, 10)
	classSets := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	asg, err := tb.ScheduleNonIID(arch, 5000, classSets, 10, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Participants() == 0 {
		t.Fatal("nobody scheduled")
	}
	if _, err := tb.ScheduleNonIID(arch, 5000, classSets[:2], 10, 100, 2); err == nil {
		t.Fatal("expected class-set arity error")
	}
}

func TestRunFederatedOnTestbed(t *testing.T) {
	tb := NewTestbed(1)
	// Same seed → shared class prototypes; different sizes → disjoint
	// sample randomness.
	train := SMNIST(600, 3)
	test := SMNIST(200, 3)
	part := PartitionIID(train, 3, 1)
	hist, err := tb.RunFederated(RunConfig{
		Arch: LeNetSmall(1, 16, 16, 10), Rounds: 3, LR: 0.02, Momentum: 0.9, Seed: 1,
	}, train, part, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalAccuracy <= 0.2 {
		t.Fatalf("accuracy %.3f implausibly low", hist.FinalAccuracy)
	}
	if hist.TotalSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	if _, err := tb.RunFederated(RunConfig{Arch: LeNetSmall(1, 16, 16, 10)}, train, part[:2], test); err == nil {
		t.Fatal("expected partition arity error")
	}
}

func TestPartitionHelpers(t *testing.T) {
	ds := SCIFAR(300, 5)
	p1 := PartitionIID(ds, 3, 1)
	if p1.Total() != 300 {
		t.Fatalf("IID total %d", p1.Total())
	}
	p2 := PartitionIIDSizes(ds, []int{100, 50}, 1)
	if len(p2[0]) != 100 || len(p2[1]) != 50 {
		t.Fatalf("sizes %v", p2.Sizes())
	}
	p3 := PartitionByClasses(ds, [][]int{{0, 1}}, []int{30}, 1)
	for _, i := range p3[0] {
		if ds.Labels[i] > 1 {
			t.Fatal("class restriction violated")
		}
	}
}

func TestCustomTestbedAndMakespan(t *testing.T) {
	tb := &Testbed{Profiles: NewTestbed(1).Profiles[:2], Link: network.LTE()}
	arch := LeNet(1, 28, 28, 10)
	req, err := tb.Request(arch, 3000)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := FedLBAP.Schedule(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := Makespan(req, asg); m != asg.PredictedMakespan {
		t.Fatalf("makespan mismatch: %v vs %v", m, asg.PredictedMakespan)
	}
}

// TestBatteryBudgetTinyStaysCapped: a budget too small for one shard
// caps every user at one shard instead of lifting the cap — device
// CapacityShards reads 0 there, which the scheduler would take as
// unlimited. On testbed II the caps sum to 32 of 600 shards at 1e-3 and
// to 6 at 1e-4, so Fed-LBAP finds no schedule at either.
func TestBatteryBudgetTinyStaysCapped(t *testing.T) {
	arch := LeNet(1, 28, 28, 10)
	for _, budget := range []float64{1e-3, 1e-4} {
		tb := NewTestbed(2)
		tb.BatteryBudget = budget
		req, err := tb.Request(arch, 60000)
		if err != nil {
			t.Fatal(err)
		}
		for j, u := range req.Users {
			if u.CapacityShards < 1 {
				t.Errorf("budget %g: user %d capacity %d, want at least 1 shard", budget, j, u.CapacityShards)
			}
		}
		if asg, err := FedLBAP.Schedule(req, nil); err == nil {
			t.Errorf("budget %g: Fed-LBAP scheduled %v past the battery caps", budget, asg.Shards)
		}
	}
}

func TestBatteryBudgetCapsSchedule(t *testing.T) {
	arch := LeNet(1, 28, 28, 10)
	reqFree, err := NewTestbed(1).Request(arch, 60000)
	if err != nil {
		t.Fatal(err)
	}
	asgFree, err := FedLBAP.Schedule(reqFree, nil)
	if err != nil {
		t.Fatal(err)
	}
	capped := NewTestbed(1)
	capped.BatteryBudget = 0.002 // tiny per-round energy budget
	req, err := capped.Request(arch, 60000)
	if err != nil {
		t.Fatal(err)
	}
	anyCapped := false
	for j, u := range req.Users {
		if u.CapacityShards > 0 && u.CapacityShards < asgFree.Shards[j] {
			anyCapped = true
		}
	}
	if !anyCapped {
		t.Skip("budget did not bind on this hardware model — adjust threshold")
	}
	asgCapped, err := FedLBAP.Schedule(req, nil)
	if err != nil {
		// Legitimate when the budget makes the instance infeasible.
		return
	}
	for j, u := range req.Users {
		if asgCapped.Shards[j] > u.CapacityShards {
			t.Fatalf("battery capacity violated for user %d", j)
		}
	}
}

func TestFacadeSecureAndDeadline(t *testing.T) {
	tb := NewTestbed(1)
	train := SMNIST(450, 5)
	test := SMNIST(150, 5)
	part := PartitionIID(train, 3, 2)
	hist, err := tb.RunFederated(RunConfig{
		Arch: LeNetSmall(1, 16, 16, 10), Rounds: 3, LR: 0.02, Momentum: 0.9,
		Seed: 2, SecureAgg: true,
	}, train, part, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalAccuracy < 0.5 {
		t.Fatalf("secure facade run accuracy %.3f", hist.FinalAccuracy)
	}
	if hist.Confusion == nil || hist.Model == nil {
		t.Fatal("history missing confusion matrix or final model")
	}
	if hist.Confusion.Accuracy() != hist.FinalAccuracy {
		t.Fatal("confusion accuracy disagrees with FinalAccuracy")
	}
}

func TestFacadeAsyncAndGossip(t *testing.T) {
	tb := NewTestbed(1)
	train := SMNIST(450, 6)
	test := SMNIST(150, 6)
	part := PartitionIID(train, 3, 3)
	cfg := RunConfig{Arch: LeNetSmall(1, 16, 16, 10), Rounds: 3, LR: 0.02, Momentum: 0.9, Seed: 3}

	clients, err := tb.Clients(train, part)
	if err != nil {
		t.Fatal(err)
	}
	aHist, err := RunAsync(AsyncConfig{Config: cfg, MaxUpdates: 9}, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if aHist.Updates != 9 {
		t.Fatalf("async updates %d", aHist.Updates)
	}

	gClients, err := tb.Clients(train, part)
	if err != nil {
		t.Fatal(err)
	}
	gHist, err := RunGossip(GossipConfig{Config: cfg, Topology: Ring}, gClients, test)
	if err != nil {
		t.Fatal(err)
	}
	if gHist.MeanAccuracy <= 0.2 {
		t.Fatalf("gossip accuracy %.3f", gHist.MeanAccuracy)
	}

	if _, err := tb.Clients(train, part[:1]); err == nil {
		t.Fatal("expected partition arity error")
	}
}

func TestFacadePrivacyAndSecagg(t *testing.T) {
	rep, err := privacy.NewReporter(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipProbability() <= 0 || rep.FlipProbability() >= 0.5 {
		t.Fatalf("flip probability %v", rep.FlipProbability())
	}
	g, err := secagg.NewGroup(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 {
		t.Fatalf("group size %d", g.N)
	}
}

func TestFacadeTuneAlpha(t *testing.T) {
	tb := NewTestbed(1)
	arch := LeNet(3, 32, 32, 10)
	req, err := tb.Request(arch, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range req.Users {
		u.Classes = []int{j % 10, (j + 1) % 10}
	}
	req.K, req.Beta = 10, 0
	best, sweep, err := sched.TuneAlpha(req, sched.DefaultAlphaGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(sweep) != len(sched.DefaultAlphaGrid()) {
		t.Fatalf("best=%v sweep=%d", best, len(sweep))
	}
}

// TestTestbedGeometry prices MNIST LeNet and then CIFAR LeNet on one
// Testbed: each request must be priced by profiles measured for its own
// input geometry, exactly as a fresh measurement prices it.
func TestTestbedGeometry(t *testing.T) {
	tb := NewTestbed(2)
	for _, arch := range []*nn.Arch{LeNet(1, 28, 28, 10), LeNet(3, 32, 32, 10)} {
		req, err := tb.Request(arch, 60000)
		if err != nil {
			t.Fatal(err)
		}
		suite := profile.Suite(arch.InC, arch.InH, arch.InW, arch.Classes)
		for j, p := range tb.Profiles {
			fresh, err := profile.BuildOffline(device.New(p), suite, profile.DefaultSizes)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{100, 1000, 60000} {
				if got, want := req.Users[j].Cost(n), fresh.Predict(arch, n); got != want {
					t.Fatalf("%dx%dx%d %s: cost(%d) = %v, a fresh profile gives %v",
						arch.InC, arch.InH, arch.InW, req.Users[j].Name, n, got, want)
				}
			}
		}
	}
}

// profileMemo is profile.BuildTestbed's process-wide memo, reached so the
// concurrency tests below can start from a cold one.
//
//go:linkname profileMemo fedsched/internal/profile.offline
var profileMemo sync.Map

func coldProfileMemo() {
	profileMemo.Range(func(k, _ any) bool {
		profileMemo.Delete(k)
		return true
	})
}

// jobBuild is what BuildJob decides: the partition, the schedule and the
// schedule/solver trace.
type jobBuild struct {
	sizes []int
	asg   *sched.Assignment
	trace []byte
}

func buildJob(cfg JobConfig) (jobBuild, error) {
	rec := trace.New(0)
	j, err := BuildJob(cfg, rec)
	if err != nil {
		return jobBuild{}, err
	}
	var buf bytes.Buffer
	err = trace.WriteJSONL(&buf, rec.Events())
	return jobBuild{j.Sizes, j.Assignment, buf.Bytes()}, err
}

// TestBuildJobConcurrent builds jobs on eight goroutines at once, over
// testbeds 1–3 × f64/f32 × IID/non-IID, starting from a cold profile
// memo: every build must schedule, partition and trace exactly what a
// sequential build with a cold memo of its own does.
func TestBuildJobConcurrent(t *testing.T) {
	var cfgs []JobConfig
	for tb := 1; tb <= 3; tb++ {
		for _, prec := range []string{"f64", "f32"} {
			for _, classes := range []int{0, 3} {
				cfg := JobConfig{Testbed: tb, Precision: prec, ClassesPerUser: classes,
					Samples: 200, TestSamples: 20, Seed: int64(10*tb + classes)}
				if classes > 0 {
					cfg.Scheduler = "fedminavg"
				}
				cfgs = append(cfgs, cfg.WithDefaults())
			}
		}
	}
	want := make([]jobBuild, len(cfgs))
	for i, cfg := range cfgs {
		coldProfileMemo()
		var err error
		if want[i], err = buildJob(cfg); err != nil {
			t.Fatal(err)
		}
	}
	coldProfileMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cfgs {
				i := (g + k) % len(cfgs) // every goroutine starts elsewhere
				got, err := buildJob(cfgs[i])
				switch {
				case err != nil:
					t.Error(err)
				case !reflect.DeepEqual(got.sizes, want[i].sizes) || !reflect.DeepEqual(got.asg, want[i].asg):
					t.Errorf("%+v: concurrent build scheduled %v / %+v, sequential %v / %+v",
						cfgs[i], got.sizes, got.asg, want[i].sizes, want[i].asg)
				case !bytes.Equal(got.trace, want[i].trace):
					t.Errorf("%+v: schedule/solver trace differs from the sequential build's", cfgs[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestProfileMemoConcurrent races the memo's three kinds of user from a
// cold start — Request on one shared Testbed at two input geometries,
// BuildJob, and NewPopulationRunner — on eight goroutines; each must get
// what it gets alone on a cold memo of its own.
func TestProfileMemoConcurrent(t *testing.T) {
	shared := NewTestbed(3)
	price := func(arch *nn.Arch) func() (any, error) {
		return func() (any, error) {
			req, err := shared.Request(arch, 60000)
			if err != nil {
				return nil, err
			}
			var costs []float64
			for _, u := range req.Users {
				costs = append(costs, u.Cost(100), u.Cost(6000), u.Cost(60000))
			}
			return costs, nil
		}
	}
	job := func(cfg JobConfig) func() (any, error) {
		return func() (any, error) { return buildJob(cfg.WithDefaults()) }
	}
	tasks := []func() (any, error){
		price(LeNet(1, 28, 28, 10)),
		price(LeNet(3, 32, 32, 10)),
		job(JobConfig{Testbed: 2, Samples: 200, TestSamples: 20, Seed: 4}),
		job(JobConfig{Testbed: 1, Dataset: "scifar", ClassesPerUser: 3, Scheduler: "fedminavg",
			Samples: 200, TestSamples: 20, Seed: 9}),
		func() (any, error) {
			r, err := fl.NewPopulationRunner(fl.PopulationConfig{
				Arch: LeNetSmall(1, 16, 16, 10), Population: device.NewPopulation(1000, 7),
				Sampler: sample.NewUniform(1000, 16, 7), TotalShards: 64,
			})
			if err != nil {
				return nil, err
			}
			return r.Round(0)
		},
	}
	want := make([]any, len(tasks))
	for i, task := range tasks {
		coldProfileMemo()
		var err error
		if want[i], err = task(); err != nil {
			t.Fatal(err)
		}
	}
	coldProfileMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range tasks {
				i := (g + k) % len(tasks)
				if got, err := tasks[i](); err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("task %d: concurrent result %+v, sequential %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestFacadeNamesHaveCallers holds the package to naming only what a
// program calls: every exported top-level name of fedsched.go must be
// used by some non-test file of the module other than fedsched.go. The
// module is loaded the way fedlint loads it — go/build file selection,
// then type-checking — so a use is an Info.Uses entry that resolves to an
// object declared in fedsched.go. A name only tests spell belongs in its
// home package under internal/.
func TestFacadeNamesHaveCallers(t *testing.T) {
	modPath, modDir, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := lint.PackageDirs(modPath, modDir)
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader(modPath, modDir)
	facade := filepath.Join(modDir, "fedsched.go")
	inFacade := func(obj types.Object) bool {
		return obj.Pkg() != nil && obj.Pkg().Path() == modPath && obj.Parent() == obj.Pkg().Scope() &&
			l.Fset.Position(obj.Pos()).Filename == facade
	}
	var declared []string
	used := map[string]bool{}
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if path == modPath {
			for _, n := range p.Types.Scope().Names() {
				if obj := p.Types.Scope().Lookup(n); obj.Exported() && inFacade(obj) {
					declared = append(declared, n)
				}
			}
		}
		for id, obj := range p.Info.Uses {
			file := l.Fset.Position(id.Pos()).Filename
			if file != facade && !strings.HasSuffix(file, "_test.go") && inFacade(obj) {
				used[obj.Name()] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("fedsched.go declares no exported names")
	}
	var unused []string
	for _, n := range declared {
		if !used[n] {
			unused = append(unused, n)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d of fedsched.go's %d exported names have no caller outside tests; "+
			"spell them in their home package instead: %s", len(unused), len(declared), strings.Join(unused, ", "))
	}
}
