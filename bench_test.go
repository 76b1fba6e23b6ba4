// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the artifact end-to-end in quick mode), plus paper-scale
// micro-benchmarks of the scheduling algorithms themselves. Run with
//
//	go test -bench=. -benchmem
//
// Accuracy-bearing artifacts (fig2, fig3*, tab3, tab5, fig6) perform real
// gradient descent and take tens of seconds per iteration; use
// -benchtime=1x for a single regeneration of each.
package fedsched_test

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/experiments"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	d, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Motivation study (paper §III).
func BenchmarkFig1BatchTraces(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkTable2EpochTimes(b *testing.B) { benchExperiment(b, "tab2") }

// Data-distribution studies (paper §III-B/C).
func BenchmarkFig2IIDImbalance(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3aNClassNonIID(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3bOutliers(b *testing.B)     { benchExperiment(b, "fig3b") }

// Profiler (paper §IV-B).
func BenchmarkFig4Profiler(b *testing.B) { benchExperiment(b, "fig4") }

// IID scheduling evaluation (paper §VII-A).
func BenchmarkFig5IIDTime(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkTable3IIDAccuracy(b *testing.B) { benchExperiment(b, "tab3") }

// Non-IID scheduling evaluation (paper §VII-B).
func BenchmarkFig6AlphaBeta(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkTable4Schedules(b *testing.B)      { benchExperiment(b, "tab4") }
func BenchmarkFig7NonIIDTime(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkTable5NonIIDAccuracy(b *testing.B) { benchExperiment(b, "tab5") }

// Paper-scale scheduler micro-benchmarks: 600 shards (60K samples) on the
// 10-device Testbed III — the algorithmic hot path isolated from the
// simulators.
func paperScaleRequest(b *testing.B) *fedsched.Request {
	b.Helper()
	tb := fedsched.NewTestbed(3)
	req, err := tb.Request(fedsched.LeNet(1, 28, 28, 10), 60000)
	if err != nil {
		b.Fatal(err)
	}
	return req
}

func BenchmarkFedLBAPPaperScale(b *testing.B) {
	req := paperScaleRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedsched.FedLBAP.Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedMinAvgPaperScale(b *testing.B) {
	req := paperScaleRequest(b)
	req.K, req.Alpha, req.Beta = 10, 1000, 2
	for j, u := range req.Users {
		u.Classes = []int{j % 10, (j + 3) % 10, (j + 6) % 10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedsched.FedMinAvg.Schedule(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatedEpochTestbed3(b *testing.B) {
	tb := fedsched.NewTestbed(3)
	arch := fedsched.LeNet(1, 28, 28, 10)
	req, err := tb.Request(arch, 60000)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := fedsched.FedLBAP.Schedule(req, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.SimulateRounds(arch, asg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-engine benchmarks: the same federated run on Testbed II
// (6 devices), serial vs the bounded worker pool. Results are
// bit-identical by construction (see internal/fl/parallel_test.go); this
// pair measures only the wall-clock difference. The pool sizes itself
// from GOMAXPROCS, so the speedup tracks the core count of the machine
// running the benchmark. The partition is the one BuildJob makes for a
// 1,200-sample testbed-2 job (train_heavy's): Fed-LBAP's deliberately
// unequal shards, so the pool's load balance shows.
func benchFederated(b *testing.B, workers int) {
	b.Helper()
	prevLanes := tensor.MaxLanes()
	tensor.SetMaxLanes(runtime.GOMAXPROCS(0) - 1)
	defer tensor.SetMaxLanes(prevLanes)

	tb := fedsched.NewTestbed(2)
	train := fedsched.SMNIST(1200, 1)
	test := fedsched.SMNIST(200, 2)
	job, err := fedsched.BuildJob(fedsched.JobConfig{Testbed: 2, Samples: train.Len()}.WithDefaults(), nil)
	if err != nil {
		b.Fatal(err)
	}
	part := data.IIDSizes(train, job.Sizes, rand.New(rand.NewSource(1)))
	cfg := fedsched.RunConfig{
		Arch: fedsched.LeNetSmall(1, 16, 16, 10), Rounds: 2, BatchSize: 20,
		LR: 0.02, Momentum: 0.9, Seed: 1, Workers: workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFederated(cfg, train, part, test); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSerial(b *testing.B)   { benchFederated(b, 1) }
func BenchmarkRunParallel(b *testing.B) { benchFederated(b, 0) }

// GEMM benchmarks over the real layer shapes of the paper's two models at
// batch 20, one triple per model covering the three kernels a training
// step issues: forward A·Bᵀ (im2col rows × filters), input-gradient A·B
// and weight-gradient Aᵀ·B. The naive-vs-blocked kernel pairs on the
// same shapes are in internal/tensor.
func benchGEMMLayer[T tensor.Float](b *testing.B, m, k, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandnOf[T](rng, 1, m, k) // activations / im2col rows
	w := tensor.RandnOf[T](rng, 1, n, k) // weights (out, in)
	g := tensor.RandnOf[T](rng, 1, m, n) // output gradient
	fwd := tensor.NewOf[T](m, n)
	dx := tensor.NewOf[T](m, k)
	dw := tensor.NewOf[T](n, k)
	var elem T
	b.SetBytes(int64(unsafe.Sizeof(elem)) * int64(3*(m*k+n*k+m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransBInto(fwd, a, w) // forward
		tensor.MatMulInto(dx, g, w)        // input gradient
		tensor.MatMulTransAInto(dw, g, a)  // weight gradient
	}
}

// LeNet conv2 at 28×28 input: m = 20·8·8 im2col rows, k = 20·5·5, n = 40.
func BenchmarkGEMM_LeNet(b *testing.B) { benchGEMMLayer[float64](b, 1280, 500, 40) }

// VGG6 block-3 conv at 28×28 input: m = 20·7·7, k = 80·3·3, n = 96.
func BenchmarkGEMM_VGG6(b *testing.B) { benchGEMMLayer[float64](b, 980, 720, 96) }

// The same triples on the float32 kernels (SIMD micro-kernel on amd64,
// half the memory traffic).
func BenchmarkGEMMF32_LeNet(b *testing.B) { benchGEMMLayer[float32](b, 1280, 500, 40) }
func BenchmarkGEMMF32_VGG6(b *testing.B)  { benchGEMMLayer[float32](b, 980, 720, 96) }

// Extension experiments (ablations and optional directions).
func BenchmarkExtEnergy(b *testing.B)      { benchExperiment(b, "ext-energy") }
func BenchmarkExtAsync(b *testing.B)       { benchExperiment(b, "ext-async") }
func BenchmarkExtSecAgg(b *testing.B)      { benchExperiment(b, "ext-secagg") }
func BenchmarkExtGossip(b *testing.B)      { benchExperiment(b, "ext-gossip") }
func BenchmarkExtDP(b *testing.B)          { benchExperiment(b, "ext-dp") }
func BenchmarkExtGranularity(b *testing.B) { benchExperiment(b, "ext-granularity") }
func BenchmarkExtDropout(b *testing.B)     { benchExperiment(b, "ext-dropout") }
func BenchmarkExtAdaptive(b *testing.B)    { benchExperiment(b, "ext-adaptive") }

// Population-scale scheduling benchmarks: the Fed-LBAP solver and the
// O(selected) population round loop at fleet sizes from 10^3 to 10^6
// clients; the headline target is a sub-second n=10^6, s=10^4 solve
// (bench/'s pop_scale workload gates both end to end). Cost curves are
// deterministic hashed-jitter lines (no math/rand in the hot loop), the
// same instance family the dense-oracle equivalence tests use.
func populationRequest(n int) *fedsched.Request {
	users := make([]*fedsched.User, n)
	for j := range users {
		h := uint64(j)*0x9e3779b97f4a7c15 + 1
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		a := 0.5 + float64(h%1000)/500
		slope := 0.005 + float64((h>>10)%1000)/50000
		users[j] = &fedsched.User{
			Cost:        func(samples int) float64 { return a + slope*float64(samples) },
			CommSeconds: 1 + float64((h>>20)%100)/100,
		}
	}
	s := n / 100
	if s < 100 {
		s = 100
	}
	return &fedsched.Request{TotalShards: s, ShardSize: 100, Users: users}
}

func BenchmarkFedLBAPFleet(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			req := populationRequest(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fedsched.FedLBAP.Schedule(req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// What pop_scale times, in process: one fedsim population run at the
// benchmark's settings — 10^6 clients, a cohort of 64 over-selected by
// half under the benchmark's fault plan, quorum 64, participation floor
// 32, cooldown 2 — for 1,000 rounds through SimulatePopulationRounds at
// the default Workers (so pipelined wherever a second lane is free),
// traced, with the trace exported as JSONL into a temp dir. Runner
// construction (archetype profiling) is inside the timer, as it is in
// fedsim; the process-wide profile memo makes it cheap after the first
// iteration. `make profile-pop` profiles this.
func BenchmarkPopulationRun(b *testing.B) {
	const n, cohort = 1_000_000, 64
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := fault.ParseSpec("crash=0.2,battery=0.05,flap=0.1,corrupt=0.05,degrade=0.3,slow=4", 12)
		if err != nil {
			b.Fatal(err)
		}
		rec := trace.New(0)
		_, err = fl.SimulatePopulationRounds(fl.PopulationConfig{
			Arch:            fedsched.LeNetSmall(1, 16, 16, 10),
			Population:      device.NewPopulation(n, 5),
			Sampler:         sample.NewCooldown(sample.NewUniform(n, cohort*3/2, 5), 2),
			Rounds:          1000,
			Faults:          plan,
			Quorum:          cohort,
			MinParticipants: cohort / 2,
			Trace:           rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.Export(rec, filepath.Join(dir, "trace.jsonl"), "", false, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One full population round — sample, materialize, solve, simulate,
// reduce — at a fixed cohort of 64 across fleet sizes. Runner
// construction (archetype profiling) happens outside the timer; the
// per-round cost must stay flat as n grows, the tentpole O(selected)
// claim in benchmark form.
func BenchmarkRoundLoop(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := fl.NewPopulationRunner(fl.PopulationConfig{
				Arch:       fedsched.LeNetSmall(1, 16, 16, 10),
				Population: device.NewPopulation(n, 42),
				Sampler:    sample.NewUniform(n, 64, 42),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Round(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
