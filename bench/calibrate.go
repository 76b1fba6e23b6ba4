package main

import (
	"bytes"
	"io"
	"math/rand"
	"time"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
	"fedsched/internal/profile"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// The calibrations time the inner layers a job exercises, with the job's
// exact architecture, batch size, precision and counts, through exported
// functions only. Each figure is the median over reps calls after one
// untimed call (which sizes the lazily-grown workspaces).

// calReps scales a calibration's repetition count: a smoke run only
// checks that the calibration works, so it takes a fifth (at least 3).
func (sz size) calReps(n int) int {
	if sz.smoke {
		return max(3, n/5)
	}
	return n
}

// medianOf times f reps times after one warm call and returns the median
// in seconds.
func medianOf(reps int, f func()) float64 {
	f()
	t := make([]float64, reps)
	for i := range t {
		t0 := time.Now()
		f()
		t[i] = time.Since(t0).Seconds()
	}
	return median(t)
}

// stepCal is one training step split at nn's public boundaries.
type stepCal struct {
	ForwardS, BackwardS, SGDS float64
}

func (s stepCal) total() float64 { return s.ForwardS + s.BackwardS + s.SGDS }

// calibrateStep times Forward, loss gradient + Backward, and the SGD step
// on one real batch of the job's training set.
func calibrateStep[T tensor.Float](sz size, arch *nn.Arch, train *data.Dataset, batch int, lr, momentum float64) stepCal {
	reps := sz.calReps(40)
	net := nn.BuildNetwork[T](arch, rand.New(rand.NewSource(1)))
	opt := nn.NewSGDOf[T](lr, momentum, 0)
	params := net.Params()
	x64, labels := train.Batch(0, min(batch, train.Len()))
	x := tensor.NewOf[T](x64.Shape()...)
	for i, v := range x64.Data() {
		x.Data()[i] = T(v)
	}
	var grad *tensor.TensorOf[T]
	fwd, bwd, sgd := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for i := -2; i < reps; i++ { // two untimed steps size every workspace
		t0 := time.Now()
		logits := net.Forward(x, true)
		t1 := time.Now()
		grad = tensor.EnsureShape(grad, logits.Dim(0), logits.Dim(1))
		nn.SoftmaxCrossEntropyInto(grad, logits, labels)
		net.Backward(grad)
		t2 := time.Now()
		opt.Step(params)
		t3 := time.Now()
		if i >= 0 {
			fwd[i], bwd[i], sgd[i] = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
		}
	}
	return stepCal{ForwardS: median(fwd), BackwardS: median(bwd), SGDS: median(sgd)}
}

// tensorCal is the tensor kernels of one training step.
type tensorCal struct {
	ConvFwdS, ConvBwdS, DenseS float64
	Flops                      float64 // computed: 2 x multiply-adds of every GEMM timed
}

func (t tensorCal) total() float64 { return t.ConvFwdS + t.ConvBwdS + t.DenseS }

// calibrateTensor walks the built network's layers after one forward pass
// (which fixes every conv layer's input geometry) and times the kernels
// nn issues for each at that shape: for a conv layer ConvForwardInto,
// ConvGradWeightsInto and ConvGradInputInto; for a dense layer the
// forward A.Bt, the input-gradient A.B and the weight-gradient At.B.
func calibrateTensor[T tensor.Float](sz size, arch *nn.Arch, batch int) tensorCal {
	reps := sz.calReps(30)
	rng := rand.New(rand.NewSource(1))
	net := nn.BuildNetwork[T](arch, rng)
	net.Forward(tensor.NewOf[T](batch, arch.InC, arch.InH, arch.InW), false)
	var c tensorCal
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Conv2DOf[T]:
			oh, ow := l.OutSize(l.InH, l.InW)
			m, k := batch*oh*ow, l.InC*l.K*l.K
			x := tensor.RandnOf[T](rng, 1, batch, l.InC, l.InH, l.InW)
			w := tensor.RandnOf[T](rng, 1, l.OutC, k)
			bias := tensor.RandnOf[T](rng, 1, l.OutC)
			ym, gm := tensor.NewOf[T](m, l.OutC), tensor.RandnOf[T](rng, 1, m, l.OutC)
			dw, dx := tensor.NewOf[T](l.OutC, k), tensor.NewOf[T](batch, l.InC, l.InH, l.InW)
			c.ConvFwdS += medianOf(reps, func() { tensor.ConvForwardInto(ym, x, w, bias, l.K, l.K, l.Stride, l.Pad) })
			c.ConvBwdS += medianOf(reps, func() {
				tensor.ConvGradWeightsInto(dw, gm, x, l.K, l.K, l.Stride, l.Pad)
				tensor.ConvGradInputInto(dx, gm, w, l.K, l.K, l.Stride, l.Pad)
			})
			c.Flops += 3 * 2 * float64(m) * float64(k) * float64(l.OutC)
		case *nn.DenseOf[T]:
			a := tensor.RandnOf[T](rng, 1, batch, l.In)
			w := tensor.RandnOf[T](rng, 1, l.Out, l.In)
			bias := tensor.RandnOf[T](rng, 1, l.Out)
			g := tensor.RandnOf[T](rng, 1, batch, l.Out)
			y, dx, dw := tensor.NewOf[T](batch, l.Out), tensor.NewOf[T](batch, l.In), tensor.NewOf[T](l.Out, l.In)
			c.DenseS += medianOf(reps, func() {
				tensor.MatMulTransBBiasInto(y, a, w, bias)
				tensor.MatMulInto(dx, g, w)
				tensor.MatMulTransAInto(dw, g, a)
			})
			c.Flops += 3 * 2 * float64(batch) * float64(l.In) * float64(l.Out)
		}
	}
	return c
}

// jobCal is every inner-layer figure of one job template.
type jobCal struct {
	Step   stepCal
	Tensor tensorCal
	// EvalS is fl.Evaluate of a float64 model on the job's test set.
	EvalS float64
	// SyncS is Trainer.SetWeights + Weights at the job's precision.
	SyncS float64
	// CkptLoadS and RestoreS apply to synchronous jobs.
	CkptLoadS, RestoreS float64
	// TrainSimS is Device.TrainSamples of a mean-sized local epoch.
	TrainSimS float64
}

func calibrateJob(sz size, r *replayed) (jobCal, error) {
	var c jobCal
	cfg, b := r.cfg, r.built
	if cfg.Precision == "f32" {
		c.Step = calibrateStep[float32](sz, b.arch, b.train, cfg.BatchSize, cfg.LR, cfg.Momentum)
		c.Tensor = calibrateTensor[float32](sz, b.arch, cfg.BatchSize)
	} else {
		c.Step = calibrateStep[float64](sz, b.arch, b.train, cfg.BatchSize, cfg.LR, cfg.Momentum)
		c.Tensor = calibrateTensor[float64](sz, b.arch, cfg.BatchSize)
	}

	global := b.arch.Build(rand.New(rand.NewSource(cfg.Seed)))
	c.EvalS = medianOf(5, func() { fl.Evaluate(global, b.test, 256) })

	prec, _ := nn.ParsePrecision(cfg.Precision) // validated when the job was built
	tr := nn.NewTrainer(prec, b.arch, rand.New(rand.NewSource(1)), cfg.LR, cfg.Momentum)
	gw := global.GetWeights()
	c.SyncS = medianOf(sz.calReps(20), func() {
		tr.SetWeights(gw)
		tr.Weights()
	})

	if cfg.Testbed > 0 {
		dev := device.New(device.Testbed(cfg.Testbed)[0])
		n := max(1, cfg.Samples/len(b.clients))
		c.TrainSimS = medianOf(sz.calReps(20), func() { dev.TrainSamples(b.arch, n, cfg.BatchSize) })
	}

	if cfg.Engine == "sync" && r.lastCk != nil {
		c.CkptLoadS = medianOf(5, func() { fl.LoadCheckpoint(bytes.NewReader(r.LastCkpt)) })
		// Pure restore: resume a fresh build at NextRound == Rounds with no
		// test set, so fl.Run restores every client and the model, runs no
		// round and evaluates nothing.
		var restore []float64
		for i := 0; i < 3; i++ {
			fresh, _, err := buildJob(cfg, nil, nil, 0, "")
			if err != nil {
				return c, err
			}
			ck, err := fl.LoadCheckpoint(bytes.NewReader(r.LastCkpt))
			if err != nil {
				return c, err
			}
			fresh.run.Resume = ck
			t0 := time.Now()
			if _, err := fl.Run(fresh.run, fresh.clients, nil); err != nil {
				return c, err
			}
			restore = append(restore, time.Since(t0).Seconds())
		}
		c.RestoreS = median(restore)
	}
	return c, nil
}

// schedCal is the paper-scale scheduler figures shared by the fedserve
// workloads: they depend on no job parameter.
type schedCal struct {
	RequestBuildS, FedLBAPSolveS, MakespanVsProp float64
}

func calibrateSched(sz size) (schedCal, error) {
	var c schedCal
	arch := fedsched.LeNet(1, 28, 28, 10)
	var req *fedsched.Request
	var err error
	// A fresh Testbed each time: Request caches its offline profiles.
	c.RequestBuildS = medianOf(sz.calReps(5), func() { req, err = fedsched.NewTestbed(3).Request(arch, 60000) })
	if err != nil {
		return c, err
	}
	var lbap *fedsched.Assignment
	c.FedLBAPSolveS = medianOf(sz.calReps(20), func() { lbap, err = fedsched.FedLBAP.Schedule(req, nil) })
	if err != nil {
		return c, err
	}
	prop, err := fedsched.Proportional.Schedule(req, nil)
	if err != nil {
		return c, err
	}
	c.MakespanVsProp = fedsched.Makespan(req, lbap) / fedsched.Makespan(req, prop)
	return c, nil
}

// simCal is the simulation substrate a population round leans on.
type simCal struct {
	CohortS, MaterializeS, TrainSimS, FaultDrawS, BuildOfflineS float64
	CohortSolveS, ExportPerKEventS                              float64
}

func calibrateSim(sz size, sh popShape, seed int64) (simCal, error) {
	var c simCal
	arch := nn.LeNetSmall(1, 16, 16, 10)
	smp := sample.NewCooldown(sample.NewUniform(sh.population, 96, seed), 2)
	dst := make([]int, 0, 96)
	round := 0
	c.CohortS = medianOf(sz.calReps(200), func() { dst = smp.Cohort(round, dst[:0]); round++ })

	pop := device.NewPopulation(sh.population, seed)
	var dev device.Device
	id := 0
	c.MaterializeS = medianOf(sz.calReps(2000), func() { pop.Materialize(id%sh.population, &dev); id += 7919 })
	c.TrainSimS = medianOf(sz.calReps(200), func() {
		pop.Materialize(id%sh.population, &dev)
		dev.TrainSamples(arch, fedsched.ShardSize*600/96, 20)
		id += 7919
	}) - c.MaterializeS

	plan, err := fault.ParseSpec(popFaults, seed+7)
	if err != nil {
		return c, err
	}
	const draws = 4096
	c.FaultDrawS = medianOf(20, func() {
		for i := 0; i < draws; i++ {
			plan.Fault(i>>6, i)
		}
	}) / draws

	c.BuildOfflineS = medianOf(3, func() {
		_, err = profile.BuildOffline(device.New(device.Nexus6P()), profile.Suite(1, 16, 16, 10), profile.DefaultSizes)
	})
	if err != nil {
		return c, err
	}

	cohort := populationRequest(96)
	cohort.TotalShards = 600
	c.CohortSolveS = medianOf(sz.calReps(50), func() { _, err = fedsched.FedLBAPSparse.Schedule(cohort, nil) })
	if err != nil {
		return c, err
	}

	events := make([]trace.Event, 1000)
	for i := range events {
		events[i] = trace.Event{Round: i, Client: i, Samples: 100, ComputeS: 1.5, CommS: 0.25, EnergyJ: 3.75, Battery: 0.5, TempC: 31}
	}
	c.ExportPerKEventS = medianOf(10, func() { err = trace.WriteJSONL(io.Discard, events) })
	return c, err
}
