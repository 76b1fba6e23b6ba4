package main

import (
	"math"
	"sort"
)

// metricDef names one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the baseline's median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Workloads lists where the metric is reported (nil = every workload).
	Workloads []string
	// Gated metrics are defined on every workload and never zero; they
	// are BENCHMARK.json's end_to_end list, which the driver bounds. The
	// others are reported by full runs and judged by -compare only.
	Gated bool
	Doc   string
}

var serveWorkloads = []string{"train_heavy", "round_churn", "engine_mix"}

// endToEndMetrics is every metric a user of the system would see. All are
// measured with span recording off.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "child spawn -> address file -> warm-up done (one untimed reduced job per distinct template; for pop_scale a short fedsim run, the 10^6-user request build and one untimed solve); median of the run's set-ups"},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true,
		Doc: "submitters x median over closed-loop iterations of completed rounds (server merges for async jobs) / iteration wall; on pop_scale, median over fedsim runs of population rounds / fedsim wall"},
	{Name: "job_latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "median POST sent -> terminal state observed, admission wait included (train_heavy: mean of the f64 and f32 medians); on pop_scale the operation is one sparse Fed-LBAP solve of the 10^6-user x 10^4-shard instance"},
	{Name: "cpu_s_per_kround", Unit: "s", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "child CPU seconds (utime+stime) over the timed phase per 1000 completed rounds; fedserve child, or the fedsim children on pop_scale"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "child peak resident set (VmHWM / rusage maxrss)"},
	{Name: "samples_per_s_f64", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: []string{"train_heavy"},
		Doc: "median over the float64 jobs of rounds x samples / job latency"},
	{Name: "samples_per_s_f32", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: []string{"train_heavy"},
		Doc: "the same over the float32 jobs"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: serveWorkloads,
		Doc: "submitters x median over closed-loop iterations of completed jobs / iteration wall"},
	{Name: "job_latency_p90_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: []string{"engine_mix"},
		Doc: "90th percentile job latency; reported only when at least 10 samples lie beyond it (>= 100 jobs)"},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0,
		Doc: "(jobs not completed + HTTP 429/5xx + rounds short of target + correctness-check failures) / operations attempted; expected 0"},
}

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, d := range endToEndMetrics {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}

func endToEndDef(name string) *metricDef {
	for i := range endToEndMetrics {
		if endToEndMetrics[i].Name == name {
			return &endToEndMetrics[i]
		}
	}
	return nil
}

// reportedOn says whether an end-to-end metric belongs to a workload.
func (d *metricDef) reportedOn(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// layerDef is a per-layer metric plus the prediction the issue asks for:
// which end-to-end metric it should move, on which workloads, and where a
// change to it should read "no change".
type layerDef struct {
	metricDef
	Layer    string
	Moves    []string // end-to-end metrics it should move
	On       []string // workloads where it should
	NoChange []string // workloads where the prediction is no change
}

func ld(layer, name, unit, better string, moves, on, noChange []string, doc string) layerDef {
	return layerDef{metricDef: metricDef{Name: name, Unit: unit, Better: better, Doc: doc},
		Layer: layer, Moves: moves, On: on, NoChange: noChange}
}

var (
	mvServe    = []string{"job_latency_p90_s", "jobs_per_s", "job_latency_p50_s"}
	mvRounds   = []string{"rounds_per_s"}
	mvTrain    = []string{"samples_per_s_f64", "samples_per_s_f32", "rounds_per_s", "cpu_s_per_kround"}
	mvPop      = []string{"rounds_per_s", "cpu_s_per_kround"}
	onMix      = []string{"engine_mix"}
	onChurn    = []string{"round_churn"}
	onTrain    = []string{"train_heavy"}
	onPop      = []string{"pop_scale"}
	onTrainish = []string{"train_heavy", "round_churn", "engine_mix"}
)

// layerDefs is BENCHMARK.json's per_layer list, in layer order.
var layerDefs = []layerDef{
	// serve: spans around the client's HTTP calls, plus the gap between
	// the daemon's running time and the replayed engine wall.
	ld("serve", "serve.submit_ms", "ms", "lower", mvServe, onMix, []string{"train_heavy", "pop_scale"}, "POST /jobs round trip, median"),
	ld("serve", "serve.admission_wait_ms", "ms", "lower", mvServe, onMix, []string{"train_heavy", "pop_scale"}, "POST returned -> first non-queued status, median"),
	ld("serve", "serve.run_ms", "ms", "lower", mvServe, onMix, []string{"pop_scale"}, "first running status -> terminal, median"),
	ld("serve", "serve.status_ms", "ms", "lower", mvServe, onMix, []string{"train_heavy", "pop_scale"}, "GET /jobs/{id} round trip, mean"),
	ld("serve", "serve.fetch_ms", "ms", "lower", mvServe, onMix, []string{"train_heavy", "pop_scale"}, "GET rounds + trace of a finished job, median"),
	ld("serve", "serve.trace_bytes", "B", "lower", []string{"peak_rss_mb"}, onChurn, []string{"pop_scale"}, "trace.jsonl bytes per job, mean"),
	ld("serve", "serve.rejected", "count", "lower", mvServe, onMix, []string{"train_heavy", "pop_scale"}, "submissions refused with 429"),
	ld("serve", "serve.overhead_ms", "ms", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "serve.run_ms minus the replayed engine wall: build, state files, resume writes"),
	ld("serve", "serve.resume_write_us", "us", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "tmp-write + rename of one round's resume snapshot (replica of serve's writeResume)"),

	ld("fl", "fl.round_ms", "ms", "lower", mvTrain, onTrainish, onPop, "replayed synchronous round wall, median"),
	ld("fl", "fl.rounds", "count", "higher", mvRounds, onTrainish, onPop, "replayed rounds timed"),
	ld("fl", "fl.round_self_ms", "ms", "lower", mvRounds, onChurn, onPop, "round minus the pool's client-training makespan minus eval minus sink: broadcast, aggregate, classify, checkpoint build, pool fork/join"),
	ld("fl", "fl.pool_efficiency", "share", "higher", mvTrain, onTrain, onPop, "sum of client train time / (workers x round wall)"),
	ld("fl", "fl.eval_ms", "ms", "lower", mvRounds, onChurn, onPop, "fl.Evaluate of the global model on the job's test set"),
	ld("fl", "fl.ckpt_encode_us", "us", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "Checkpoint.Save into memory, median per round"),
	ld("fl", "fl.ckpt_bytes", "B", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "encoded checkpoint size, mean per round"),
	ld("fl", "fl.ckpt_load_us", "us", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "fl.LoadCheckpoint of the final snapshot"),
	ld("fl", "fl.resume_restore_ms", "ms", "lower", mvRounds, onChurn, []string{"train_heavy", "pop_scale"}, "fl.Run resumed at NextRound == Rounds: pure restore cost"),
	ld("fl", "fl.build_clients_ms", "ms", "lower", []string{"job_latency_p50_s"}, onMix, onPop, "Testbed.Clients / fl.BuildClients"),
	ld("fl", "fl.async_run_ms", "ms", "lower", []string{"jobs_per_s"}, onMix, []string{"train_heavy", "round_churn", "pop_scale"}, "fl.RunAsync wall of the async template"),
	ld("fl", "fl.async_events", "count", "lower", []string{"jobs_per_s"}, onMix, []string{"train_heavy", "round_churn", "pop_scale"}, "cancel polls (virtual events) of that run"),
	ld("fl", "fl.gossip_run_ms", "ms", "lower", []string{"jobs_per_s"}, onMix, []string{"train_heavy", "round_churn", "pop_scale"}, "fl.RunGossip wall of the gossip template"),
	ld("fl", "fl.pop_round_us", "us", "lower", mvPop, onPop, onTrainish, "PopulationRunner.Round with faults, over-selection and tracing, median"),
	ld("fl", "fl.pop_round_plain_us", "us", "lower", mvPop, onPop, onTrainish, "the same round with no faults, no over-selection, no trace"),
	ld("fl", "fl.pop_runner_init_ms", "ms", "lower", []string{"setup_s"}, onPop, onTrainish, "fl.NewPopulationRunner (archetype profiling)"),

	ld("nn", "nn.forward_us_f64", "us", "lower", mvTrain, onTrain, onPop, "Network.Forward of one training batch, float64"),
	ld("nn", "nn.backward_us_f64", "us", "lower", mvTrain, onTrain, onPop, "loss gradient + Network.Backward, float64"),
	ld("nn", "nn.sgd_step_us_f64", "us", "lower", mvTrain, onTrain, onPop, "SGD.Step over all parameters, float64"),
	ld("nn", "nn.forward_us_f32", "us", "lower", mvTrain, onTrain, onPop, "Network.Forward of one training batch, float32"),
	ld("nn", "nn.backward_us_f32", "us", "lower", mvTrain, onTrain, onPop, "loss gradient + Network.Backward, float32"),
	ld("nn", "nn.sgd_step_us_f32", "us", "lower", mvTrain, onTrain, onPop, "SGD.Step over all parameters, float32"),
	ld("nn", "nn.weights_sync_us", "us", "lower", mvRounds, onChurn, onPop, "Trainer.SetWeights + Weights per client per round (f32 widening included)"),
	ld("nn", "nn.batches", "count", "lower", mvTrain, onTrain, onPop, "training batches one job runs"),

	ld("tensor", "tensor.conv_fwd_us_f64", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "ConvForwardInto over the arch's conv layers, per step, float64"),
	ld("tensor", "tensor.conv_bwd_us_f64", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "ConvGradWeightsInto + ConvGradInputInto, per step, float64"),
	ld("tensor", "tensor.dense_gemm_us_f64", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "the dense layers' three GEMMs, per step, float64"),
	ld("tensor", "tensor.gemm_gflops_f64", "GFLOP/s", "higher", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "gemm_flops_per_step / tensor time, float64"),
	ld("tensor", "tensor.conv_fwd_us_f32", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "ConvForwardInto, float32"),
	ld("tensor", "tensor.conv_bwd_us_f32", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "conv backward kernels, float32"),
	ld("tensor", "tensor.dense_gemm_us_f32", "us", "lower", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "dense GEMMs, float32"),
	ld("tensor", "tensor.gemm_gflops_f32", "GFLOP/s", "higher", mvTrain, onTrain, []string{"round_churn", "pop_scale"}, "gemm_flops_per_step / tensor time, float32"),
	ld("tensor", "tensor.gemm_flops_per_step", "FLOP", "lower", mvTrain, onTrain, []string{"pop_scale"}, "computed multiply-add count x 2 of one training step's GEMMs"),
	ld("tensor", "tensor.share_of_step", "share", "lower", mvTrain, onTrain, []string{"pop_scale"}, "tensor kernel time / nn step time: the most a kernel gain can give"),

	ld("sched", "sched.request_build_ms", "ms", "lower", []string{"job_latency_p50_s"}, onMix, []string{"train_heavy", "round_churn"}, "Testbed.Request: offline profiling + cost curves"),
	ld("sched", "sched.fedlbap_solve_us", "us", "lower", []string{"job_latency_p50_s"}, onMix, []string{"train_heavy", "round_churn"}, "dense Fed-LBAP at paper scale: 600 shards on testbed 3"),
	ld("sched", "sched.cohort_solve_us", "us", "lower", mvPop, onPop, []string{"train_heavy", "round_churn"}, "sparse Fed-LBAP of a 96-user, 600-shard hashed-jitter cohort"),
	ld("sched", "sched.sparse_solve_ms", "ms", "lower", []string{"job_latency_p50_s"}, onPop, []string{"train_heavy", "round_churn"}, "sparse Fed-LBAP of the 10^6-user instance"),
	ld("sched", "sched.makespan_vs_prop", "ratio", "lower", []string{"rounds_per_s"}, onPop, nil, "Fed-LBAP predicted makespan / Proportional's on the paper-scale request; a deterministic quality count"),

	ld("sim", "sample.cohort_us", "us", "lower", mvPop, onPop, onChurn, "Cooldown(Uniform).Cohort at n = 10^6"),
	ld("sim", "device.materialize_us", "us", "lower", mvPop, onPop, onChurn, "Population.Materialize of one client"),
	ld("sim", "device.train_sim_us", "us", "lower", mvPop, []string{"pop_scale", "engine_mix"}, onChurn, "Device.TrainSamples of one shard-sized local epoch"),
	ld("sim", "fault.draw_ns", "ns", "lower", mvPop, onPop, onChurn, "Plan.Fault for one (round, client)"),
	ld("sim", "profile.build_offline_ms", "ms", "lower", []string{"setup_s"}, onPop, onChurn, "profile.BuildOffline of one device over the arch suite"),

	ld("trace", "trace.events_per_round", "count", "lower", mvRounds, []string{"round_churn", "pop_scale"}, onTrain, "trace events per completed round"),
	ld("trace", "trace.bytes_per_round", "B", "lower", mvRounds, []string{"round_churn", "pop_scale"}, onTrain, "JSONL bytes per completed round"),
	ld("trace", "trace.stream_flush_us", "us", "lower", mvRounds, onChurn, onTrain, "Stream.Flush of one round's events, median"),
	ld("trace", "trace.export_us_per_kevent", "us", "lower", mvPop, onPop, onTrain, "trace.WriteJSONL per 1000 events"),

	ld("data", "data.generate_ms", "ms", "lower", []string{"job_latency_p50_s"}, onMix, []string{"train_heavy", "round_churn", "pop_scale"}, "synthetic train + test set generation"),
	ld("data", "data.partition_ms", "ms", "lower", []string{"job_latency_p50_s"}, onMix, []string{"train_heavy", "round_churn", "pop_scale"}, "IIDSizes / IIDEqual + Materialize"),

	ld("bench", "trace_overhead_pct", "%", "lower", nil, nil, nil, "traced-pass job latency vs the same jobs with spans off"),
}

// layerMetrics is layerDefs as plain metric definitions.
var layerMetrics = func() []metricDef {
	out := make([]metricDef, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = d.metricDef
	}
	return out
}()

// ---- statistics ----

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics; NaN for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sum(v) / float64(len(v))
}

// tailPercentiles are the candidates for "the highest percentile that has
// at least ten samples beyond it", each with the samples per thousand that
// lie beyond it.
var tailPercentiles = []struct {
	p         float64
	beyondPer int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}}

// highestPercentile returns the highest of tailPercentiles that n samples
// support — at least ten of them lie beyond it — or 0 when not even p90
// does and only the median may be reported.
func highestPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyondPer >= 10*1000 {
			return c.p
		}
	}
	return 0
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// how the benchmark's acceptance check computes them. v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median — the figure BENCHMARK.json's bounds are checked against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 { //fedlint:allow floateq — guards the division below against an exact 0
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}
