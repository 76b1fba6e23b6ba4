// Command fedsim regenerates the paper's tables and figures from the
// simulation substrate. Run `fedsim -list` to see experiment ids, `fedsim
// -exp fig5` for one experiment, or `fedsim -exp all` for everything.
//
// Population mode (`fedsim -population 1000000 -cohort 64`) simulates
// scheduling rounds over a synthetic client fleet far beyond testbed
// scale: a sampler draws each round's cohort, the sparsified Fed-LBAP
// solver partitions the round's shards, and only the selected clients
// are ever materialized — memory stays O(cohort) however large the
// fleet.
//
// The round trace of a run (schedule assignments, solver probes,
// per-client compute/comm/energy/throttle events, round summaries) can be
// captured with `-trace out.jsonl` / `-trace-csv out.csv` and summarized
// with `-trace-summary`; at a fixed seed the trace is byte-identical for
// any `-workers` value.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"fedsched/internal/device"
	"fedsched/internal/experiments"
	"fedsched/internal/fault"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (fig1..fig7, tab2..tab5) or 'all'")
		quick     = flag.Bool("quick", false, "reduced workloads for a fast pass")
		seed      = flag.Int64("seed", 1, "random seed")
		list      = flag.Bool("list", false, "list experiment ids")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		workers   = flag.Int("workers", 0, "concurrent client training per round (0 = GOMAXPROCS, <0 = sequential); results are seed-identical for any value")
		precision = flag.String("precision", "f64", "client training precision for accuracy experiments: f32 | f64")
		traceOut  = flag.String("trace", "", "write the run's round trace to this JSONL file")
		traceCSV  = flag.String("trace-csv", "", "write the run's round trace to this CSV file")
		traceSum  = flag.Bool("trace-summary", false, "print a per-round trace summary table to stderr")
		traceCap  = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default 65536; oldest events are dropped beyond it)")

		population  = flag.Int("population", 0, "population mode: simulate scheduling rounds over this many synthetic clients (0 = off)")
		cohort      = flag.Int("cohort", 64, "population mode: clients sampled per round")
		popRounds   = flag.Int("pop-rounds", 5, "population mode: rounds to simulate")
		popShards   = flag.Int("pop-shards", 600, "population mode: data shards scheduled per round")
		samplerName = flag.String("sampler", "uniform", "population mode: cohort sampler, 'uniform' or 'window' (availability windows)")
		windowHours = flag.Float64("window-hours", 6, "population mode: availability window length for -sampler window")
		battery     = flag.Float64("battery-budget", 0, "population mode: per-round battery budget fraction capping each client's shards (0 = uncapped)")

		faults     = flag.String("faults", "", "fault scenario, e.g. 'crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=4' (empty = no faults)")
		faultSeed  = flag.Int64("fault-seed", 0, "seed for the fault plan (0 = derive from -seed)")
		overselect = flag.Float64("overselect", 0, "population mode: over-selection margin — grow the cohort to ceil(cohort*(1+margin)) and set the quorum to the original size")
		quorum     = flag.Int("quorum", 0, "population mode: close each round after this many surviving clients (0 = wait for all; implied by -overselect)")
		minPart    = flag.Int("min-participants", 0, "population mode: mark rounds with fewer surviving participants as failed (0 = off)")
		cooldown   = flag.Int("cooldown", 0, "population mode: skip failed clients for this many rounds, doubling per repeat failure (0 = off)")
	)
	flag.Parse()
	if *population > 0 {
		var rec *trace.Recorder
		if *traceOut != "" || *traceCSV != "" || *traceSum {
			rec = trace.New(*traceCap)
		}
		err := runPopulation(populationOpts{
			n: *population, cohort: *cohort, rounds: *popRounds, shards: *popShards,
			sampler: *samplerName, windowHours: *windowHours, battery: *battery,
			seed: *seed, workers: *workers, rec: rec,
			faults: *faults, faultSeed: *faultSeed, overselect: *overselect,
			quorum: *quorum, minParticipants: *minPart, cooldown: *cooldown,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "population: %v\n", err)
			os.Exit(1)
		}
		if err := trace.Export(rec, *traceOut, *traceCSV, *traceSum, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	prec, err := nn.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers, Precision: prec}
	if *traceOut != "" || *traceCSV != "" || *traceSum {
		opts.Trace = trace.New(*traceCap)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		d, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		rep, err := d(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			for _, t := range rep.Tables {
				fmt.Printf("# %s — %s\n%s\n", rep.ID, t.Title, t.CSV())
			}
		} else {
			fmt.Println(rep.String())
		}
	}
	if err := trace.Export(opts.Trace, *traceOut, *traceCSV, *traceSum, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

type populationOpts struct {
	n, cohort, rounds, shards int
	sampler                   string
	windowHours               float64
	battery                   float64
	seed                      int64
	workers                   int
	rec                       *trace.Recorder

	faults          string
	faultSeed       int64
	overselect      float64
	quorum          int
	minParticipants int
	cooldown        int
}

// runPopulation executes population mode and prints one line per round.
func runPopulation(o populationOpts) error {
	pop := device.NewPopulation(o.n, o.seed)
	plan, err := fault.ParseSpec(o.faults, fault.PlanSeed(o.faultSeed, o.seed))
	if err != nil {
		return err
	}
	// Over-selection: draw a larger cohort and keep only the first
	// `cohort` survivors, so faults and stragglers eat the margin.
	drawn, q := o.cohort, o.quorum
	if o.overselect > 0 {
		drawn = int(math.Ceil(float64(o.cohort) * (1 + o.overselect)))
		if q <= 0 {
			q = o.cohort
		}
	}
	var s sample.Sampler
	switch o.sampler {
	case "uniform":
		s = sample.NewUniform(o.n, drawn, o.seed)
	case "window":
		a := sample.NewAvailability(o.n, drawn, o.seed)
		a.WindowHours = o.windowHours
		s = a
	default:
		return fmt.Errorf("unknown sampler %q (use 'uniform' or 'window')", o.sampler)
	}
	if o.cooldown > 0 {
		s = sample.NewCooldown(s, o.cooldown)
	}
	cfg := fl.PopulationConfig{
		Arch:            nn.LeNetSmall(1, 16, 16, 10),
		Population:      pop,
		Sampler:         s,
		Rounds:          o.rounds,
		TotalShards:     o.shards,
		Workers:         o.workers,
		BatteryBudget:   o.battery,
		Faults:          plan,
		Quorum:          q,
		MinParticipants: o.minParticipants,
		Trace:           o.rec,
	}
	hist, err := fl.SimulatePopulationRounds(cfg)
	// A mid-run error still returns the completed rounds; print them
	// before reporting the failure.
	if err == nil || (hist != nil && len(hist.Rounds) > 0) {
		fmt.Printf("population %d, cohort %d (%s), %d shards/round, %d rounds",
			o.n, drawn, s.Name(), o.shards, o.rounds)
		if plan != nil {
			fmt.Printf(", faults %s (seed %d)", plan, plan.Seed)
		}
		if q > 0 {
			fmt.Printf(", quorum %d", q)
		}
		fmt.Println()
		fmt.Printf("%5s %8s %12s %10s %10s %10s %9s %9s %7s %5s %6s\n",
			"round", "selected", "participants", "samples", "pred(s)", "actual(s)", "energy(J)", "straggler", "faults", "late", "status")
		for _, r := range hist.Rounds {
			status := "ok"
			if r.Failed {
				status = "FAILED"
			}
			fmt.Printf("%5d %8d %12d %10d %10.2f %10.2f %9.1f %9d %7d %5d %6s\n",
				r.Round, r.Selected, r.Participants, r.Samples, r.PredictedS, r.MakespanS, r.EnergyJ, r.Straggler,
				r.Faulted, r.Late, status)
		}
		fmt.Printf("total: %.2f virtual seconds, %.1f J across cohorts\n", hist.TotalSeconds, hist.TotalEnergyJ)
	}
	return err
}
