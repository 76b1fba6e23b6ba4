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
		workers   = flag.Int("workers", 0, "concurrent client training per round; in population mode, ≥2 plays a batch of rounds on one goroutine while another plans the next (0 = GOMAXPROCS, <0 = sequential); results are seed-identical for any value")
		precision = flag.String("precision", "f64", "client training precision for accuracy experiments: f32 | f64")
		traceOut  = flag.String("trace", "", "write the run's round trace to this JSONL file")
		traceCSV  = flag.String("trace-csv", "", "write the run's round trace to this CSV file")
		traceSum  = flag.Bool("trace-summary", false, "print a per-round trace summary table to stderr")
		traceCap  = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default 65536; oldest events are dropped beyond it)")

		population  = flag.Int("population", 0, "population mode: simulate scheduling rounds over this many synthetic clients (0 = off)")
		cohort      = flag.Int("cohort", 64, "population mode: clients sampled per round")
		samplerName = flag.String("sampler", "uniform", "population mode: cohort sampler, 'uniform' or 'window' (availability windows)")
		windowHours = flag.Float64("window-hours", 6, "population mode: availability window length for -sampler window")

		faults     = flag.String("faults", "", "fault scenario, e.g. 'crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=4' (empty = no faults)")
		faultSeed  = flag.Int64("fault-seed", 0, "seed for the fault plan (0 = derive from -seed)")
		overselect = flag.Float64("overselect", 0, "population mode: over-selection margin — grow the cohort to ceil(cohort*(1+margin)) and set the quorum to the original size")
		cooldown   = flag.Int("cooldown", 0, "population mode: skip failed clients for this many rounds, doubling per repeat failure (0 = off)")

		pc fl.PopulationConfig
	)
	flag.IntVar(&pc.Rounds, "pop-rounds", 5, "population mode: rounds to simulate")
	flag.IntVar(&pc.TotalShards, "pop-shards", 600, "population mode: data shards scheduled per round")
	flag.Float64Var(&pc.BatteryBudget, "battery-budget", 0, "population mode: per-round battery budget fraction capping each client's shards (0 = uncapped)")
	flag.IntVar(&pc.Quorum, "quorum", 0, "population mode: close each round after this many surviving clients (0 = wait for all; implied by -overselect)")
	flag.IntVar(&pc.MinParticipants, "min-participants", 0, "population mode: mark rounds with fewer surviving participants as failed (0 = off)")
	flag.Parse()
	if *population > 0 {
		if err := checkPopulationFlags(*population, *cohort, *windowHours, *overselect, *cooldown); err != nil {
			fmt.Fprintf(os.Stderr, "population: %v\n", err)
			os.Exit(2)
		}
		pc.Arch = nn.LeNetSmall(1, 16, 16, 10)
		pc.Population = device.NewPopulation(*population, *seed)
		pc.Workers = *workers
		if *traceOut != "" || *traceCSV != "" || *traceSum {
			pc.Trace = trace.New(*traceCap)
		}
		plan, err := fault.ParseSpec(*faults, fault.PlanSeed(*faultSeed, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "population: %v\n", err)
			os.Exit(1)
		}
		pc.Faults = plan
		// Over-selection: draw a larger cohort and keep only the first
		// `cohort` survivors, so faults and stragglers eat the margin.
		drawn := *cohort
		if *overselect > 0 {
			drawn = int(math.Ceil(float64(*cohort) * (1 + *overselect)))
			if pc.Quorum <= 0 {
				pc.Quorum = *cohort
			}
		}
		switch *samplerName {
		case "uniform":
			pc.Sampler = sample.NewUniform(*population, drawn, *seed)
		case "window":
			a := sample.NewAvailability(*population, drawn, *seed)
			a.WindowHours = *windowHours
			pc.Sampler = a
		default:
			fmt.Fprintf(os.Stderr, "population: unknown sampler %q (use 'uniform' or 'window')\n", *samplerName)
			os.Exit(1)
		}
		if *cooldown > 0 {
			pc.Sampler = sample.NewCooldown(pc.Sampler, *cooldown)
		}
		if err := runPopulation(pc, drawn); err != nil {
			fmt.Fprintf(os.Stderr, "population: %v\n", err)
			os.Exit(1)
		}
		if err := trace.Export(pc.Trace, *traceOut, *traceCSV, *traceSum, os.Stderr, os.Stderr); err != nil {
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
	if err := trace.Export(opts.Trace, *traceOut, *traceCSV, *traceSum, os.Stderr, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

// checkPopulationFlags rejects the population-mode flags the sampler
// constructors would otherwise clamp or ignore; the runner itself
// rejects negative rounds, shards, quorum and floor, and a battery
// budget outside [0, 1].
func checkPopulationFlags(population, cohort int, windowHours, overselect float64, cooldown int) error {
	switch {
	case cohort < 1 || cohort > population:
		return fmt.Errorf("-cohort %d outside [1, %d]", cohort, population)
	case !(windowHours > 0):
		return fmt.Errorf("-window-hours %g, want > 0", windowHours)
	case !(overselect >= 0):
		return fmt.Errorf("-overselect %g, want ≥ 0", overselect)
	case cooldown < 0:
		return fmt.Errorf("-cooldown %d, want ≥ 0", cooldown)
	}
	return nil
}

// runPopulation runs population mode over cfg, whose sampler draws
// cohorts of drawn clients, and prints one line per round.
func runPopulation(cfg fl.PopulationConfig, drawn int) error {
	hist, err := fl.SimulatePopulationRounds(cfg)
	// A mid-run error still returns the completed rounds; print them
	// before reporting the failure.
	if err == nil || (hist != nil && len(hist.Rounds) > 0) {
		fmt.Printf("population %d, cohort %d (%s), %d shards/round, %d rounds",
			cfg.Population.N, drawn, cfg.Sampler.Name(), cfg.TotalShards, cfg.Rounds)
		if cfg.Faults != nil {
			fmt.Printf(", faults %s (seed %d)", cfg.Faults, cfg.Faults.Seed)
		}
		if cfg.Quorum > 0 {
			fmt.Printf(", quorum %d", cfg.Quorum)
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
