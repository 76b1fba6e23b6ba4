// Command fedtrain runs end-to-end federated training on a simulated
// mobile testbed: pick a testbed, dataset, model, scheduler and options,
// get per-round progress and a final model checkpoint.
//
// Examples:
//
//	fedtrain -testbed 2 -dataset smnist -rounds 10
//	fedtrain -testbed 1 -dataset scifar -classes-per-user 3 -alpha 1000 -beta 2
//	fedtrain -testbed 2 -secure -deadline 200 -checkpoint model.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"fedsched"
	"fedsched/internal/trace"
)

func main() {
	// Every run-affecting flag is one field of the job schema fedserve
	// accepts; the remaining flags say where outputs go. A run that must
	// survive a crash is a fedserve job: the daemon resumes it, trace
	// included.
	var cfg fedsched.JobConfig
	flag.IntVar(&cfg.Testbed, "testbed", 2, "paper testbed (1, 2 or 3)")
	flag.StringVar(&cfg.Dataset, "dataset", "smnist", "dataset: smnist | scifar")
	flag.StringVar(&cfg.Scheduler, "scheduler", "fedlbap", "scheduler: fedlbap | fedminavg | prop | random | equal")
	flag.IntVar(&cfg.Rounds, "rounds", 10, "global rounds")
	flag.IntVar(&cfg.Samples, "samples", 3000, "training samples")
	flag.IntVar(&cfg.TestSamples, "test", 1000, "test samples")
	flag.Float64Var(&cfg.LR, "lr", 0.02, "learning rate")
	flag.Float64Var(&cfg.Momentum, "momentum", 0.9, "SGD momentum")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.StringVar(&cfg.Precision, "precision", "f64", "client training precision: f32 | f64 (server aggregation is always float64)")
	flag.IntVar(&cfg.ClassesPerUser, "classes-per-user", 0, "non-IID: classes per user (0 = IID)")
	flag.Float64Var(&cfg.Alpha, "alpha", 1000, "Fed-MinAvg accuracy-cost weight")
	flag.Float64Var(&cfg.Beta, "beta", 2, "Fed-MinAvg unseen-class reward")
	flag.BoolVar(&cfg.SecureAgg, "secure", false, "secure aggregation (pairwise masks)")
	flag.Float64Var(&cfg.DeadlineSeconds, "deadline", 0, "per-round deadline in seconds (0 = wait for all)")
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent client training per round (0 = GOMAXPROCS, <0 = sequential); results are seed-identical for any value")
	flag.StringVar(&cfg.Faults, "faults", "", "fault scenario, e.g. 'crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=4' (empty = no faults)")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 0, "seed for the fault plan (0 = derive from -seed)")
	flag.IntVar(&cfg.Quorum, "quorum", 0, "close each round after this many surviving updates, discarding later ones (0 = wait for all)")
	flag.IntVar(&cfg.MinParticipants, "min-participants", 0, "record rounds with fewer surviving updates as failed instead of aborting (0 = off)")
	var (
		ckpt     = flag.String("checkpoint", "", "write final model weights to this file")
		traceOut = flag.String("trace", "", "write the run's round trace to this JSONL file")
		traceCSV = flag.String("trace-csv", "", "write the run's round trace to this CSV file")
		traceSum = flag.Bool("trace-summary", false, "print a per-round trace summary table to stderr")
		traceCap = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default 65536)")
	)
	flag.Parse()

	// A flag's zero is a setting, the schema's zero is "unset": spell the
	// former the schema's way, and drop the Fed-MinAvg defaults the
	// schema only admits on a non-IID job.
	for _, v := range []*float64{&cfg.Momentum, &cfg.Alpha, &cfg.Beta} {
		if *v == 0 { //fedlint:allow floateq — an exact flag value, not an arithmetic result
			*v = -1
		}
	}
	if cfg.ClassesPerUser == 0 {
		cfg.Alpha, cfg.Beta = 0, 0
	}
	cfg = cfg.WithDefaults()

	var rec *trace.Recorder
	if *traceOut != "" || *traceCSV != "" || *traceSum {
		rec = trace.New(*traceCap)
	}
	job, err := fedsched.BuildJob(cfg, rec)
	check(err)
	if job.Assignment == nil {
		fatalf("fedtrain needs a device testbed (-testbed 1, 2 or 3)")
	}

	fmt.Printf("testbed %d (%d devices), %s on %s, scheduler %s\n",
		cfg.Testbed, len(job.Clients), job.Arch.Name, job.Test.Name, job.Assignment.Algorithm)
	fmt.Printf("schedule (samples): %v  — predicted makespan %.0f s at paper scale\n",
		job.Sizes, job.Assignment.PredictedMakespan)

	out, err := job.Run()
	hist := out.Sync
	if hist == nil || len(hist.Rounds) == 0 {
		check(err)
	}

	showFaults := job.Faults != nil || cfg.Quorum > 0
	for _, r := range hist.Rounds {
		dropped, faulted, late := 0, 0, 0
		for _, cr := range r.Clients {
			switch {
			case cr.Dropped:
				dropped++
			case cr.Fault != 0:
				faulted++
			case cr.Late:
				late++
			}
		}
		fmt.Printf("round %2d  makespan %7.2f s  loss %6.4f  accuracy %.4f  dropped %d",
			r.Round, r.Makespan, r.TrainLoss, r.Accuracy, dropped)
		if showFaults {
			fmt.Printf("  faulted %d  late %d", faulted, late)
			if r.Failed {
				fmt.Print("  FAILED")
			}
		}
		fmt.Println()
	}
	if err != nil {
		// The run died mid-way; the rounds above are what completed.
		fatalf("run aborted after %d rounds: %v", len(hist.Rounds), err)
	}
	fmt.Printf("\nfinal accuracy %.4f over %.0f simulated seconds (%.1f kJ total energy)\n",
		hist.FinalAccuracy, hist.TotalSeconds, hist.TotalEnergyJ/1000)
	if hist.Confusion != nil {
		worst, recall := hist.Confusion.WorstClass()
		fmt.Printf("macro recall %.4f; worst class %d at recall %.3f\n",
			hist.Confusion.MacroRecall(), worst, recall)
	}

	if *ckpt != "" {
		f, err := os.Create(*ckpt)
		check(err)
		check(hist.Model.SaveWeights(f))
		check(f.Close())
		fmt.Printf("checkpoint written to %s\n", *ckpt)
	}

	check(trace.Export(rec, *traceOut, *traceCSV, *traceSum, os.Stdout))
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
