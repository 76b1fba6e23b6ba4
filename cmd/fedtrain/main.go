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
	"math/rand"
	"os"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/trace"
)

func main() {
	var (
		testbedID = flag.Int("testbed", 2, "paper testbed (1, 2 or 3)")
		dataset   = flag.String("dataset", "smnist", "dataset: smnist | scifar")
		scheduler = flag.String("scheduler", "fedlbap", "scheduler: fedlbap | fedminavg | prop | random | equal")
		rounds    = flag.Int("rounds", 10, "global rounds")
		samples   = flag.Int("samples", 3000, "training samples")
		testN     = flag.Int("test", 1000, "test samples")
		lr        = flag.Float64("lr", 0.02, "learning rate")
		momentum  = flag.Float64("momentum", 0.9, "SGD momentum")
		seed      = flag.Int64("seed", 1, "random seed")
		precision = flag.String("precision", "f64", "client training precision: f32 | f64 (server aggregation is always float64)")
		classes   = flag.Int("classes-per-user", 0, "non-IID: classes per user (0 = IID)")
		alpha     = flag.Float64("alpha", 1000, "Fed-MinAvg accuracy-cost weight")
		beta      = flag.Float64("beta", 2, "Fed-MinAvg unseen-class reward")
		secure    = flag.Bool("secure", false, "secure aggregation (pairwise masks)")
		deadline  = flag.Float64("deadline", 0, "per-round deadline in seconds (0 = wait for all)")
		workers   = flag.Int("workers", 0, "concurrent client training per round (0 = GOMAXPROCS, <0 = sequential); results are seed-identical for any value")
		ckpt      = flag.String("checkpoint", "", "write final model weights to this file")
		traceOut  = flag.String("trace", "", "write the run's round trace to this JSONL file")
		traceCSV  = flag.String("trace-csv", "", "write the run's round trace to this CSV file")
		traceSum  = flag.Bool("trace-summary", false, "print a per-round trace summary table to stderr")
		traceCap  = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default 65536)")

		faults    = flag.String("faults", "", "fault scenario, e.g. 'crash=0.1,battery=0.02,flap=0.05,corrupt=0.01,degrade=0.2,slow=4' (empty = no faults)")
		faultSeed = flag.Int64("fault-seed", 0, "seed for the fault plan (0 = derive from -seed)")
		quorum    = flag.Int("quorum", 0, "close each round after this many surviving updates, discarding later ones (0 = wait for all)")
		minPart   = flag.Int("min-participants", 0, "record rounds with fewer surviving updates as failed instead of aborting (0 = off)")
		ckptEvery = flag.Int("checkpoint-every", 0, "snapshot the resumable run state to -run-state every k rounds (0 = off)")
		runState  = flag.String("run-state", "", "file for -checkpoint-every snapshots")
		resume    = flag.String("resume", "", "resume a run from this -run-state snapshot (flags must match the original run)")
	)
	flag.Parse()

	prec, err := fedsched.ParsePrecision(*precision)
	if err != nil {
		fatalf("%v", err)
	}

	var rec *trace.Recorder
	if *traceOut != "" || *traceCSV != "" || *traceSum {
		rec = trace.New(*traceCap)
	}

	tb := fedsched.NewTestbed(*testbedID)
	users := len(tb.Profiles)

	var train, test *fedsched.Dataset
	var arch *fedsched.Arch
	switch *dataset {
	case "smnist":
		train, test = fedsched.SMNIST(*samples, *seed), fedsched.SMNIST(*testN, *seed)
		arch = fedsched.LeNetSmall(1, 16, 16, 10)
	case "scifar":
		train, test = fedsched.SCIFAR(*samples, *seed), fedsched.SCIFAR(*testN, *seed)
		arch = fedsched.LeNetSmall(3, 16, 16, 10)
	default:
		fatalf("unknown dataset %q", *dataset)
	}

	// Paper-scale scheduling decides the partition shape; we rescale onto
	// the reduced training set.
	paperArch := fedsched.LeNet(train.C, 28, 28, 10)
	req, err := tb.Request(paperArch, 60000)
	check(err)
	req.Trace = rec
	rng := rand.New(rand.NewSource(*seed))

	var classSets [][]int
	if *classes > 0 {
		classSets = make([][]int, users)
		for u := range classSets {
			perm := rng.Perm(10)
			classSets[u] = append([]int(nil), perm[:*classes]...)
		}
		for j, u := range req.Users {
			u.Classes = classSets[j]
		}
		req.K, req.Alpha, req.Beta = 10, *alpha, *beta
	}

	var s fedsched.Scheduler
	switch *scheduler {
	case "fedlbap":
		s = fedsched.FedLBAP
	case "fedminavg":
		s = fedsched.FedMinAvg
		if *classes == 0 {
			fatalf("fedminavg needs -classes-per-user > 0")
		}
	case "prop":
		s = fedsched.Proportional
	case "random":
		s = fedsched.RandomSched
	case "equal":
		s = fedsched.Equal
	default:
		fatalf("unknown scheduler %q", *scheduler)
	}
	asg, err := s.Schedule(req, rng)
	check(err)

	// Rescale the schedule onto the reduced training set.
	sizes := asg.Rescale(req.TotalShards, train.Len(), *classes > 0)
	var part fedsched.Partition
	if *classes > 0 {
		part = data.ByClassSets(train, classSets, sizes, rng)
	} else {
		part = data.IIDSizes(train, sizes, rng)
	}

	fmt.Printf("testbed %d (%d devices), %s on %s, scheduler %s\n",
		*testbedID, users, arch.Name, train.Name, s.Name())
	fmt.Printf("schedule (samples): %v  — predicted makespan %.0f s at paper scale\n",
		part.Sizes(), asg.PredictedMakespan)

	plan, err := fedsched.ParseFaultSpec(*faults, fedsched.FaultPlanSeed(*faultSeed, *seed))
	check(err)
	cfg := fedsched.RunConfig{
		Arch: arch, Rounds: *rounds, LR: *lr, Momentum: *momentum,
		Seed: *seed, Precision: prec, EvalEvery: 1, SecureAgg: *secure,
		DeadlineSeconds: *deadline, Workers: *workers, Trace: rec,
		Faults: plan, Quorum: *quorum, MinParticipants: *minPart,
	}
	if *ckptEvery > 0 {
		if *runState == "" {
			fatalf("-checkpoint-every needs -run-state")
		}
		cfg.CheckpointEvery = *ckptEvery
		cfg.CheckpointSink = func(ck *fedsched.RunCheckpoint) error {
			return writeRunState(*runState, ck)
		}
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		check(err)
		ck, err := fedsched.LoadRunCheckpoint(f)
		check(err)
		check(f.Close())
		cfg.Resume = ck
		fmt.Printf("resuming from %s at round %d\n", *resume, ck.NextRound)
	}

	hist, err := tb.RunFederated(cfg, train, part, test)
	if err != nil && (hist == nil || len(hist.Rounds) == 0) {
		check(err)
	}

	showFaults := plan != nil || *quorum > 0
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

	if rec != nil {
		events := rec.Events()
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: ring overflowed, %d oldest events dropped (raise -trace-cap)\n", d)
		}
		if *traceOut != "" {
			check(trace.WriteFileJSONL(*traceOut, events))
			fmt.Printf("trace: %d events written to %s\n", len(events), *traceOut)
		}
		if *traceCSV != "" {
			check(trace.WriteFileCSV(*traceCSV, events))
			fmt.Printf("trace: %d events written to %s\n", len(events), *traceCSV)
		}
		if *traceSum {
			check(trace.WriteSummary(os.Stderr, events))
		}
	}
}

// writeRunState atomically replaces path with the snapshot (write to a
// temp file in the same directory, then rename), so a crash mid-write
// never corrupts the previous good snapshot.
func writeRunState(path string, ck *fedsched.RunCheckpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := ck.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
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
