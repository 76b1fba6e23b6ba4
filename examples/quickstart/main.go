// Quickstart: profile a mobile testbed, compute a Fed-LBAP schedule for
// IID data, compare it against the FedAvg-style equal split, and run a
// real federated training round on the simulated phones.
package main

import (
	"fmt"
	"log"

	"fedsched"
)

func main() {
	// The paper's Testbed II: 2×Nexus6, 2×Nexus6P (the stragglers),
	// 1×Mate10, 1×Pixel2, all on WiFi.
	tb := fedsched.NewTestbed(2)
	arch := fedsched.LeNet(1, 28, 28, 10) // ~205K-parameter LeNet
	fmt.Printf("architecture: %s, %d params (%.1f MB payload)\n",
		arch.Name, arch.ParamCount(), float64(arch.SizeBytes())/1e6)

	// Schedule 60K MNIST-scale samples. Fed-LBAP partitions the data so
	// that the slowest participant finishes as early as possible.
	req, err := tb.Request(arch, 60000)
	if err != nil {
		log.Fatal(err)
	}
	optimal, err := fedsched.FedLBAP.Schedule(req, nil)
	if err != nil {
		log.Fatal(err)
	}
	equal, err := fedsched.Equal.Schedule(req, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nschedule (samples per device):")
	for j, u := range req.Users {
		fmt.Printf("  %-11s Fed-LBAP %6d   Equal %6d\n",
			u.Name, optimal.Shards[j]*100, equal.Shards[j]*100)
	}
	fmt.Printf("\npredicted makespan: Fed-LBAP %.0f s vs Equal %.0f s (%.1fx speedup)\n",
		optimal.PredictedMakespan, equal.PredictedMakespan,
		equal.PredictedMakespan/optimal.PredictedMakespan)

	// Verify on the thermal simulator: two synchronous rounds each.
	for name, asg := range map[string]*fedsched.Assignment{"Fed-LBAP": optimal, "Equal": equal} {
		spans, err := tb.SimulateRounds(arch, asg, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated rounds (%s): %.0f s, %.0f s\n", name, spans[0], spans[1])
	}

	// Finally, run real federated training (reduced scale) with the
	// Fed-LBAP partition shape.
	train := fedsched.SMNIST(1200, 42)
	test := fedsched.SMNIST(400, 42)
	part := fedsched.PartitionIIDSizes(train, optimal.Rescale(req.TotalShards, train.Len(), false), 7)
	hist, err := tb.RunFederated(fedsched.RunConfig{
		Arch: fedsched.LeNetSmall(1, 16, 16, 10), Rounds: 5,
		LR: 0.02, Momentum: 0.9, Seed: 7,
	}, train, part, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfederated training: %d rounds, final accuracy %.3f, %.0f simulated seconds\n",
		len(hist.Rounds), hist.FinalAccuracy, hist.TotalSeconds)
}
