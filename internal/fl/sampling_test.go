package fl

import (
	"math/rand"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/sample"
)

func TestRunSamplerRoundsDiffer(t *testing.T) {
	// Different rounds must draw different cohorts (with overwhelming
	// probability at 3-of-6 over 3 rounds) — a frozen cohort would mean
	// the round index is not reaching the sampler. The harness's sampler
	// row has the run.
	hist := syncSampler.at(t, 1, harnessLanes).hist.(*History)
	ids := func(rs RoundStats) [3]int {
		var out [3]int
		for i, cr := range rs.Clients {
			out[i] = cr.ClientID
		}
		return out
	}
	first := ids(hist.Rounds[0])
	varied := false
	for _, rs := range hist.Rounds[1:] {
		if ids(rs) != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("every round drew the identical cohort")
	}
}

func TestRunSamplerPopulationMismatch(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 9), 300, 100)
	part := data.IIDEqual(train, 4, rand.New(rand.NewSource(3)))
	clients := partitionClients(t, train, part, false)
	cfg := smallConfig(1)
	cfg.Sampler = sample.NewUniform(99, 3, 1)
	if _, err := Run(cfg, clients, nil); err == nil {
		t.Fatal("sampler population mismatch accepted")
	}
}

func TestAsyncSamplerRestrictsCohort(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 6), 600, 200)
	part := data.IIDEqual(train, 6, rand.New(rand.NewSource(5)))
	clients := partitionClients(t, train, part, false)
	cfg := AsyncConfig{Config: smallConfig(1), MaxUpdates: 12}
	cfg.Sampler = sample.NewUniform(6, 2, 11)
	hist, err := RunAsync(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2 cohort members may have merged updates.
	contributors := 0
	for _, u := range hist.UpdatesPerClient {
		if u > 0 {
			contributors++
		}
	}
	if contributors == 0 || contributors > 2 {
		t.Fatalf("%d clients contributed updates, want 1-2 (cohort of 2)", contributors)
	}
	if hist.Updates != 12 {
		t.Fatalf("updates = %d, want 12", hist.Updates)
	}
}
