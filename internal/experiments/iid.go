package experiments

import (
	"fmt"
	"math/rand"

	"fedsched"
	"fedsched/internal/data"
)

func init() {
	register("fig5", Fig5)
	register("tab3", Tab3)
}

// Fig5 reproduces Fig 5: per-round computation time with IID data across
// the three testbeds, both datasets and both models, for Proportional /
// Random / Equal / Fed-LBAP scheduling.
func Fig5(o Options) (*Report, error) {
	rep := &Report{ID: "fig5", Title: "Computation time per global update, IID data (paper Fig 5)"}
	rounds, randomRuns := 5, 3
	if o.Quick {
		rounds, randomRuns = 2, 2
	}
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		for _, model := range []string{"LeNet", "VGG6"} {
			arch := paperArch(model, ds)
			tbl := &Table{
				Title:   fmt.Sprintf("%s + %s, %d samples total, mean over %d rounds [s]", ds.PaperName, model, ds.TotalSamples, rounds),
				Columns: []string{"testbed", "Prop.", "Random", "Equal", "Fed-LBAP", "speedup vs Equal", "speedup vs best baseline"},
			}
			for tbID := 1; tbID <= 3; tbID++ {
				tb := fedsched.NewTestbed(tbID)
				req, err := tb.Request(arch, ds.TotalSamples)
				if err != nil {
					return nil, err
				}
				req.Trace = o.Trace
				times := make(map[string]float64)
				for _, s := range schedulers() {
					runs := 1
					if s.Name() == "Random" {
						runs = randomRuns
					}
					total := 0.0
					for run := 0; run < runs; run++ {
						rng := rand.New(rand.NewSource(o.Seed + int64(100*tbID+run)))
						mean, err := meanRoundTime(tb, arch, s, req, rounds, rng, o.Trace)
						if err != nil {
							return nil, err
						}
						total += mean
					}
					times[s.Name()] = total / float64(runs)
				}
				best := times["Prop."]
				for _, n := range []string{"Random", "Equal"} {
					if times[n] < best {
						best = times[n]
					}
				}
				tbl.AddRow(
					fmt.Sprintf("%d (%d devices)", tbID, len(tb.Profiles)),
					times["Prop."], times["Random"], times["Equal"], times["Fed-LBAP"],
					times["Equal"]/times["Fed-LBAP"],
					best/times["Fed-LBAP"],
				)
			}
			rep.Tables = append(rep.Tables, tbl)
		}
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): Fed-LBAP wins everywhere with 5-10× average speedups, largest on Testbed 2 where the Nexus6P stragglers dominate the naive schedules; Fed-LBAP's time decreases as devices are added while baselines do not.")
	return rep, nil
}

// Tab3 reproduces Table III: model accuracy under the four schedulers with
// IID data. Schedules are computed at paper scale, then the per-user sample
// counts are rescaled onto the reduced synthetic training set.
func Tab3(o Options) (*Report, error) {
	rep := &Report{ID: "tab3", Title: "Model accuracy with different benchmarks, IID data (paper Table III)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	models := []string{"LeNet", "VGG6"}
	testbeds := []int{1, 2, 3}
	if o.Quick {
		models = []string{"LeNet"}
		testbeds = []int{2}
	}
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		train, test := data.TrainTest(ds.Cfg(0, o.Seed+41), trainN, testN)
		for _, model := range models {
			arch := paperArch(model, ds)
			tbl := &Table{
				Title:   fmt.Sprintf("%s + %s (reduced-scale training: %d samples, %d rounds)", ds.PaperName, model, trainN, rounds),
				Columns: []string{"testbed", "Prop.", "Random", "Equal", "Fed-LBAP"},
			}
			for _, tbID := range testbeds {
				req, err := fedsched.NewTestbed(tbID).Request(arch, ds.TotalSamples)
				if err != nil {
					return nil, err
				}
				row := []interface{}{fmt.Sprintf("(%d)", tbID)}
				for _, s := range schedulers() {
					rng := rand.New(rand.NewSource(o.Seed + int64(tbID)))
					asg, err := s.Schedule(req, rng)
					if err != nil {
						return nil, err
					}
					sizes := scaleSizes(asg.Samples(req.ShardSize), train.Len())
					part := data.IIDSizes(train, sizes, rng)
					hist, err := fedAvg(o, smallArch(model, train.C), train, test, part, rounds)
					if err != nil {
						return nil, err
					}
					row = append(row, hist.FinalAccuracy)
				}
				tbl.AddRow(row...)
			}
			rep.Tables = append(rep.Tables, tbl)
		}
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): accuracy differences across schedulers are negligible when data is IID — load unbalancing is free.")
	return rep, nil
}
