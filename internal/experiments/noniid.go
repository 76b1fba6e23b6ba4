package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"fedsched"
	"fedsched/internal/data"
	"fedsched/internal/nn"
	"fedsched/internal/sched"
)

func init() {
	register("fig6", Fig6)
	register("tab4", Tab4)
	register("fig7", Fig7)
	register("tab5", Tab5)
}

// scenario is one of the paper's representative class distributions
// (Table IV columns 2-4). Device order matches device.Testbed(TestbedID).
type scenario struct {
	Name      string
	TestbedID int
	ClassSets [][]int
}

// paperScenarios returns S(I), S(II), S(III) exactly as in Table IV.
func paperScenarios() []scenario {
	return []scenario{
		{
			Name: "S(I)", TestbedID: 1,
			ClassSets: [][]int{
				{0, 1, 2, 3, 4, 5, 6, 9}, // Nexus6(a)
				{2, 3, 4, 5, 6, 8},       // Mate10(a)
				{7, 8},                   // Pixel2(a)
			},
		},
		{
			Name: "S(II)", TestbedID: 2,
			ClassSets: [][]int{
				{1, 2, 5, 7}, // Nexus6(a)
				{2, 6, 8},    // Nexus6(b)
				{0, 3, 8, 9}, // Nexus6P(a)
				{0},          // Nexus6P(b)
				{4, 9},       // Mate10(a)
				{0, 1, 2},    // Pixel2(a)
			},
		},
		{
			Name: "S(III)", TestbedID: 3,
			ClassSets: [][]int{
				{2, 6, 8, 9},       // Nexus6(a)
				{0, 1, 3, 7, 8, 9}, // Nexus6(b)
				{9},                // Nexus6(c)
				{0, 5},             // Nexus6(d)
				{2},                // Nexus6P(a)
				{0, 1, 2, 4, 5},    // Nexus6P(b)
				{1, 3, 4, 8},       // Mate10(a)
				{9},                // Mate10(b)
				{1},                // Pixel2(a)
				{0, 1, 2, 3, 7, 8}, // Pixel2(b)
			},
		},
	}
}

// Fig6 reproduces Fig 6: how α and β trade training time against accuracy
// on scenarios S(I)-S(III), evaluated with CIFAR10 + LeNet as in Table IV.
func Fig6(o Options) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Effectiveness of α and β on time and accuracy (paper Fig 6)"}
	ds := cifarBench()
	arch := paperArch("LeNet", ds)
	alphas := []float64{100, 500, 1000, 2000, 5000}
	scens := paperScenarios()
	trainN, testN, rounds, _ := accuracyScale(o)
	if o.Quick {
		alphas = []float64{100, 1000, 5000}
		scens = scens[:2]
	}
	train, test := data.TrainTest(ds.Cfg(0, o.Seed+51), trainN, testN)
	for _, sc := range scens {
		tb := fedsched.NewTestbed(sc.TestbedID)
		tbl := &Table{
			Title:   fmt.Sprintf("%s: Fed-MinAvg over α (CIFAR10+LeNet, %d samples scheduled)", sc.Name, ds.TotalSamples),
			Columns: []string{"alpha", "beta", "round time [s]", "accuracy", "participants"},
		}
		for _, beta := range []float64{0, 2} {
			for _, alpha := range alphas {
				asg, err := tb.ScheduleNonIID(arch, ds.TotalSamples, sc.ClassSets, 10, alpha, beta)
				if err != nil {
					return nil, err
				}
				span, _, err := meanSpan(tb, arch, asg.Samples(fedsched.ShardSize), 2, nil)
				if err != nil {
					return nil, err
				}
				rng := rand.New(rand.NewSource(o.Seed + int64(alpha) + int64(beta*13)))
				sizes := scaleSizes(asg.Samples(fedsched.ShardSize), train.Len())
				part := data.ByClassSets(train, sc.ClassSets, sizes, rng)
				hist, err := fedAvg(o, smallArch("LeNet", train.C), train, test, part, rounds)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(alpha, beta, span, hist.FinalAccuracy, asg.Participants())
			}
		}
		rep.Tables = append(rep.Tables, tbl)
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): with β=0, training time rises with α (load shifts to class-rich devices, less parallelism); when outlier-only classes exist (S(I), S(II)) accuracy falls as α excludes them. β=2 re-includes unseen-class outliers, lifting accuracy by ~0.02-0.03 at a time cost.")
	return rep, nil
}

// Tab4 reproduces Table IV: the schedules (10³ samples per device) computed
// by Fed-MinAvg for (α, β) = p1(100,0), p2(5000,0), p3(100,2), p4(5000,2)
// on CIFAR10 + LeNet.
func Tab4(o Options) (*Report, error) {
	rep := &Report{ID: "tab4", Title: "Schedules computed by Fed-MinAvg (10³ samples, CIFAR10+LeNet) — paper Table IV"}
	ds := cifarBench()
	arch := paperArch("LeNet", ds)
	params := []struct {
		name        string
		alpha, beta float64
	}{
		{"p1", 100, 0}, {"p2", 5000, 0}, {"p3", 100, 2}, {"p4", 5000, 2},
	}
	for _, sc := range paperScenarios() {
		tb := fedsched.NewTestbed(sc.TestbedID)
		tbl := &Table{
			Title:   fmt.Sprintf("%s (classes per device in brackets)", sc.Name),
			Columns: []string{"device", "classes", "p1(100,0)", "p2(5000,0)", "p3(100,2)", "p4(5000,2)"},
		}
		cols := make([][]float64, len(params))
		for pi, pr := range params {
			asg, err := tb.ScheduleNonIID(arch, ds.TotalSamples, sc.ClassSets, 10, pr.alpha, pr.beta)
			if err != nil {
				return nil, err
			}
			col := make([]float64, len(sc.ClassSets))
			for j, s := range asg.Samples(fedsched.ShardSize) {
				col[j] = float64(s) / 1000
			}
			cols[pi] = col
		}
		for j := range sc.ClassSets {
			tbl.AddRow(
				fmt.Sprintf("%s-%d", tb.Profiles[j].Model, j),
				fmt.Sprintf("%v", sc.ClassSets[j]),
				cols[0][j], cols[1][j], cols[2][j], cols[3][j],
			)
		}
		rep.Tables = append(rep.Tables, tbl)
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): raising α drains data from class-poor devices (p1→p2 and p3→p4); at α=5000, β=0 the slow single-class devices get zero.")
	return rep, nil
}

// randomClassSets draws a random class subset (1-6 of 10 classes) per user,
// the Fig 7 "random permutations of class distributions".
func randomClassSets(users int, rng *rand.Rand) [][]int {
	sets := sched.RandomClassSets(users, 10, 6, rng)
	for _, s := range sets {
		sort.Ints(s)
	}
	return sets
}

// bestAlpha picks the α in [100, 5000] minimizing the predicted makespan
// with β=0 (the paper's Fig 7 procedure), via the library's TuneAlpha.
func bestAlpha(tb *fedsched.Testbed, arch *nn.Arch, classSets [][]int, totalSamples int) (float64, *sched.Assignment, error) {
	req, err := tb.Request(arch, totalSamples)
	if err != nil {
		return 0, nil, err
	}
	for j, u := range req.Users {
		u.Classes = classSets[j]
	}
	req.K, req.Beta = 10, 0
	best, _, err := sched.TuneAlpha(req, nil, nil)
	if err != nil {
		return 0, nil, err
	}
	return best.Alpha, best.Assignment, nil
}

// Fig7 reproduces Fig 7: per-round computation time with non-IID data,
// Fed-MinAvg (best α, β=0) against the baselines.
func Fig7(o Options) (*Report, error) {
	rep := &Report{ID: "fig7", Title: "Computation time per global update, non-IID data (paper Fig 7)"}
	rounds := 5
	if o.Quick {
		rounds = 2
	}
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		for _, model := range []string{"LeNet", "VGG6"} {
			arch := paperArch(model, ds)
			tbl := &Table{
				Title:   fmt.Sprintf("%s + %s, %d samples, mean over %d rounds [s]", ds.PaperName, model, ds.TotalSamples, rounds),
				Columns: []string{"testbed", "Prop.", "Random", "Equal", "Fed-MinAvg", "best α", "speedup vs Equal"},
			}
			for tbID := 1; tbID <= 3; tbID++ {
				tb := fedsched.NewTestbed(tbID)
				rng := rand.New(rand.NewSource(o.Seed + int64(1000*tbID)))
				classSets := randomClassSets(len(tb.Profiles), rng)
				times := make(map[string]float64)
				for _, s := range []sched.Scheduler{sched.Proportional{}, sched.Random{}, sched.Equal{}} {
					req, err := tb.Request(arch, ds.TotalSamples)
					if err != nil {
						return nil, err
					}
					req.Trace = o.Trace
					mean, err := meanRoundTime(tb, arch, s, req, rounds, rng, o.Trace)
					if err != nil {
						return nil, err
					}
					times[s.Name()] = mean
				}
				alpha, asg, err := bestAlpha(tb, arch, classSets, ds.TotalSamples)
				if err != nil {
					return nil, err
				}
				times["Fed-MinAvg"], _, err = meanSpan(tb, arch, asg.Samples(fedsched.ShardSize), rounds, o.Trace)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(
					fmt.Sprintf("%d (%d devices)", tbID, len(tb.Profiles)),
					times["Prop."], times["Random"], times["Equal"], times["Fed-MinAvg"],
					alpha, times["Equal"]/times["Fed-MinAvg"],
				)
			}
			rep.Tables = append(rep.Tables, tbl)
		}
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): Fed-MinAvg achieves 1.3-8× speedups — smaller than the IID case because class coverage constrains the schedule, largest on Testbed 2 (worst-case stragglers).")
	return rep, nil
}

// Tab5 reproduces Table V: model accuracy with non-IID data under the four
// mechanisms.
func Tab5(o Options) (*Report, error) {
	rep := &Report{ID: "tab5", Title: "Model accuracy with different mechanisms, non-IID data (paper Table V)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	models := []string{"LeNet", "VGG6"}
	testbeds := []int{1, 2, 3}
	if o.Quick {
		models = []string{"LeNet"}
		testbeds = []int{1, 2}
	}
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		train, test := data.TrainTest(ds.Cfg(0, o.Seed+61), trainN, testN)
		for _, model := range models {
			arch := paperArch(model, ds)
			tbl := &Table{
				Title:   fmt.Sprintf("%s + %s (reduced-scale training: %d samples, %d rounds)", ds.PaperName, model, trainN, rounds),
				Columns: []string{"testbed", "Prop.", "Random", "Equal", "Fed-MinAvg"},
			}
			for _, tbID := range testbeds {
				tb := fedsched.NewTestbed(tbID)
				rng := rand.New(rand.NewSource(o.Seed + int64(17*tbID)))
				classSets := randomClassSets(len(tb.Profiles), rng)
				row := []interface{}{fmt.Sprintf("(%d)", tbID)}
				addRun := func(samples []int) error {
					sizes := scaleSizes(samples, train.Len())
					part := data.ByClassSets(train, classSets, sizes, rng)
					hist, err := fedAvg(o, smallArch(model, train.C), train, test, part, rounds)
					if err != nil {
						return err
					}
					row = append(row, hist.FinalAccuracy)
					return nil
				}
				for _, s := range []sched.Scheduler{sched.Proportional{}, sched.Random{}, sched.Equal{}} {
					req, err := tb.Request(arch, ds.TotalSamples)
					if err != nil {
						return nil, err
					}
					asg, err := s.Schedule(req, rng)
					if err != nil {
						return nil, err
					}
					if err := addRun(asg.Samples(fedsched.ShardSize)); err != nil {
						return nil, err
					}
				}
				_, asg, err := bestAlpha(tb, arch, classSets, ds.TotalSamples)
				if err != nil {
					return nil, err
				}
				if err := addRun(asg.Samples(fedsched.ShardSize)); err != nil {
					return nil, err
				}
				tbl.AddRow(row...)
			}
			rep.Tables = append(rep.Tables, tbl)
		}
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): Fed-MinAvg accuracy within ~0.02 of the best baseline; accuracy climbs as more users join (vertical direction); Random tends to rank highest but is far from time-optimal.")
	return rep, nil
}
