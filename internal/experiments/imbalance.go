package experiments

import (
	"fmt"
	"math/rand"

	"fedsched/internal/data"
	"fedsched/internal/fl"
)

func init() {
	register("fig2", Fig2)
	register("fig3a", Fig3a)
	register("fig3b", Fig3b)
}

// accuracyScale returns the gradient-descent workload sizes.
func accuracyScale(o Options) (trainN, testN, rounds, users int) {
	if o.Quick {
		return 1500, 400, 6, 10
	}
	return 4000, 1000, 15, 20
}

// Fig2 reproduces Fig 2: accuracy vs imbalance ratio for IID data on both
// datasets, with centralized and balanced-distributed references.
func Fig2(o Options) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "Impact of data imbalance (IID) on FL accuracy (paper Fig 2)"}
	trainN, testN, rounds, users := accuracyScale(o)
	ratios := []float64{0, 0.2, 0.4, 0.6, 0.8}
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		train, test := data.TrainTest(ds.Cfg(0, o.Seed+11), trainN, testN)
		tbl := &Table{
			Title:   fmt.Sprintf("%s (stand-in %s), %d users, %d rounds", ds.PaperName, train.Name, users, rounds),
			Columns: []string{"imbalance ratio", "accuracy"},
		}
		arch := smallArch("LeNet", train.C)
		central, err := fl.Centralized(flConfig(o, arch, rounds, o.Seed+2), train, test)
		if err != nil {
			return nil, err
		}
		for _, ratio := range ratios {
			rng := rand.New(rand.NewSource(o.Seed + int64(ratio*1000)))
			var part data.Partition
			if ratio == 0 { //fedlint:allow floateq — ratio walks a literal grid; exact 0 selects the IID-equal branch
				part = data.IIDEqual(train, users, rng)
			} else {
				sizes := data.GaussianSizes(rng, users, train.Len(), ratio)
				part = data.IIDSizes(train, sizes, rng)
			}
			hist, err := fedAvg(o, arch, train, test, part, rounds)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%.2f (empirical %.2f)", ratio, data.ImbalanceRatio(part.Sizes()))
			tbl.AddRow(label, hist.FinalAccuracy)
		}
		tbl.AddRow("centralized ref", central)
		rep.Tables = append(rep.Tables, tbl)
	}
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): accuracy stays flat across imbalance ratios as long as data remains IID.")
	return rep, nil
}

// Fig3a reproduces Fig 3(a): accuracy vs the degree of class-wise
// non-IIDness (classes per user) on the CIFAR10 stand-in.
func Fig3a(o Options) (*Report, error) {
	rep := &Report{ID: "fig3a", Title: "Degree of non-IID class distribution vs accuracy (paper Fig 3a)"}
	trainN, testN, rounds, users := accuracyScale(o)
	ds := cifarBench()
	train, test := data.TrainTest(ds.Cfg(0, o.Seed+13), trainN, testN)
	tbl := &Table{
		Title:   fmt.Sprintf("%s stand-in, %d users, %d rounds", ds.PaperName, users, rounds),
		Columns: []string{"classes/user", "accuracy"},
	}
	ns := []int{2, 4, 6, 8, 10}
	for _, ncls := range ns {
		rng := rand.New(rand.NewSource(o.Seed + int64(ncls)))
		part := data.NClass(train, data.NClassConfig{Users: users, ClassesPerUser: ncls, SizeStd: 0.2}, rng)
		hist, err := fedAvg(o, smallArch("LeNet", train.C), train, test, part, rounds)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(ncls, hist.FinalAccuracy)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): fewer classes per user → lower accuracy, with a 10-15% gap at 2-class non-IIDness.")
	return rep, nil
}

// Fig3b reproduces Fig 3(b): influence of an individual one-class outlier —
// Missing vs Separate vs Merge (paper §III-C).
func Fig3b(o Options) (*Report, error) {
	rep := &Report{ID: "fig3b", Title: "Influence of individual outliers (paper Fig 3b)"}
	trainN, testN, rounds, _ := accuracyScale(o)
	ds := cifarBench()
	train, test := data.TrainTest(ds.Cfg(0, o.Seed+17), trainN, testN)
	tbl := &Table{
		Title:   fmt.Sprintf("%s stand-in, 3 users × 3 classes + 1-class outlier, %d rounds", ds.PaperName, rounds),
		Columns: []string{"mode", "users", "classes covered", "accuracy", "outlier-class recall"},
	}
	for _, mode := range []data.OutlierMode{data.OutlierMissing, data.OutlierSeparate, data.OutlierMerge} {
		rng := rand.New(rand.NewSource(o.Seed + 31)) // same base scenario per mode
		sets, outlierClass := data.OutlierScenarioWithClass(10, mode, rng)
		sizes := make([]int, len(sets))
		per := train.Len() / 10 * 9 / 3 // 3 users share the 9-class mass
		for i := range sizes {
			sizes[i] = per
			if len(sets[i]) == 1 {
				sizes[i] = train.Len() / 10 // the outlier holds one class worth
			}
		}
		part := data.ByClassSets(train, sets, sizes, rng)
		hist, err := fedAvg(o, smallArch("LeNet", train.C), train, test, part, rounds)
		if err != nil {
			return nil, err
		}
		cover := map[int]bool{}
		for _, s := range sets {
			for _, c := range s {
				cover[c] = true
			}
		}
		tbl.AddRow(mode.String(), len(sets), len(cover), hist.FinalAccuracy,
			hist.Confusion.Recall(outlierClass))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape (paper): Missing ranks lowest; including the outlier (Separate or Merge) recovers ~3% accuracy.")
	return rep, nil
}
