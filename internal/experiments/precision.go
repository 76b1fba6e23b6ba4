package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fedsched/internal/data"
	"fedsched/internal/fl"
	"fedsched/internal/nn"
)

func init() {
	register("ext-precision", ExtPrecision)
}

// ExtPrecision measures float32 vs float64 client training: accuracy
// parity at a fixed seed (the f32 kernels must not change learning
// outcomes beyond rounding noise) and the wall-clock win from halving
// memory traffic. Both paper models run on both synthetic stand-ins; the
// server aggregates in float64 in every configuration.
func ExtPrecision(o Options) (*Report, error) {
	rep := &Report{ID: "ext-precision", Title: "float32 vs float64 client training: accuracy parity and speed (extension)"}
	trainN, testN, rounds, users := accuracyScale(o)
	tbl := &Table{
		Title:   fmt.Sprintf("%d users, %d rounds, reduced-scale models, fixed seed", users, rounds),
		Columns: []string{"dataset", "model", "f64 acc", "f32 acc", "|Δ| [pp]", "f64 [ms]", "f32 [ms]", "speedup"},
	}
	worst := 0.0
	for _, ds := range []benchDataset{mnistBench(), cifarBench()} {
		for _, model := range []string{"LeNet", "VGG6"} {
			train, test := data.TrainTest(ds.Cfg(0, o.Seed+71), trainN, testN)
			run := func(p nn.Precision) (float64, float64, error) {
				part := data.IIDEqual(train, users, rand.New(rand.NewSource(o.Seed)))
				clients, err := clientsOn(nil, train, part)
				if err != nil {
					return 0, 0, err
				}
				cfg := flConfig(o, smallArch(model, train.C), rounds, o.Seed)
				cfg.Precision = p
				start := time.Now()
				hist, err := fl.Run(cfg, clients, test)
				if err != nil {
					return 0, 0, err
				}
				return hist.FinalAccuracy, float64(time.Since(start).Milliseconds()), nil
			}
			acc64, ms64, err := run(nn.F64)
			if err != nil {
				return nil, err
			}
			acc32, ms32, err := run(nn.F32)
			if err != nil {
				return nil, err
			}
			gap := 100 * (acc64 - acc32)
			if gap < 0 {
				gap = -gap
			}
			if gap > worst {
				worst = gap
			}
			speedup := 0.0
			if ms32 > 0 {
				speedup = ms64 / ms32
			}
			tbl.AddRow(ds.PaperName, model, acc64, acc32, gap, ms64, ms32, speedup)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("Worst accuracy gap %.2f pp (parity target ≤ 0.5 pp). Expected shape: f32 matches f64 accuracy within rounding noise while the blocked kernels run ~1.5-2× faster on their SIMD tile.", worst))
	// Accuracies are counts over the test set, so gaps are exact
	// multiples of 1/testN pp; the epsilon keeps a gap of exactly 0.5 pp
	// (inside the target) from tripping the warning through binary
	// rounding of the subtraction.
	if worst > 0.5+1e-9 {
		rep.Notes = append(rep.Notes, "WARNING: accuracy parity target exceeded — investigate the f32 kernels before trusting f32 runs.")
	}
	return rep, nil
}
