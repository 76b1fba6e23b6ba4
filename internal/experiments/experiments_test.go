package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func cell(t *testing.T, tbl *Table, row int, col string) string {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == col {
			return tbl.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tbl.Columns)
	return ""
}

func cellF(t *testing.T, tbl *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tbl, row, col), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell(t, tbl, row, col), err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7",
		"tab2", "tab3", "tab4", "tab5",
		"ext-energy", "ext-async", "ext-secagg", "ext-gossip", "ext-dp", "ext-granularity", "ext-dropout", "ext-adaptive",
		"ext-precision",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("missing driver %q", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "b"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow(2, "y")
	s := tbl.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "1.5") {
		t.Fatalf("bad render:\n%s", s)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,b\nx,1.5\n") {
		t.Fatalf("bad csv:\n%s", csv)
	}
	rep := &Report{ID: "x", Title: "y", Tables: []*Table{tbl}, Notes: []string{"n"}}
	if !strings.Contains(rep.String(), "== x: y ==") {
		t.Fatal("bad report header")
	}
}

func TestFig1Shapes(t *testing.T) {
	rep, err := Fig1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("%d tables", len(rep.Tables))
	}
	// Nexus6P's LeNet max/min batch-time ratio must reveal the thermal
	// collapse; Pixel2's must stay modest.
	lenet := rep.Tables[0]
	var ratio6P, ratioP2 float64
	for r := range lenet.Rows {
		switch lenet.Rows[r][0] {
		case "Nexus6P":
			ratio6P = cellF(t, lenet, r, "max/min")
		case "Pixel2":
			ratioP2 = cellF(t, lenet, r, "max/min")
		}
	}
	if ratio6P < 1.5 {
		t.Fatalf("Nexus6P batch-time spread %.2f — no thermal signature", ratio6P)
	}
	if ratioP2 > ratio6P {
		t.Fatal("Pixel2 shows more thermal spread than Nexus6P")
	}
}

func TestTab2WithinPaperBand(t *testing.T) {
	rep, err := Tab2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Every simulated 3K WiFi cell must be within 20% of the paper column.
	for _, tbl := range rep.Tables {
		for r := range tbl.Rows {
			sim := cell(t, tbl, r, "3K WiFi")
			sim = sim[:strings.Index(sim, "(")]
			simV, _ := strconv.ParseFloat(sim, 64)
			paperV := cellF(t, tbl, r, "paper(3K WiFi)")
			if simV < paperV*0.8 || simV > paperV*1.2 {
				t.Errorf("%s %s: simulated %v vs paper %v", tbl.Title, tbl.Rows[r][0], simV, paperV)
			}
		}
	}
}

func TestFig4ProfilerQuality(t *testing.T) {
	rep, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	step1 := rep.Tables[0]
	for r := range step1.Rows {
		if r2 := cellF(t, step1, r, "R²"); r2 < 0.9 {
			t.Errorf("step-1 R² %.3f at size %s", r2, step1.Rows[r][0])
		}
	}
	step2 := rep.Tables[1]
	for r := range step2.Rows {
		if e := cellF(t, step2, r, "error %"); e > 35 || e < -35 {
			t.Errorf("step-2 error %.1f%% at size %s", e, step2.Rows[r][0])
		}
	}
}

func TestTab4ScheduleShapes(t *testing.T) {
	rep, err := Tab4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("%d scenario tables", len(rep.Tables))
	}
	for _, tbl := range rep.Tables {
		// Each schedule column sums to the full dataset (50K samples).
		for _, col := range []string{"p1(100,0)", "p2(5000,0)", "p3(100,2)", "p4(5000,2)"} {
			sum := 0.0
			for r := range tbl.Rows {
				sum += cellF(t, tbl, r, col)
			}
			if sum < 49.9 || sum > 50.1 {
				t.Errorf("%s %s sums to %.1fK, want 50K", tbl.Title, col, sum)
			}
		}
	}
	// Paper trend: at (5000, 0) single-class slow devices receive zero.
	s3 := rep.Tables[2] // S(III)
	zeroed := 0
	for r := range s3.Rows {
		classes := cell(t, s3, r, "classes")
		if strings.Count(classes, " ") == 0 && cellF(t, s3, r, "p2(5000,0)") == 0 {
			zeroed++
		}
	}
	if zeroed == 0 {
		t.Error("α=5000,β=0 did not zero out any single-class device in S(III)")
	}
}

func TestFig5SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("time-simulation sweep")
	}
	rep, err := Fig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("%d tables", len(rep.Tables))
	}
	for _, tbl := range rep.Tables {
		for r := range tbl.Rows {
			fed := cellF(t, tbl, r, "Fed-LBAP")
			for _, col := range []string{"Prop.", "Random", "Equal"} {
				if fed > cellF(t, tbl, r, col)*1.001 {
					t.Errorf("%s row %d: Fed-LBAP (%.0f) slower than %s", tbl.Title, r, fed, col)
				}
			}
		}
	}
	// The straggler testbed (2) must show the biggest LeNet speedup.
	lenet := rep.Tables[0]
	if cellF(t, lenet, 1, "speedup vs Equal") <= cellF(t, lenet, 0, "speedup vs Equal") {
		t.Error("testbed 2 speedup not larger than testbed 1 (straggler effect missing)")
	}
	// Fed-LBAP's round time must drop when going from 6 to 10 devices.
	if cellF(t, lenet, 2, "Fed-LBAP") >= cellF(t, lenet, 1, "Fed-LBAP") {
		t.Error("Fed-LBAP does not scale down with more devices")
	}
}

func TestFig7SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("time-simulation sweep")
	}
	rep, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range rep.Tables {
		for r := range tbl.Rows {
			if s := cellF(t, tbl, r, "speedup vs Equal"); s < 0.95 {
				t.Errorf("%s row %d: Fed-MinAvg slower than Equal (%.2f×)", tbl.Title, r, s)
			}
		}
	}
}

func TestFig2AccuracyFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent experiment")
	}
	rep, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// SMNIST table: accuracy at ratio 0.8 within 5 points of ratio 0.
	tbl := rep.Tables[0]
	first := cellF(t, tbl, 0, "accuracy")
	last := cellF(t, tbl, len(tbl.Rows)-2, "accuracy") // last ratio row (row -1 is centralized)
	if first < 0.8 {
		t.Fatalf("balanced IID accuracy %.3f too low", first)
	}
	if first-last > 0.05 {
		t.Errorf("imbalance hurt IID accuracy: %.3f → %.3f", first, last)
	}
}

func TestFig3aMonotoneTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent experiment")
	}
	rep, err := Fig3a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	acc2 := cellF(t, tbl, 0, "accuracy")                // 2 classes/user
	acc10 := cellF(t, tbl, len(tbl.Rows)-1, "accuracy") // 10 classes/user
	if acc10-acc2 < 0.03 {
		t.Errorf("non-IID degradation missing: 2-class %.3f vs 10-class %.3f", acc2, acc10)
	}
}

func TestFig3bOutlierOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent experiment")
	}
	rep, err := Fig3b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	missing := cellF(t, tbl, 0, "accuracy")
	separate := cellF(t, tbl, 1, "accuracy")
	merge := cellF(t, tbl, 2, "accuracy")
	if missing > separate+0.02 && missing > merge+0.02 {
		t.Errorf("Missing (%.3f) should not beat Separate (%.3f) and Merge (%.3f)", missing, separate, merge)
	}
}

func TestTab3AccuracyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent experiment")
	}
	rep, err := Tab3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range rep.Tables {
		for r := range tbl.Rows {
			fed := cellF(t, tbl, r, "Fed-LBAP")
			equal := cellF(t, tbl, r, "Equal")
			if equal-fed > 0.06 {
				t.Errorf("%s: Fed-LBAP accuracy %.3f vs Equal %.3f — IID unbalancing should be free", tbl.Title, fed, equal)
			}
		}
	}
}

func TestFig6AndTab5Run(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent experiment")
	}
	rep, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("fig6 produced no tables")
	}
	rep5, err := Tab5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range rep5.Tables {
		for r := range tbl.Rows {
			fed := cellF(t, tbl, r, "Fed-MinAvg")
			if fed < 0.15 {
				t.Errorf("%s: Fed-MinAvg accuracy %.3f implausibly low", tbl.Title, fed)
			}
		}
	}
}

func TestExtEnergyShape(t *testing.T) {
	rep, err := ExtEnergy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	var fedE, equalE, fedStraggler, equalStraggler float64
	for r := range tbl.Rows {
		switch tbl.Rows[r][0] {
		case "Fed-LBAP":
			fedE = cellF(t, tbl, r, "total energy [kJ]")
			fedStraggler = cellF(t, tbl, r, "Nexus6P energy [kJ]")
		case "Equal":
			equalE = cellF(t, tbl, r, "total energy [kJ]")
			equalStraggler = cellF(t, tbl, r, "Nexus6P energy [kJ]")
		}
	}
	if fedE >= equalE {
		t.Errorf("Fed-LBAP total energy %.1f not below Equal %.1f", fedE, equalE)
	}
	if fedStraggler >= equalStraggler {
		t.Errorf("Fed-LBAP straggler energy %.1f not below Equal %.1f", fedStraggler, equalStraggler)
	}
}

func TestExtGranularityShape(t *testing.T) {
	rep, err := ExtGranularity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	fine := cellF(t, tbl, 0, "predicted makespan [s]")
	paper := cellF(t, tbl, 2, "predicted makespan [s]") // 100-sample shards
	coarse := cellF(t, tbl, len(tbl.Rows)-1, "predicted makespan [s]")
	if fine > paper*1.02 {
		t.Errorf("finer shards should not hurt: %.1f vs %.1f", fine, paper)
	}
	if coarse < paper*0.98 {
		t.Errorf("coarser shards should not help: %.1f vs %.1f", coarse, paper)
	}
}

func TestExtDPConvergesToTruthful(t *testing.T) {
	rep, err := ExtDP(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	last := len(tbl.Rows) - 1 // truthful row
	truthCover := cellF(t, tbl, last, "coverage (of 10)")
	highEps := cellF(t, tbl, last-1, "coverage (of 10)") // ε=8
	lowEps := cellF(t, tbl, 0, "coverage (of 10)")       // ε=0.5
	if highEps < truthCover-0.5 {
		t.Errorf("ε=8 coverage %.1f far from truthful %.1f", highEps, truthCover)
	}
	if lowEps > highEps+0.5 {
		t.Errorf("low-ε coverage %.1f should not beat high-ε %.1f", lowEps, highEps)
	}
}

func TestExtAsyncSecAggGossipRun(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent extensions")
	}
	for _, id := range []string{"ext-async", "ext-secagg", "ext-gossip"} {
		d, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		rep, err := d(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 2 {
			t.Fatalf("%s produced no comparison rows", id)
		}
	}
}

func TestExtDropoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent extension")
	}
	rep, err := ExtDropout(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	waitSpan := cellF(t, tbl, 0, "mean round [s]")
	waitAcc := cellF(t, tbl, 0, "accuracy")
	dropAcc := cellF(t, tbl, 1, "accuracy")
	lbapSpan := cellF(t, tbl, 2, "mean round [s]")
	lbapAcc := cellF(t, tbl, 2, "accuracy")
	if lbapSpan >= waitSpan {
		t.Errorf("Fed-LBAP (%.0f s) not faster than waiting (%.0f s)", lbapSpan, waitSpan)
	}
	if dropAcc >= lbapAcc {
		t.Errorf("dropout accuracy %.3f should trail Fed-LBAP %.3f (it discards data)", dropAcc, lbapAcc)
	}
	if lbapAcc < waitAcc-0.05 {
		t.Errorf("Fed-LBAP accuracy %.3f fell below wait-for-all %.3f", lbapAcc, waitAcc)
	}
}

func TestExtAdaptiveShape(t *testing.T) {
	rep, err := ExtAdaptive(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	staticFinal := cellF(t, tbl, 0, "final round [s]")
	adaptFinal := cellF(t, tbl, 1, "final round [s]")
	if adaptFinal >= staticFinal {
		t.Errorf("adaptive final round %.1f not faster than static %.1f", adaptFinal, staticFinal)
	}
	if cellF(t, tbl, 1, "reschedules") == 0 {
		t.Error("adaptive controller never rescheduled")
	}
	if cellF(t, tbl, 0, "reschedules") != 0 {
		t.Error("static baseline rescheduled")
	}
}

func TestExtPrecisionParity(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient-descent extension")
	}
	rep, err := ExtPrecision(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows, want one per dataset × model (4)", len(tbl.Rows))
	}
	worst := 0.0
	for r := range tbl.Rows {
		acc64, acc32 := cellF(t, tbl, r, "f64 acc"), cellF(t, tbl, r, "f32 acc")
		gap := cellF(t, tbl, r, "|Δ| [pp]")
		if acc64 < 0 || acc64 > 1 || acc32 < 0 || acc32 > 1 {
			t.Errorf("row %d: accuracies %v / %v outside [0, 1]", r, acc64, acc32)
		}
		if math.Abs(gap-100*math.Abs(acc64-acc32)) > 0.01 {
			t.Errorf("row %d: gap %v pp, accuracies %v / %v", r, gap, acc64, acc32)
		}
		worst = math.Max(worst, gap)
	}
	warned := false
	for _, n := range rep.Notes {
		warned = warned || strings.HasPrefix(n, "WARNING")
	}
	if warned != (worst > 0.5) {
		t.Errorf("worst gap %v pp against the 0.5 pp target, WARNING note %v", worst, warned)
	}
}
