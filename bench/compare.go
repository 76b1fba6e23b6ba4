package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// compareMain prints, per workload and end-to-end metric, both sides'
// medians, B's ratio to A (A is the base), the bound and a verdict. It
// exits non-zero when any metric is worse or failed_share rose.
func compareMain(a, b string) int {
	sideA, err := loadSide(a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	sideB, err := loadSide(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	return compareSides(os.Stdout, sideA, sideB, benchmarkBounds())
}

// loadSide reads one results.json, or every results.json directly inside
// a directory or one level below it (one sub-directory per run).
func loadSide(path string) ([]*results, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "results.json")) // the pattern is constant: Glob cannot fail
		more, _ := filepath.Glob(filepath.Join(path, "*", "results.json"))
		files = append(files, more...)
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no results.json", path)
	}
	var runs []*results
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, &r)
	}
	return runs, nil
}

// benchmarkBounds reads the regression bounds from BENCHMARK.json when the
// working directory is inside the repository; metrics it does not list
// keep the bound of the benchmark's own table.
func benchmarkBounds() map[string]float64 {
	bounds := map[string]float64{}
	for _, d := range endToEndMetrics {
		bounds[d.Name] = d.Bound
	}
	root, err := findRoot()
	if err != nil {
		return bounds
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bounds
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &doc) == nil {
		for _, m := range doc.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	return bounds
}

// verdict judges B against A for one metric. worseBy is how much worse
// B's median is than A's, as a share of A's (negative = better).
func verdict(better string, a, b []float64, bound float64) (v string, worseBy float64) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / ma
	sign := 1.0 // multiply a value by sign so that larger is worse
	if better == "higher" {
		worseBy = (ma - mb) / ma
		sign = -1
	}
	worstB, bestA := sign*b[0], sign*a[0]
	for _, x := range b {
		worstB = max(worstB, sign*x)
	}
	for _, x := range a {
		bestA = min(bestA, sign*x)
	}
	switch {
	case worstB <= bestA:
		return "ok", worseBy // every run of B reads at least as well as every run of A
	case max(spread(a), spread(b)) > bound && bound > 0:
		return "unresolved", worseBy // the runs scatter more than the bound: neither worse nor unchanged is shown
	case worseBy > bound:
		return "worse", worseBy
	}
	return "ok", worseBy
}

func compareSides(w io.Writer, a, b []*results, bounds map[string]float64) int {
	collect := func(side []*results) (vals map[string]map[string][]float64, digests map[string]map[string]bool) {
		vals, digests = map[string]map[string][]float64{}, map[string]map[string]bool{}
		for _, r := range side {
			for _, wl := range r.Workloads {
				if vals[wl.Name] == nil {
					vals[wl.Name], digests[wl.Name] = map[string][]float64{}, map[string]bool{}
				}
				for k, v := range wl.EndToEnd.Metrics {
					vals[wl.Name][k] = append(vals[wl.Name][k], v)
				}
				digests[wl.Name][fmt.Sprintf("seed %d: %s", wl.EndToEnd.Seed, wl.EndToEnd.SimDigest)] = true
			}
		}
		return vals, digests
	}
	va, da := collect(a)
	vb, db := collect(b)
	fmt.Fprintf(w, "A: %d run(s), commit %.12s; B: %d run(s), commit %.12s. ratio = B/A, A is the base.\n",
		len(a), a[0].Hardware.Commit, len(b), b[0].Hardware.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median\tB median\tratio\tspread A\tspread B\tbound\tverdict\n")
	bad := 0
	for _, wl := range workloads {
		name := wl.name
		for _, d := range endToEndMetrics {
			xa, xb := va[name][d.Name], vb[name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			bound := bounds[d.Name]
			var v string
			if d.Name == "failed_share" {
				// Expected 0 on both sides, so there is no ratio to take.
				v = "ok"
				if median(xb) > median(xa) {
					v = "worse"
				}
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t-\t-\t-\t0\t%s\n", name, d.Name, median(xa), median(xb), v)
			} else {
				v, _ = verdict(d.Better, xa, xb, bound)
				fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.5g %s\t%.4f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", name, d.Name,
					median(xa), d.Unit, median(xb), d.Unit, median(xb)/median(xa), spread(xa)*100, spread(xb)*100, bound*100, v)
			}
			if v == "worse" {
				bad++
			}
		}
	}
	tw.Flush()
	for _, wl := range workloads {
		name := wl.name
		if da[name] == nil || db[name] == nil {
			continue
		}
		same := len(da[name]) == len(db[name])
		for k := range da[name] {
			same = same && db[name][k]
		}
		if same {
			fmt.Fprintf(w, "sim_digest %s: identical\n", name)
		} else {
			fmt.Fprintf(w, "sim_digest %s: DIFFERS (different seeds, or the simulated results changed)\n", name)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than the bound allows\n", bad)
		return 1
	}
	return 0
}
