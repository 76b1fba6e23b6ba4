package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// hardware records where a run's numbers come from.
type hardware struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readHardware(root string) hardware {
	hw := hardware{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				hw.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if outb, err := cmd.Output(); err == nil {
		hw.Commit = strings.TrimSpace(string(outb))
	}
	return hw
}

// workloadResult is both passes of one workload.
type workloadResult struct {
	Name     string       `json:"name"`
	EndToEnd *e2eResult   `json:"end_to_end"`
	Layers   *layerResult `json:"layers"`
}

// results is the content of results.json.
type results struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Hardware  hardware         `json:"hardware"`
	BuildS    float64          `json:"build_s"`
	Workloads []workloadResult `json:"workloads"`

	spans map[string]*spanLog
}

func (r *results) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.EndToEnd.Failed + w.Layers.Failed
	}
	return n
}

// runAll runs both passes of every workload and prints the report.
func runAll(h *harness, seed int64, sz size, w io.Writer) (*results, error) {
	res := &results{Schema: 1, Seed: seed, Seconds: sz.seconds, Smoke: sz.smoke,
		Hardware: readHardware(h.root), BuildS: h.buildS, spans: map[string]*spanLog{}}
	hw := res.Hardware
	fmt.Fprintf(w, "bench: seed %d, %.0f s timed phase per workload, %d cores (%s), GOMAXPROCS %d, %s, commit %.12s, build %.1f s\n",
		seed, sz.seconds, hw.NProc, hw.CPUModel, hw.GOMAXPROCS, hw.GoVersion, hw.Commit, h.buildS)
	for _, wl := range workloads {
		er, err := wl.endToEnd(h, seed, sz)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		printEndToEnd(w, er)
		log := &spanLog{}
		lr, err := wl.traced(h, seed, sz, log)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", wl.name, err)
		}
		printLayerReport(w, lr)
		printSpanSelf(w, log)
		res.Workloads = append(res.Workloads, workloadResult{Name: wl.name, EndToEnd: er, Layers: lr})
		res.spans[wl.name] = log
	}
	printSeparation(w, res)
	return res, nil
}

func printEndToEnd(w io.Writer, r *e2eResult) {
	fmt.Fprintf(w, "\n== %s: end to end (spans off, seed %d, timed %.1f s) ==\n", r.Workload, r.Seed, r.TimedS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range endToEndMetrics {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t[%s better, bound %.0f%%]\n", d.Name, v, d.Unit, d.Better, d.Bound*100)
	}
	tw.Flush()
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  counts:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Counts[k])
	}
	fmt.Fprintf(w, "; attempted %d, failed %d\n  sim_digest %s\n", r.Attempted, r.Failed, r.SimDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printLayerReport(w io.Writer, r *layerResult) {
	fmt.Fprintf(w, "\n== %s: per layer (traced pass) ==\n", r.Workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range layerDefs {
		if v, ok := r.Metrics[d.Name]; ok { // a metric the workload does not exercise is absent
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  budget: share of job wall per layer (detailed per template, then aggregated by template weight)\n")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  template\tjob ms\t")
	for _, l := range budgetLayers {
		fmt.Fprintf(tw, "%s\t", l)
	}
	fmt.Fprintf(tw, "sink+self\t\n")
	for _, b := range r.Budget {
		fmt.Fprintf(tw, "  %s\t%.1f\t", b.Template, b.JobMS)
		for _, l := range budgetLayers {
			fmt.Fprintf(tw, "%.1f%%\t", b.Share[l]*100)
		}
		fmt.Fprintf(tw, "%.2f%%\t\n", b.SinkSelfShare*100)
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printSpanSelf prints the recorded spans' self time summed by name: the
// same attribution read straight off the span tree.
func printSpanSelf(w io.Writer, log *spanLog) {
	self := log.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprint(w, "  span self time by name (s):")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.3f", n, self[n])
	}
	fmt.Fprintln(w)
}

// aggregateBudget returns the workload-level budget line.
func (r *layerResult) aggregateBudget() *budgetLine {
	for i := range r.Budget {
		if r.Budget[i].Template == "(all)" {
			return &r.Budget[i]
		}
	}
	return nil
}

// printSeparation reports whether the workloads separate the layers the
// way the issue predicted, with the measured figures either way.
func printSeparation(w io.Writer, res *results) {
	agg := map[string]*budgetLine{}
	for _, wl := range res.Workloads {
		if b := wl.Layers.aggregateBudget(); b != nil {
			agg[wl.Name] = b
		}
	}
	th, rc, ps := agg["train_heavy"], agg["round_churn"], agg["pop_scale"]
	if res.Smoke || th == nil || rc == nil || ps == nil {
		return // smoke-sized jobs are mostly build cost; the predictions are about full-size ones
	}
	fmt.Fprintf(w, "\n== layer separation (predictions of the benchmark's design) ==\n")
	verdict := func(ok bool) string {
		if ok {
			return "met"
		}
		return "NOT met"
	}
	nnT := th.Share["nn"] + th.Share["tensor"]
	fmt.Fprintf(w, "  train_heavy: nn + tensor = %.1f%% of job wall (predicted >= 80%%): %s\n", nnT*100, verdict(nnT >= 0.8))
	ratio := 0.0
	if th.SinkSelfShare > 0 {
		ratio = rc.SinkSelfShare / th.SinkSelfShare
	}
	fmt.Fprintf(w, "  round_churn: sink + fl round self = %.2f%% vs %.2f%% on train_heavy, %.1fx (predicted >= 5x): %s\n",
		rc.SinkSelfShare*100, th.SinkSelfShare*100, ratio, verdict(ratio >= 5))
	zero := ps.Share["nn"]+ps.Share["tensor"]+ps.Share["serve"] <= 0 // shares are never negative
	fmt.Fprintf(w, "  pop_scale: nn %.1f%%, tensor %.1f%%, serve %.1f%% (predicted 0): %s\n",
		ps.Share["nn"]*100, ps.Share["tensor"]*100, ps.Share["serve"]*100, verdict(zero))
}

// writeResults writes results.json and one spans file per workload.
func writeResults(dir string, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for name, log := range res.spans {
		if err := log.writeFile(filepath.Join(dir, name+".spans.jsonl")); err != nil {
			return err
		}
	}
	return nil
}
