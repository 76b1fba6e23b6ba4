// Command bench is the repository's benchmark: one program that drives
// the real fedserve and fedsim binaries as child processes through four
// workloads, reports end-to-end metrics with tracing off, and — in a
// separate traced pass — attributes wall time to the layers (serve, fl,
// nn, tensor, sched, sample/device/fault/profile, trace, data) by
// replaying every job config in-process through the public engine entry
// points. BENCHMARK.json at the repository root is its contract;
// bench/README.md explains the workloads, metrics and tables.
//
//	go run ./bench -seed 1 -out out/            # every workload, both passes
//	go run ./bench -smoke                       # the same at ~1/20 size
//	go run ./bench -compare a/ b/               # A-vs-B verdicts per metric
//	go run ./bench --workload round_churn --seed 7 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json's driver uses: one workload,
// one pass, and a single JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (driver mode)")
		seed     = flag.Int64("seed", 1, "workload seed; every job seed derives from it")
		seconds  = flag.Float64("seconds", 25, "length of each workload's timed phase")
		traced   = flag.Int("trace", 0, "driver mode: 0 = end-to-end pass (spans off), 1 = traced pass (per-layer metrics)")
		out      = flag.String("out", "", "directory for results.json and <workload>.spans.jsonl (default: none written)")
		smoke    = flag.Bool("smoke", false, "every workload at ~1/20 size, all correctness checks on")
		compare  = flag.Bool("compare", false, "compare two result sets: bench -compare A B (files or directories of results.json)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two arguments (results.json files or directories holding them)")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1))
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	h := newHarness(root)
	// Children and state directories are torn down on every exit path:
	// normal return, error, panic on this goroutine, SIGINT/SIGTERM.
	defer func() {
		h.cleanup()
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: panic: %v\n", r)
			code = 3
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()

	if err := h.build(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if *workload != "" {
		return driverMain(h, *workload, *seed, *seconds, *traced == 1)
	}

	sz := fullSize(*seconds)
	if *smoke {
		sz = smokeSize()
	}
	res, err := runAll(h, *seed, sz, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeResults(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("results written to %s\n", filepath.Join(*out, "results.json"))
	}
	if res.failed() > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operations failed\n", res.failed())
		return 1
	}
	return 0
}

// driverMain runs one pass of one workload and prints the driver's result
// object as the last line of standard output.
func driverMain(h *harness, name string, seed int64, seconds float64, traced bool) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	sz := fullSize(seconds)
	var (
		metrics   map[string]float64
		defs      []metricDef
		attempted int
		failed    int
	)
	if traced {
		lr, err := w.traced(h, seed, sz, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced pass: %v\n", name, err)
			return 1
		}
		printLayerReport(os.Stderr, lr)
		metrics, defs, attempted, failed = lr.Metrics, layerMetrics, lr.Attempted, lr.Failed
	} else {
		er, err := w.endToEnd(h, seed, sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printEndToEnd(os.Stderr, er)
		metrics, defs, attempted, failed = er.Metrics, gatedMetrics(), er.Attempted, er.Failed
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]val{}}
	for _, d := range defs {
		obj.Metrics[d.Name] = val{Value: metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the fedsched module
// root: the binaries under test are built from it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "fedserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the fedsched module (no go.mod with cmd/fedserve above the working directory)")
		}
		dir = parent
	}
}
