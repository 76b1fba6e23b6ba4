// Command benchdiff gates benchmark regressions in CI: it parses raw
// `go test -bench` output, takes the minimum ns/op over repetitions
// (-count=N), matches benchmark names against the recorded baselines in
// the repo's BENCH_*.json files, and fails when the geometric mean of
// the current/baseline ratios exceeds -max-slowdown.
//
//	go test -run '^$' -bench . -count=5 . | tee bench.txt
//	benchdiff -bench bench.txt -baseline BENCH_gemm.json -baseline BENCH_fl_parallel.json
//
// Baselines are discovered by a recursive walk of the JSON: any object
// holding a numeric "ns_per_op" is attributed to the nearest enclosing
// key that starts with "Benchmark" (everything from the key's first
// space on — shape annotations like "(1280x500x40)" — is ignored).
// Duplicate names keep the smallest recorded value. The minimum, not
// the mean, is compared on both sides: noise on a shared CI runner only
// ever slows a run down, so min-of-reps is the best estimator of the
// true cost on that box.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkRunSerial-4   3   449440913 ns/op   207086138 B/op
//
// The -N suffix is GOMAXPROCS (omitted when 1) and is stripped so runs
// on different machines compare under the same name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op`)

// parseBenchOutput reads raw `go test -bench` output and returns the
// minimum ns/op seen per benchmark name (over -count repetitions).
func parseBenchOutput(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("benchdiff: bad ns/op %q for %s", m[3], m[1])
		}
		if cur, ok := out[m[1]]; !ok || ns < cur {
			out[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// extractBaselines walks a BENCH_*.json document and collects ns_per_op
// values keyed by benchmark name (see the package comment for the
// attribution rule). Results merge into dst, keeping minima.
func extractBaselines(doc []byte, dst map[string]float64) error {
	var root interface{}
	if err := json.Unmarshal(doc, &root); err != nil {
		return err
	}
	walkBaseline(root, "", dst)
	return nil
}

func walkBaseline(v interface{}, benchKey string, dst map[string]float64) {
	switch x := v.(type) {
	case map[string]interface{}:
		if ns, ok := x["ns_per_op"].(float64); ok && benchKey != "" && ns > 0 {
			name := strings.Fields(benchKey)[0]
			if cur, exists := dst[name]; !exists || ns < cur {
				dst[name] = ns
			}
		}
		for k, child := range x {
			key := benchKey
			if strings.HasPrefix(k, "Benchmark") {
				key = k
			}
			walkBaseline(child, key, dst)
		}
	case []interface{}:
		for _, child := range x {
			walkBaseline(child, benchKey, dst)
		}
	}
}

// hardware is the structured machine record in a BENCH_*.json baseline.
// Absolute ns/op baselines only transfer between machines of the same
// shape, so benchdiff surfaces a mismatch as a warning (never a gate —
// the geomean threshold still decides pass/fail).
type hardware struct {
	Nproc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Gomaxprocs int    `json:"gomaxprocs"`
}

// extractHardware returns the baseline's top-level "hardware" object, or
// nil when the file predates the field.
func extractHardware(doc []byte) (*hardware, error) {
	var root struct {
		Hardware *hardware `json:"hardware"`
	}
	if err := json.Unmarshal(doc, &root); err != nil {
		return nil, err
	}
	return root.Hardware, nil
}

// hardwareWarning compares a baseline's recorded machine against this one
// and returns a human-readable warning, or "" when they match. A baseline
// with no hardware record at all also warns: silently accepting it hides
// that the comparison may be cross-machine, the exact condition the
// record exists to expose.
func hardwareWarning(path string, hw *hardware, nproc int) string {
	if hw == nil || hw.Nproc == 0 {
		return fmt.Sprintf("warning: %s carries no hardware record; the baseline may come from a different machine — re-record it to stamp the current hardware",
			path)
	}
	if hw.Nproc == nproc {
		return ""
	}
	return fmt.Sprintf("warning: %s was recorded on a %d-core machine (%s); this machine has %d cores — absolute ns/op ratios may not be meaningful, consider re-recording baselines",
		path, hw.Nproc, hw.CPUModel, nproc)
}

// row is one benchmark present in both the current run and a baseline.
type row struct {
	Name              string
	BaselineNs, CurNs float64
	Ratio             float64
}

// compare joins current results with baselines and returns the matched
// rows (sorted by name) plus the geometric mean of the ratios.
func compare(current, baseline map[string]float64) ([]row, float64) {
	var rows []row
	for name, cur := range current {
		base, ok := baseline[name]
		if !ok {
			continue
		}
		rows = append(rows, row{Name: name, BaselineNs: base, CurNs: cur, Ratio: cur / base})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if len(rows) == 0 {
		return nil, 0
	}
	logSum := 0.0
	for _, r := range rows {
		logSum += math.Log(r.Ratio)
	}
	return rows, math.Exp(logSum / float64(len(rows)))
}

// stringList is a repeatable -baseline flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		benchPath   = flag.String("bench", "-", "raw `go test -bench` output file ('-' = stdin)")
		baselines   stringList
		maxSlowdown = flag.Float64("max-slowdown", 1.15, "fail when the geomean current/baseline ratio exceeds this")
	)
	flag.Var(&baselines, "baseline", "BENCH_*.json baseline file (repeatable)")
	flag.Parse()
	if len(baselines) == 0 {
		fatalf("benchdiff: at least one -baseline file is required")
	}

	in := io.Reader(os.Stdin)
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatalf("benchdiff: %v", err)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBenchOutput(in)
	if err != nil {
		fatalf("%v", err)
	}
	if len(current) == 0 {
		fatalf("benchdiff: no benchmark results in %s", *benchPath)
	}

	baseline := make(map[string]float64)
	for _, path := range baselines {
		doc, err := os.ReadFile(path)
		if err != nil {
			fatalf("benchdiff: %v", err)
		}
		if err := extractBaselines(doc, baseline); err != nil {
			fatalf("benchdiff: %s: %v", path, err)
		}
		if hw, err := extractHardware(doc); err == nil {
			if w := hardwareWarning(path, hw, runtime.NumCPU()); w != "" {
				fmt.Fprintln(os.Stderr, w)
			}
		}
	}

	rows, geomean := compare(current, baseline)
	if len(rows) == 0 {
		fatalf("benchdiff: no benchmark names overlap between the run (%d) and the baselines (%d) — wrong -bench filter or baseline files?",
			len(current), len(baseline))
	}

	fmt.Printf("%-28s %15s %15s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio")
	for _, r := range rows {
		fmt.Printf("%-28s %15.0f %15.0f %8.3f\n", r.Name, r.BaselineNs, r.CurNs, r.Ratio)
	}
	fmt.Printf("geomean ratio %.3f (max allowed %.3f, %d benchmarks)\n", geomean, *maxSlowdown, len(rows))
	if geomean > *maxSlowdown {
		fmt.Printf("FAIL: geomean slowdown %.1f%% exceeds the %.1f%% budget\n",
			(geomean-1)*100, (*maxSlowdown-1)*100)
		os.Exit(1)
	}
	fmt.Println("OK")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
