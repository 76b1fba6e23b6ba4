package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: fedsched
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkGEMM_LeNet-4   	       5	  25000000 ns/op	 714.65 MB/s
BenchmarkGEMM_LeNet-4   	       5	  24000000 ns/op	 714.65 MB/s
BenchmarkGEMM_LeNet-4   	       5	  26000000 ns/op	 714.65 MB/s
BenchmarkRunSerial      	       3	 450000000 ns/op	207086138 B/op	   13919 allocs/op
BenchmarkRunSerial      	       3	 440000000 ns/op	207086138 B/op	   13919 allocs/op
PASS
ok  	fedsched	12.3s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkGEMM_LeNet": 24000000,  // min over reps, -4 suffix stripped
		"BenchmarkRunSerial":  440000000, // no GOMAXPROCS suffix at procs=1
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader("PASS\nok fedsched 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %v", got)
	}
}

// sampleBaseline mirrors the shape of the repo's BENCH_*.json files:
// ns_per_op values nested under annotated "Benchmark…" keys or under
// plain "Benchmark…" keys below unrelated grouping keys; entries with
// no Benchmark ancestor (kernel pairs) are ignored; duplicates keep the
// minimum.
const sampleBaseline = `{
  "results_layer_triples_blocked": {
    "BenchmarkGEMM_LeNet (1280x500x40, fwd+dx+dw)": {"ns_per_op": 23884196, "mb_per_s": 714.65},
    "BenchmarkGEMM_VGG6 (980x720x96, fwd+dx+dw)": {"ns_per_op": 55773294}
  },
  "results_single_thread": {
    "VGG6Conv (980x720x96)": {"naive_ns_per_op": 41619032, "blocked_ns_per_op": 18731254}
  },
  "results": {
    "GOMAXPROCS=1 (native)": {
      "BenchmarkRunSerial": {"iterations": 3, "ns_per_op": 449440913}
    },
    "GOMAXPROCS=4 (forced, still 1 physical core)": {
      "BenchmarkRunSerial": {"iterations": 3, "ns_per_op": 536650850}
    }
  }
}`

func TestExtractBaselines(t *testing.T) {
	got := make(map[string]float64)
	if err := extractBaselines([]byte(sampleBaseline), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkGEMM_LeNet": 23884196,
		"BenchmarkGEMM_VGG6":  55773294,
		"BenchmarkRunSerial":  449440913, // min of the two GOMAXPROCS sections
	}
	if len(got) != len(want) {
		t.Fatalf("extracted %d baselines, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestExtractBaselinesAgainstRepoFiles(t *testing.T) {
	got := make(map[string]float64)
	for _, path := range []string{"../../BENCH_gemm.json", "../../BENCH_fl_parallel.json"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := extractBaselines(doc, got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, name := range []string{
		"BenchmarkGEMM_LeNet", "BenchmarkGEMM_VGG6",
		"BenchmarkRunSerial", "BenchmarkRunParallel",
	} {
		if got[name] <= 0 {
			t.Errorf("repo baselines missing %s (got %v)", name, got)
		}
	}
}

func TestCompareGate(t *testing.T) {
	baseline := map[string]float64{"A": 100, "B": 200, "C": 300}
	cases := []struct {
		name    string
		current map[string]float64
		geomean float64
		matched int
	}{
		{"identical", map[string]float64{"A": 100, "B": 200}, 1.0, 2},
		{"one20pctSlower", map[string]float64{"A": 120}, 1.2, 1},
		{"mixed", map[string]float64{"A": 200, "B": 100}, 1.0, 2}, // 2x slower × 2x faster
		{"unmatchedIgnored", map[string]float64{"A": 100, "Z": 999}, 1.0, 1},
		{"disjoint", map[string]float64{"Z": 999}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, geomean := compare(c.current, baseline)
			if len(rows) != c.matched {
				t.Fatalf("matched %d rows, want %d", len(rows), c.matched)
			}
			if math.Abs(geomean-c.geomean) > 1e-12 {
				t.Fatalf("geomean = %v, want %v", geomean, c.geomean)
			}
		})
	}
}

func TestExtractHardware(t *testing.T) {
	doc := []byte(`{"hardware": {"nproc": 1, "cpu_model": "Intel(R) Xeon(R) Processor @ 2.10GHz", "gomaxprocs": 1}, "results": {}}`)
	hw, err := extractHardware(doc)
	if err != nil {
		t.Fatal(err)
	}
	if hw == nil || hw.Nproc != 1 || hw.Gomaxprocs != 1 || hw.CPUModel == "" {
		t.Fatalf("extracted %+v", hw)
	}
	hw, err = extractHardware([]byte(`{"results": {}}`))
	if err != nil || hw != nil {
		t.Fatalf("legacy baseline without hardware: got %+v, %v", hw, err)
	}
}

func TestHardwareWarning(t *testing.T) {
	hw := &hardware{Nproc: 1, CPUModel: "Xeon", Gomaxprocs: 1}
	if w := hardwareWarning("BENCH_x.json", hw, 1); w != "" {
		t.Fatalf("matching core count warned: %q", w)
	}
	if w := hardwareWarning("BENCH_x.json", hw, 8); w == "" {
		t.Fatal("core-count mismatch produced no warning")
	} else if !strings.Contains(w, "BENCH_x.json") || !strings.Contains(w, "8 cores") {
		t.Fatalf("warning lacks context: %q", w)
	}
	if w := hardwareWarning("BENCH_x.json", nil, 8); w == "" {
		t.Fatal("baseline without a hardware record produced no warning")
	} else if !strings.Contains(w, "no hardware record") || !strings.Contains(w, "BENCH_x.json") {
		t.Fatalf("missing-record warning lacks context: %q", w)
	}
	if w := hardwareWarning("BENCH_x.json", &hardware{}, 8); w == "" {
		t.Fatal("zero-value hardware record produced no warning")
	} else if !strings.Contains(w, "no hardware record") {
		t.Fatalf("zero-value record warning lacks context: %q", w)
	}
}

// TestRepoBaselinesCarryHardware pins the satellite invariant: every
// BENCH_*.json in the repo records the machine it was measured on.
func TestRepoBaselinesCarryHardware(t *testing.T) {
	for _, path := range []string{"../../BENCH_gemm.json", "../../BENCH_fl_parallel.json", "../../BENCH_sched.json"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := extractHardware(doc)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if hw == nil || hw.Nproc == 0 || hw.CPUModel == "" || hw.Gomaxprocs == 0 {
			t.Errorf("%s: missing or incomplete hardware record: %+v", path, hw)
		}
	}
}

func TestCompareRowsSorted(t *testing.T) {
	baseline := map[string]float64{"B": 1, "A": 1, "C": 1}
	rows, _ := compare(map[string]float64{"C": 1, "A": 1, "B": 1}, baseline)
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Name >= rows[i].Name {
			t.Fatalf("rows not sorted by name: %v", rows)
		}
	}
}
