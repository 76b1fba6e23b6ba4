package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {28, 0}, {99, 0}, {100, 90}, {104, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; [1, 5, 9] -> [1, 5, 9].
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 5, 9}); q1 != 1 || q3 != 9 {
		t.Errorf("quartiles(1,5,9) = %v, %v; want 1, 9", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},              // root: children cover [10,60) and [80,100)
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},   // child with its own child
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 60},   // overlaps span 2: the overlap counts once
		{ID: 4, Parent: 1, StartNS: 80, EndNS: 130},  // runs past its parent: clipped
		{ID: 5, Parent: 2, StartNS: 20, EndNS: 30},   // grandchild affects span 2 only
		{ID: 6, Parent: 0, StartNS: 200, EndNS: 250}, // a second root, no children
	}
	want := map[int]int64{1: 100 - 50 - 20, 2: 40 - 10, 3: 20, 4: 50, 5: 10, 6: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestGreedyMakespan(t *testing.T) {
	// Two workers taking 5,3,4,1 in order: A=5, B=3, B=3+4, A=5+1.
	if got := greedyMakespan([]float64{5, 3, 4, 1}, 2); got != 7 {
		t.Errorf("greedyMakespan = %v, want 7", got)
	}
	if got := greedyMakespan([]float64{5, 3, 4, 1}, 1); got != 13 {
		t.Errorf("one worker: %v, want 13", got)
	}
}

// allBodies is every job body a workload's first batches submit.
func allBodies(seed int64) []byte {
	var buf bytes.Buffer
	for _, spec := range []serveSpec{trainHeavy, roundChurn, engineMix} {
		for _, p := range spec.phases {
			for sub := 0; sub < p.submitters; sub++ {
				for n := 0; n < 3; n++ {
					for _, j := range p.batch(seed, false, sub, n) {
						buf.Write(j.body())
						buf.WriteByte('\n')
					}
				}
			}
		}
	}
	for k := 0; k < 3; k++ {
		buf.WriteString(strings.Join(fedsimArgs(popShapeFor(fullSize(1)), 1000, seed, k), " "))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestJobJSONDeterminism(t *testing.T) {
	a, b, c := allBodies(7), allBodies(7), allBodies(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different job JSON")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical job JSON")
	}
	// Every job must survive the daemon's strict decoding.
	for _, line := range bytes.Split(bytes.TrimSpace(a), []byte("\n")) {
		if line[0] != '{' {
			continue
		}
		cfg := decodeConfig(line)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
	// A template's seed pool recurs, so every config is submitted twice.
	first := trainHeavy.phases[0].batch(7, false, 0, 0)[0].body()
	again := trainHeavy.phases[0].batch(7, false, 0, seedPool)[0].body()
	if !bytes.Equal(first, again) {
		t.Error("job n and job n+seedPool of a template differ; duplicates would never occur")
	}
}

func TestVerdict(t *testing.T) {
	flat := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		better string
		a, b   []float64
		want   string
	}{
		{"same", "lower", flat, flat, "ok"},
		{"slower beyond bound", "lower", flat, []float64{115, 116, 114, 115}, "worse"},
		{"slower within bound", "lower", flat, []float64{105, 106, 104, 105}, "ok"},
		{"throughput dropped", "higher", flat, []float64{85, 86, 84, 85}, "worse"},
		{"throughput rose", "higher", flat, []float64{120, 121, 119, 120}, "ok"},
		{"too scattered to tell", "lower", []float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, "unresolved"},
		{"scattered but every run better", "lower", []float64{80, 100, 120, 140}, []float64{50, 60, 70, 79}, "ok"},
	} {
		if got, _ := verdict(c.better, c.a, c.b, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkDoc is BENCHMARK.json as the benchmark's own tables say it
// should read.
func benchmarkDoc() map[string]any {
	type m = map[string]any
	var wl, e2e, layers []m
	for _, w := range workloads {
		wl = append(wl, m{"name": w.name, "why": w.why})
	}
	for _, d := range gatedMetrics() {
		e2e = append(e2e, m{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range layerMetrics {
		layers = append(layers, m{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return m{"command": []string{"go", "run", "./bench"}, "paths": []string{"bench"}, "run_seconds": 25,
		"workloads": wl, "end_to_end": e2e, "per_layer": layers}
}

func TestBenchmarkJSONLint(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	json.Unmarshal(want, &w)
	gb, _ := json.Marshal(g)
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json disagrees with the benchmark's metric and workload tables; it should read:\n%s", want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not made of at most 64 letters, digits, '_', '.', '-'", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	isWorkload := map[string]bool{}
	for _, w := range workloads {
		check("workload", w.name)
		isWorkload[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(gatedMetrics()); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	isEndToEnd := map[string]bool{}
	setup := false
	for _, d := range endToEndMetrics {
		check("end-to-end metric", d.Name)
		isEndToEnd[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		if d.Gated && d.Workloads != nil {
			t.Errorf("%s is gated, so every workload must report it", d.Name)
		}
		for _, w := range d.Workloads {
			if !isWorkload[w] {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Gated)
	}
	if !setup {
		t.Error("no gated setup_s metric in seconds, lower better")
	}
	if n := len(layerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	for _, d := range layerDefs {
		check("per-layer metric", d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		for _, mv := range d.Moves {
			if !isEndToEnd[mv] {
				t.Errorf("%s should move %q, which is not an end-to-end metric", d.Name, mv)
			}
		}
		for _, w := range append(append([]string{}, d.On...), d.NoChange...) {
			if !isWorkload[w] {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
		if d.Layer != "bench" && (len(d.Moves) == 0 || len(d.On) == 0) {
			t.Errorf("%s predicts no end-to-end metric or no workload", d.Name)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

func TestReadmeNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
	for _, d := range endToEndMetrics {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not explain end-to-end metric %s", d.Name)
		}
	}
	for _, d := range layerDefs {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not explain per-layer metric %s", d.Name)
		}
	}
}
