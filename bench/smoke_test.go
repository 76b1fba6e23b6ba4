package main

import (
	"bytes"
	"testing"
)

// TestSmoke runs every workload end to end at about a twentieth of its
// size — real fedserve and fedsim children, both passes, every
// correctness check — and is skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns fedserve and fedsim; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(root)
	defer h.cleanup()
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	defer func() { t.Log(out.String()) }() // shown with -v, or when the test fails
	res, err := runAll(h, 3, smokeSize(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads ran, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		for _, f := range append(w.EndToEnd.Failures, w.Layers.Failures...) {
			t.Errorf("%s: %s", w.Name, f)
		}
		if w.EndToEnd.Failed+w.Layers.Failed > 0 {
			t.Errorf("%s: %d end-to-end and %d traced operations failed", w.Name, w.EndToEnd.Failed, w.Layers.Failed)
		}
		for _, d := range gatedMetrics() {
			if v := w.EndToEnd.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, d.Name, v)
			}
		}
		if w.EndToEnd.SimDigest == "" {
			t.Errorf("%s: no sim_digest", w.Name)
		}
	}
	dir := t.TempDir()
	if err := writeResults(dir, res); err != nil {
		t.Fatal(err)
	}
	runs, err := loadSide(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code := compareSides(&out, runs, runs, benchmarkBounds()); code != 0 {
		t.Errorf("comparing a run with itself exited %d", code)
	}
}
