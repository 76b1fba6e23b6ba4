package fedsched_test

import (
	"strings"
	"testing"

	"fedsched/internal/experiments"
)

// TestExperimentFacade drives the experiment registry the way fedsim
// does: internal/experiments is a client of the facade, so this lives
// outside package fedsched.
func TestExperimentFacade(t *testing.T) {
	d, ok := experiments.Lookup("tab4")
	if !ok {
		t.Fatal("tab4 is not registered")
	}
	rep, err := d(experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.String(); !strings.Contains(out, "S(III)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, ok := experiments.Lookup("bogus"); ok {
		t.Fatal("expected an unknown experiment id to be rejected")
	}
	if ids := experiments.IDs(); len(ids) < 12 {
		t.Fatalf("expected ≥12 experiments, got %v", ids)
	}
}
