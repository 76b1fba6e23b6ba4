package nn

import (
	"math"
	"testing"
)

func TestLRSchedules(t *testing.T) {
	s := StepDecayLR(0.1, 0.5, 10)
	if s(0) != 0.1 || s(9) != 0.1 {
		t.Fatal("step decay too eager")
	}
	if math.Abs(s(10)-0.05) > 1e-12 || math.Abs(s(25)-0.025) > 1e-12 {
		t.Fatalf("step decay wrong: %v %v", s(10), s(25))
	}
	if StepDecayLR(0.1, 0.5, 0)(100) != 0.1 {
		t.Fatal("zero-interval step decay should be constant")
	}
	cos := CosineLR(0.1, 0.01, 100)
	if math.Abs(cos(0)-0.1) > 1e-12 {
		t.Fatalf("cosine start %v", cos(0))
	}
	if math.Abs(cos(100)-0.01) > 1e-12 || math.Abs(cos(200)-0.01) > 1e-12 {
		t.Fatal("cosine floor broken")
	}
	mid := cos(50)
	if mid <= 0.01 || mid >= 0.1 {
		t.Fatalf("cosine midpoint %v", mid)
	}
	// Monotone decreasing.
	prev := cos(0)
	for i := 1; i <= 100; i += 7 {
		if cos(i) > prev+1e-12 {
			t.Fatalf("cosine not decreasing at %d", i)
		}
		prev = cos(i)
	}
}
