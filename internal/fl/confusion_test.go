package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectPredictions(t *testing.T) {
	c := newConfusion(3)
	c.Add([]int{0, 1, 2, 0}, []int{0, 1, 2, 0})
	if c.Accuracy() != 1 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	for k := 0; k < 3; k++ {
		if c.Recall(k) != 1 || c.Precision(k) != 1 || c.F1(k) != 1 {
			t.Fatalf("class %d not perfect", k)
		}
	}
	if c.MacroRecall() != 1 {
		t.Fatal("macro recall")
	}
	if c.Total() != 4 {
		t.Fatalf("total %d", c.Total())
	}
}

func TestKnownConfusion(t *testing.T) {
	c := newConfusion(2)
	// truth 0: predicted 0,0,1 ; truth 1: predicted 1.
	c.Add([]int{0, 0, 0, 1}, []int{0, 0, 1, 1})
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	if got := c.Recall(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("recall0 %v", got)
	}
	if got := c.Precision(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("precision1 %v", got)
	}
	f1 := c.F1(1)
	want := 2 * 0.5 * 1.0 / 1.5
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("f1 %v, want %v", f1, want)
	}
}

func TestMissingClassZeroRecall(t *testing.T) {
	// The fig3b "Missing" situation: class 2 exists in truth but the model
	// never learned it.
	c := newConfusion(3)
	c.Add([]int{0, 1, 2, 2}, []int{0, 1, 0, 1})
	if c.Recall(2) != 0 {
		t.Fatal("missing class must have zero recall")
	}
	worst, r := c.WorstClass()
	if worst != 2 || r != 0 {
		t.Fatalf("worst class (%d, %v)", worst, r)
	}
	// Accuracy still looks OK at 0.5 — the metric the paper's Fig 3b
	// conceals without per-class analysis.
	if c.Accuracy() != 0.5 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
}

func TestEmptyAndAbsentClasses(t *testing.T) {
	c := newConfusion(4)
	if c.Accuracy() != 0 || c.MacroRecall() != 0 {
		t.Fatal("empty matrix should report zeros")
	}
	if w, r := c.WorstClass(); w != -1 || r != 0 {
		t.Fatalf("empty worst (%d, %v)", w, r)
	}
	c.Add([]int{1}, []int{1})
	// Classes 0, 2, 3 absent: macro recall over present classes only.
	if c.MacroRecall() != 1 {
		t.Fatalf("macro recall %v", c.MacroRecall())
	}
	if c.Precision(0) != 0 || c.Recall(0) != 0 || c.F1(0) != 0 {
		t.Fatal("absent class metrics should be 0")
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	c := newConfusion(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Add([]int{0}, []int{0, 1})
}

func TestAccuracyMatchesDirectCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		n := 1 + rng.Intn(200)
		truth := make([]int, n)
		pred := make([]int, n)
		correct := 0
		for i := range truth {
			truth[i] = rng.Intn(k)
			pred[i] = rng.Intn(k)
			if truth[i] == pred[i] {
				correct++
			}
		}
		c := newConfusion(k)
		c.Add(truth, pred)
		if c.Total() != n {
			return false
		}
		return math.Abs(c.Accuracy()-float64(correct)/float64(n)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRenders(t *testing.T) {
	c := newConfusion(2)
	c.Add([]int{0, 1}, []int{0, 1})
	if s := c.String(); s == "" {
		t.Fatal("empty render")
	}
}
