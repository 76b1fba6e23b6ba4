package fl

import (
	"fmt"
	"strings"
)

// Confusion is a K×K confusion matrix, Counts[true][predicted], with the
// classification measures beyond plain accuracy: per-class
// precision/recall/F1 and macro averages. The outlier experiments (paper
// §III-C) use per-class recall to show that a "Missing" class scores zero
// recall even when overall accuracy looks acceptable.
type Confusion struct {
	Classes int
	Counts  [][]int
}

// newConfusion allocates a K-class confusion matrix.
func newConfusion(classes int) *Confusion {
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records predictions against truths. The slices must have equal
// length; out-of-range labels panic.
func (c *Confusion) Add(truth, pred []int) {
	if len(truth) != len(pred) {
		panic(fmt.Sprintf("fl: %d truths vs %d predictions", len(truth), len(pred)))
	}
	for i, y := range truth {
		c.Counts[y][pred[i]]++
	}
}

// Total returns the number of recorded samples.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the overall fraction correct (0 for an empty matrix).
func (c *Confusion) Accuracy() float64 {
	total, correct := 0, 0
	for i, row := range c.Counts {
		for j, v := range row {
			total += v
			if i == j {
				correct += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Recall returns the per-class recall (diagonal over row sum); classes
// with no samples report 0.
func (c *Confusion) Recall(class int) float64 {
	row := c.Counts[class]
	total := 0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(row[class]) / float64(total)
}

// Precision returns the per-class precision (diagonal over column sum);
// classes never predicted report 0.
func (c *Confusion) Precision(class int) float64 {
	total := 0
	for i := range c.Counts {
		total += c.Counts[i][class]
	}
	if total == 0 {
		return 0
	}
	return float64(c.Counts[class][class]) / float64(total)
}

// F1 returns the per-class harmonic mean of precision and recall.
func (c *Confusion) F1(class int) float64 {
	p, r := c.Precision(class), c.Recall(class)
	if p+r == 0 { //fedlint:allow floateq — precision/recall are ratios of integer counts; both are exactly 0 iff the counts are
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroRecall averages recall over classes that appear in the data.
func (c *Confusion) MacroRecall() float64 {
	sum, seen := 0.0, 0
	for k := 0; k < c.Classes; k++ {
		total := 0
		for _, v := range c.Counts[k] {
			total += v
		}
		if total == 0 {
			continue
		}
		sum += c.Recall(k)
		seen++
	}
	if seen == 0 {
		return 0
	}
	return sum / float64(seen)
}

// WorstClass returns the class with the lowest recall among classes
// present in the data, and that recall. Returns (-1, 0) for empty data.
func (c *Confusion) WorstClass() (int, float64) {
	worst, worstR := -1, 2.0
	for k := 0; k < c.Classes; k++ {
		total := 0
		for _, v := range c.Counts[k] {
			total += v
		}
		if total == 0 {
			continue
		}
		if r := c.Recall(k); r < worstR {
			worst, worstR = k, r
		}
	}
	if worst < 0 {
		return -1, 0
	}
	return worst, worstR
}

// String renders the matrix with per-class recall.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy %.4f, macro recall %.4f\n", c.Accuracy(), c.MacroRecall())
	for k := 0; k < c.Classes; k++ {
		fmt.Fprintf(&b, "class %d: recall %.3f precision %.3f f1 %.3f\n",
			k, c.Recall(k), c.Precision(k), c.F1(k))
	}
	return b.String()
}
