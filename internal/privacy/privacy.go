// Package privacy implements locally differentially-private reporting of
// class coverage. The paper's system model (§IV-A) has the server gather
// "information of non-IID class distribution" protected as
// "differentially-private class information"; §VI-A adds that users "could
// truthfully report their accuracy cost instead of detailed U_j to reduce
// privacy leakage". This package provides the standard mechanism for that:
// randomized response over the K-bit class-membership vector, with an
// unbiased estimator for the class count |U_j| that the accuracy cost
// F_j = K/|U_j| needs.
package privacy

import (
	"fmt"
	"math"
	"math/rand"
)

// Reporter randomizes class-membership bits with ε-local differential
// privacy per bit (randomized response: keep the true bit with probability
// e^ε/(1+e^ε), flip otherwise).
type Reporter struct {
	Epsilon float64
	Classes int
	keep    float64 // probability of reporting the true bit
}

// NewReporter constructs a reporter for the given per-bit privacy budget
// and number of classes.
func NewReporter(epsilon float64, classes int) (*Reporter, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("privacy: epsilon must be positive, got %v", epsilon)
	}
	if classes <= 0 {
		return nil, fmt.Errorf("privacy: classes must be positive, got %d", classes)
	}
	e := math.Exp(epsilon)
	return &Reporter{Epsilon: epsilon, Classes: classes, keep: e / (1 + e)}, nil
}

// Randomize produces the privatized class-membership bit vector for a
// user's true class set.
func (r *Reporter) Randomize(classes []int, rng *rand.Rand) []bool {
	truth := make([]bool, r.Classes)
	for _, c := range classes {
		if c >= 0 && c < r.Classes {
			truth[c] = true
		}
	}
	out := make([]bool, r.Classes)
	for i, b := range truth {
		if rng.Float64() < r.keep {
			out[i] = b
		} else {
			out[i] = !b
		}
	}
	return out
}

// EstimateSet thresholds the randomized report into a plausible class set
// (bits more likely true than false under the mechanism). With per-bit
// randomized response that is simply the reported bits; the method exists
// so callers can feed schedulers a concrete []int.
func (r *Reporter) EstimateSet(report []bool) []int {
	var out []int
	for c, b := range report {
		if b {
			out = append(out, c)
		}
	}
	return out
}

// FlipProbability returns the probability that any single bit is reported
// incorrectly — the utility cost of the privacy budget.
func (r *Reporter) FlipProbability() float64 { return 1 - r.keep }
