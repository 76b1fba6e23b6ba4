package tensor

// Float is the set of element types every kernel in this package is
// generic over. float64 is the reference precision (the federated
// engines aggregate in it unconditionally); float32 halves memory
// traffic and doubles the lanes of a vector register, matching what
// real on-device training stacks (DL4J/OpenBLAS and successors) run.
type Float interface {
	~float32 | ~float64
}

// isF32 reports whether T is float32. The comparison is resolved per
// instantiation, so branches guarded by it fold to a constant.
func isF32[T Float]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// Eps returns the practical elementwise comparison tolerance for T:
// kernels accumulate a few hundred to a few thousand terms, so tests
// comparing two algebraically-equal computations should allow roughly
// 1e4 ULPs of headroom — ≈1e-12 at float64, ≈1e-4 at float32. Hard-coded
// 1e-12 thresholds are f32-hostile; property tests parameterized over T
// must derive their tolerance from this instead.
func Eps[T Float]() float64 {
	if isF32[T]() {
		return 1e-4
	}
	return 1e-12
}

// Select returns a when c is set and b otherwise, bit for bit, as
// straight-line code: an indexed load from a two-entry table. ReLU
// (forward and backward) and max-pooling select on sign and order
// patterns that are close to random on real activations; written as a
// branch, every other element is a misprediction.
//
// fedlint:hotpath
func Select[T Float](c bool, a, b T) T {
	var i int
	if c {
		i = 1
	}
	return [2]T{b, a}[i]
}
