// Package detflow seeds the interprocedural determinism-taint fixture:
// deterministic roots whose static call graph — including one edge into
// the detflowdep package — reaches seeded nondeterminism sources. The
// expectations sit on the source lines, where nondet reports.
package detflow

import (
	"math/rand"
	"time"

	"detflowdep"
)

// Engine is a deterministic root; everything it statically reaches must
// be bit-reproducible.
//
// fedlint:deterministic
func Engine(seed int64, out []float64) float64 {
	r := rand.New(rand.NewSource(seed))
	x := helper(r)
	x += detflowdep.Dep()
	x += audited()
	x += wall()
	fork(out)
	return x
}

// helper is reached from Engine and leaks the global source alongside
// the seeded one.
func helper(r *rand.Rand) float64 {
	return rand.Float64() + r.Float64() // want `global rand.Float64 is reachable from deterministic root detflow\.Engine`
}

// audited is a detsafe boundary: the walk does not enter it, so its
// wall-clock read is not reported.
//
// fedlint:detsafe
func audited() float64 {
	return float64(time.Now().UnixNano())
}

// wall reads the wall clock through Since and Until: both are sources
// like time.Now.
func wall() float64 {
	var t0 time.Time
	d := time.Since(t0)                   // want `time\.Since is reachable from deterministic root detflow\.Engine`
	return (d + time.Until(t0)).Seconds() // want `time\.Until is reachable from deterministic root detflow\.Engine`
}

// fork spawns with no visible join anywhere in the declaration: whatever
// fill writes races Engine's reads.
func fork(out []float64) {
	go fill(out) // want `goroutine with no visible join`
}

// fill is reached through the spawn edge and is itself clean.
func fill(out []float64) {
	for i := range out {
		out[i] = float64(i)
	}
}

// Gated is a deterministic root whose one tainted callee is explicitly
// allowed at the call site, so taint does not propagate.
//
// fedlint:deterministic
func Gated() float64 {
	//fedlint:allow nondet — audited: report timestamps never feed results
	return jitter()
}

// jitter reads the wall clock but is only reachable through the allowed
// call site above.
func jitter() float64 {
	return float64(time.Now().UnixNano())
}

// Stray holds a source but is unreachable from any deterministic root.
func Stray() float64 {
	return rand.Float64()
}
