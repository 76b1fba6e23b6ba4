// Package fl (the nondet fixture) seeds every shape the nondet pass must
// flag — global math/rand, wall clocks, order-sensitive map folds — next
// to the legal forms (threaded generators, the sorted-keys idiom,
// order-insensitive integer folds) it must leave alone. It is named after
// the FL engine package because nondet scopes itself by package name.
package fl

import (
	"math/rand"
	"sort"
	"time"
)

// seeded is a package-level initializer: not a function, so it is
// scanned directly rather than reached through the call graph.
var seeded = rand.Intn(10) // want `call to global rand\.Intn draws from the shared process-wide source`

func globalRand() int {
	return rand.Intn(10) // want `call to global rand\.Intn draws from the shared process-wide source`
}

func globalFloat() float64 {
	return rand.Float64() // want `call to global rand\.Float64`
}

// threaded draws from an explicitly seeded generator — the codebase's
// sanctioned form.
func threaded(rng *rand.Rand) int {
	return rng.Intn(10)
}

// construct builds the seeded generator; constructors are not draws.
func construct(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func wallClock() time.Time {
	return time.Now() // want `time\.Now in a determinism-critical package`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in a determinism-critical package`
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time\.Until in a determinism-critical package`
}

func mapAccumulate(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `range over map m has an order-sensitive body \(accumulation into total\)`
		total += v
	}
	return total
}

func mapAppend(m map[int]int, out []int) []int {
	for _, v := range m { // want `range over map m has an order-sensitive body \(append\)`
		out = append(out, v*2)
	}
	return out
}

func mapSend(m map[int]int, ch chan int) {
	for k := range m { // want `range over map m has an order-sensitive body \(channel send\)`
		ch <- k
	}
}

// sortedKeys is the full sorted-keys idiom: the key-collection loop is
// the recognized first half and must not be flagged.
func sortedKeys(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// intFold accumulates into an integer with a commutative operator;
// iteration order cannot change the result.
func intFold(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// perIterationLocal folds into an accumulator scoped to one iteration,
// which cannot observe ordering across iterations.
func perIterationLocal(m map[int]float64) bool {
	for _, v := range m {
		d := 0.0
		d += v
		if d > 1 {
			return true
		}
	}
	return false
}

// trailing and preceding suppression placements both silence a finding.
func allowedTrailing() time.Time {
	return time.Now() //fedlint:allow nondet — fixture: trailing suppression
}

func allowedPreceding() int {
	//fedlint:allow nondet — fixture: preceding-line suppression
	return rand.Intn(3)
}
