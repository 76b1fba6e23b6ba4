// Package floatorder seeds the float-accumulation-order fixture: folds
// whose bit pattern depends on map iteration or goroutine completion
// order, reachable from a deterministic root, minus the audited
// fedlint:detsafe helper and the order-insensitive integer fold.
package floatorder

import "sync"

// Reduce is the deterministic root.
//
// fedlint:deterministic
func Reduce(m map[int]float64, xs []float64) float64 {
	s := mapFold(m)
	s += spawnFold(xs)
	s += audited(m)
	s += intFold(map[int]int{1: 1})
	return s
}

// mapFold folds floats in map iteration order.
func mapFold(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `order-sensitive map iteration \(accumulation into sum\) is reachable from deterministic root floatorder\.Reduce`
		sum += v
	}
	return sum
}

// spawnFold folds from goroutines in completion order; the mutex makes
// it race-free but not order-stable. The spawn itself is the finding.
func spawnFold(xs []float64) float64 {
	var mu sync.Mutex
	var sum float64
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() { // want `go statement is reachable from deterministic root floatorder\.Reduce`
			defer wg.Done()
			mu.Lock()
			sum += x
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sum
}

// audited is an allowed reduction helper: its callers fix the order.
//
// fedlint:detsafe
func audited(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// intFold is order-insensitive: integer addition is associative.
func intFold(m map[int]int) float64 {
	n := 0
	for _, v := range m {
		n += v
	}
	return float64(n)
}
