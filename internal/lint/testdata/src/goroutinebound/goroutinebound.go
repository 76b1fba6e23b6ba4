// Package goroutinebound seeds the spawn fixture: every go statement
// reachable from a hotpath or deterministic root is reported, whatever
// acquire, receive or join surrounds it. tensor.FanOut is the one
// spawner the determinism pass admits.
package goroutinebound

import "tensor"

// Run is the hot root reaching every spawn shape.
//
// fedlint:hotpath
func Run(n int) {
	bounded(n)
	unbounded(n)
	semaphore(n)
	received(make(chan struct{}), make([]int, n))
	pooled(pool{}, make([]int, n))
}

// bounded spawns only lanes the semaphore granted: bounded, but the
// spawn is still a hand-written fan-out.
func bounded(n int) {
	extra := tensor.TryAcquireLanes(n)
	done := make(chan struct{}, extra)
	for i := 0; i < extra; i++ {
		go func() { done <- struct{}{} }() // want `go statement is reachable from deterministic root goroutinebound\.Run`
	}
	for i := 0; i < extra; i++ {
		<-done
	}
	tensor.ReleaseLanes(extra)
}

// unbounded fans out one goroutine per item with no budget at all.
func unbounded(n int) {
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() { done <- struct{}{} }() // want `go statement is reachable from deterministic root goroutinebound\.Run`
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// semaphore gates each spawn on a token receive.
func semaphore(n int) {
	sem := make(chan struct{}, 2)
	sem <- struct{}{}
	sem <- struct{}{}
	for i := 0; i < n; i++ {
		<-sem
		go func() { sem <- struct{}{} }() // want `go statement is reachable from deterministic root goroutinebound\.Run`
	}
}

// received spawns after an unrelated receive and never joins: the
// receive neither bounds nor waits for the spawn.
func received(ready chan struct{}, out []int) {
	<-ready
	go work(out) // want `go statement is reachable from deterministic root goroutinebound\.Run`
}

// pool is not the lane semaphore: its Acquire and Wait do nothing.
type pool struct{}

func (pool) Acquire() {}
func (pool) Wait()    {}

// pooled wraps a spawn loop in a no-op Acquire/Wait pair.
func pooled(p pool, out []int) {
	p.Acquire()
	for range out {
		go work(out) // want `go statement is reachable from deterministic root goroutinebound\.Run`
	}
	p.Wait()
}

// work is reached through the spawn edges and is itself clean.
func work(out []int) {
	for i := range out {
		out[i] = i
	}
}

// Drain is a deterministic root; the naked spawn it reaches is reported
// with its path.
//
// fedlint:deterministic
func Drain() {
	naked()
}

// naked spawns with no acquire anywhere in the declaration.
func naked() {
	go func() {}() // want `go statement is reachable from deterministic root goroutinebound\.Drain \(path: goroutinebound\.Drain → goroutinebound\.naked\)`
}

// Stray spawns unboundedly but is unreachable from any root.
func Stray() {
	go func() {}()
}
