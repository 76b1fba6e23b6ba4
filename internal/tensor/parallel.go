package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// extraLanes is a process-wide pool of "extra" parallelism tokens shared
// by every FanOut: GEMM cells, client training, evaluation batches,
// population plan/play and JSONL export. The calling goroutine never
// needs a token — only the workers it spawns on top of itself do — so
// with a capacity of GOMAXPROCS−1 the total number of concurrently
// running goroutines stays ≈ GOMAXPROCS no matter how fan-outs nest:
// when the client-level pool holds most lanes, the matmuls running
// inside its workers find none left and stay single-threaded; when
// training is sequential, the matmuls grab every lane and fan out.
//
// Acquisition is strictly non-blocking, so lane exhaustion can never
// deadlock — callers degrade to doing the work themselves.
var extraLanes chan struct{}

func init() {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 0 {
		n = 0
	}
	extraLanes = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		extraLanes <- struct{}{}
	}
}

// SetMaxLanes resizes the extra-lane pool to n lanes (clamped at ≥ 0).
// It exists for benchmarks and tests that raise GOMAXPROCS after package
// init (the pool is sized once at startup) and for deployments that want
// to cap library parallelism explicitly. It must not be called while
// kernels or worker pools are running.
func SetMaxLanes(n int) {
	if n < 0 {
		n = 0
	}
	extraLanes = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		extraLanes <- struct{}{}
	}
}

// MaxLanes reports the pool's current capacity.
func MaxLanes() int { return cap(extraLanes) }

// TryAcquireLanes grabs up to want extra parallelism lanes without
// blocking and returns how many it obtained (possibly zero). Every
// acquired lane must later be returned with ReleaseLanes.
func TryAcquireLanes(want int) int {
	got := 0
	for got < want {
		select {
		case <-extraLanes:
			got++
		default:
			return got
		}
	}
	return got
}

// ReleaseLanes returns n lanes previously acquired with TryAcquireLanes.
func ReleaseLanes(n int) {
	for i := 0; i < n; i++ {
		extraLanes <- struct{}{}
	}
}

// WorkerCount resolves a Workers knob against a task count: zero means
// one worker per logical CPU, negative values are clamped to strictly
// sequential, and the result never exceeds the number of tasks (nor
// drops below 1).
func WorkerCount(requested, tasks int) int {
	w := requested
	switch {
	case w < 0:
		w = 1
	case w == 0:
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, tasks))
}

// FanOut runs fn(i, s) for every i in [0, n) on at most
// WorkerCount(workers, n) goroutines, the caller included, each pulling
// the next index off a shared counter and each with its own state s:
// own for the caller, fork(own) for every extra worker (a nil fork
// shares own). It is the one place a goroutine is spawned under the lane
// budget: each extra worker holds one lane, so a fan-out nested inside
// another one's workers finds the lanes taken and runs its loop on its
// own goroutine. Lanes are taken before anything is forked — a saturated
// budget must not pay for state it cannot use — at most one fork is
// made per lane granted, and when a fork reports failure every lane goes
// back and the sequential loop runs. With one worker, or no lane free,
// that loop runs in index order with no goroutine spawned and no
// synchronization. fn(i, s) must touch only task i's results and s; any
// ordering is the caller's, after FanOut returns.
func FanOut[S any](workers, n int, own S, fork func(S) (S, bool), fn func(i int, s S)) {
	extra := 0
	if w := WorkerCount(workers, n); w > 1 {
		extra = TryAcquireLanes(w - 1)
	}
	states := make([]S, extra)
	for w := range states {
		s, ok := own, true
		if fork != nil {
			s, ok = fork(own)
		}
		if !ok {
			ReleaseLanes(extra)
			extra = 0
			break
		}
		states[w] = s
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i, own)
		}
		return
	}
	var next atomic.Int64
	work := func(s S) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, s)
		}
	}
	var wg sync.WaitGroup
	for _, s := range states {
		wg.Add(1)
		//fedlint:allow nondet — FanOut's own spawn: one goroutine per lane granted, joined by wg.Wait below
		go func() {
			defer wg.Done()
			work(s)
		}()
	}
	work(own) // the calling goroutine is a worker too
	wg.Wait()
	ReleaseLanes(extra)
}
