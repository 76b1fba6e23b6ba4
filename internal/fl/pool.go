package fl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fedsched/internal/nn"
	"fedsched/internal/tensor"
)

// workerCount resolves the Config.Workers knob against a task count:
// zero means one worker per logical CPU, negative values are clamped to
// strictly sequential, and the result never exceeds the number of tasks.
func workerCount(requested, tasks int) int {
	w := requested
	switch {
	case w < 0:
		w = 1
	case w == 0:
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fanOut runs fn(i, s) for every i in [0, n) on at most `workers`
// goroutines (the caller included), each pulling the next index off a
// shared counter and each with its own state s: own for the caller,
// fork(own) for every extra worker. workers ≤ 1 — and the 1-task case —
// degrade to the plain sequential loop with no goroutine spawned and no
// synchronization. Each extra worker holds one tensor parallelism lane,
// so client-level fan-out and the matmul-level fan-out inside each
// client share a single ≈GOMAXPROCS budget: when this pool takes the
// lanes, the matmuls it encloses run single-threaded, and vice versa.
// Lanes are taken before anything is forked — a saturated pool must not
// pay for state it cannot use — exactly one fork is made per lane
// granted, and a fork that reports failure hands the lanes back and
// leaves the sequential loop. It is the one fan-out loop under forEach
// and forEachBatch.
func fanOut[S any](workers, n int, own S, fork func(S) (S, bool), fn func(i int, s S)) {
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = tensor.TryAcquireLanes(workers - 1)
	}
	states := make([]S, extra)
	for w := range states {
		s, ok := fork(own)
		if !ok {
			tensor.ReleaseLanes(extra)
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
		go func() {
			defer wg.Done()
			work(s)
		}()
	}
	work(own) // the calling goroutine is a worker too
	wg.Wait()
	tensor.ReleaseLanes(extra)
}

// forEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (see fanOut; the workers' state is fn itself, shared).
//
// fn(i) must only touch state owned by task i; result ordering is the
// caller's job (merge after forEach returns, in index order).
func forEach(workers, n int, fn func(i int)) {
	fanOut(workers, n, fn,
		func(fn func(int)) (func(int), bool) { return fn, true },
		func(i int, fn func(int)) { fn(i) })
}

// forEachBatch runs fn(i, net) for every batch index in [0, n), fanning
// out across copies of net when parallelism is available. The original
// net serves the calling goroutine; each extra worker gets its own copy
// (own layer caches), because forward passes mutate per-layer state: one
// of *spares given net's weights, or else a clone, appended to *spares
// for the next call — so a run's evaluations reuse the copies, warmed
// workspaces included, of the last. spares may be nil (clone every time).
// Networks without a Clone blueprint fall back to the sequential loop.
// fn must write its result into task-indexed storage; any merge happens
// after return, in batch order.
func forEachBatch(net *nn.Network, spares *[]*nn.Network, workers, n int, fn func(i int, m *nn.Network)) {
	used := 0
	fanOut(workers, n, net, func(net *nn.Network) (*nn.Network, bool) {
		if spares != nil && used < len(*spares) {
			m := (*spares)[used]
			m.SetWeights(net.Weights())
			used++
			return m, true
		}
		c := cloneNet(net)
		if c != nil && spares != nil {
			*spares = append(*spares, c)
			used++
		}
		return c, c != nil
	}, fn)
}

// cloneNet builds an extra batch worker's network; tests count the calls.
var cloneNet = (*nn.Network).Clone

// predict classifies one evaluation batch; tests count the calls.
var predict = (*nn.Network).Predict
