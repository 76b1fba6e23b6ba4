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

// forEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (the caller included). workers ≤ 1 — and the 1-task case —
// degrade to the plain sequential loop with no goroutine spawned and no
// synchronization. Each extra worker holds one tensor parallelism lane,
// so client-level fan-out and the matmul-level fan-out inside each
// client share a single ≈GOMAXPROCS budget: when this pool takes the
// lanes, the matmuls it encloses run single-threaded, and vice versa.
//
// fn(i) must only touch state owned by task i; result ordering is the
// caller's job (merge after forEach returns, in index order).
func forEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = tensor.TryAcquireLanes(workers - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the calling goroutine is a worker too
	wg.Wait()
	tensor.ReleaseLanes(extra)
}

// forEachBatch runs fn(i, net) for every batch index in [0, n), fanning
// out across clones of net when parallelism is available. The original
// net serves the calling goroutine; each extra worker gets its own clone
// (fresh layer caches), because forward passes mutate per-layer state.
// Lanes are taken before anything is cloned — a saturated pool must not
// pay for networks it cannot run — and exactly one clone is built per
// lane granted. Networks without a Clone blueprint hand the lanes back
// and fall back to the sequential loop. fn must write its result into
// task-indexed storage; any merge happens after return, in batch order.
func forEachBatch(net *nn.Network, workers, n int, fn func(i int, m *nn.Network)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = tensor.TryAcquireLanes(workers - 1)
	}
	clones := make([]*nn.Network, 0, extra)
	for len(clones) < extra {
		c := net.Clone()
		if c == nil {
			tensor.ReleaseLanes(extra)
			extra = 0
			break
		}
		clones = append(clones, c)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i, net)
		}
		return
	}
	var next int64
	work := func(m *nn.Network) {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(i, m)
		}
	}
	var wg sync.WaitGroup
	for _, clone := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(clone)
		}()
	}
	work(net)
	wg.Wait()
	tensor.ReleaseLanes(extra)
}
