package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// requireLanesBack fails unless every lane of the pool is free.
func requireLanesBack(t *testing.T, what string) {
	t.Helper()
	got := TryAcquireLanes(MaxLanes())
	ReleaseLanes(got)
	if got != MaxLanes() {
		t.Fatalf("%s: %d of %d lanes free afterwards", what, got, MaxLanes())
	}
}

// TestFanOutRunsEveryIndexOnce: for every Workers knob value — sequential
// (−1), one per CPU (0), one, two and more workers than lanes — and task
// counts around the one-worker cases, every index runs exactly once and
// every lane comes back.
func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	withLanes(t, 4, func() {
		for _, workers := range []int{-1, 0, 1, 2, 8} {
			for _, n := range []int{0, 1, 2, 3, 257} {
				hits := make([]atomic.Int32, n)
				FanOut(workers, n, 0, func(s int) (int, bool) { return s + 1, true },
					func(i, _ int) { hits[i].Add(1) })
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
					}
				}
				requireLanesBack(t, "after a run")
			}
		}
	})
}

// TestFanOutForkFailure: a fork that reports failure hands back every
// lane granted and leaves the sequential loop on the caller's state.
func TestFanOutForkFailure(t *testing.T) {
	withLanes(t, 4, func() {
		forks := 0
		var foreign atomic.Int32
		FanOut(8, 64, 0, func(int) (int, bool) {
			forks++
			return forks, forks < 2 // the second fork fails
		}, func(_, s int) {
			if s != 0 {
				foreign.Add(1)
			}
		})
		if forks != 2 || foreign.Load() != 0 {
			t.Fatalf("%d forks, %d tasks on a forked state; want 2 forks and none", forks, foreign.Load())
		}
		requireLanesBack(t, "after a failed fork")
	})
}

// TestFanOutForksOncePerLane: FanOut forks at most one state per lane it
// was granted — none when another holder has every lane — and runs
// tasks only on the states it forked and its own.
func TestFanOutForksOncePerLane(t *testing.T) {
	withLanes(t, 4, func() {
		for held := 0; held <= MaxLanes(); held++ {
			got := TryAcquireLanes(held)
			forks := 0
			var states [8]atomic.Int32
			FanOut(8, 100, 0, func(int) (int, bool) {
				forks++
				return forks, true
			}, func(_, s int) { states[s].Add(1) })
			ReleaseLanes(got)
			if free := MaxLanes() - held; forks > free {
				t.Errorf("%d lanes free: %d forks", free, forks)
			}
			for s := forks + 1; s < len(states); s++ {
				if states[s].Load() != 0 {
					t.Errorf("%d lanes held: tasks ran on state %d, which was never forked", held, s)
				}
			}
			requireLanesBack(t, "after a run")
		}
	})
}

// TestFanOutNestedStaysInBudget: a FanOut inside every worker of another
// FanOut finishes — inner loops find the lanes taken and run on their
// own goroutine rather than wait — and never has more goroutines at work
// at once than the budget's MaxLanes() lanes plus the caller.
func TestFanOutNestedStaysInBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	withLanes(t, 3, func() {
		var active, peak atomic.Int32
		leaf := func(int, struct{}) {
			a := active.Add(1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			for range 100 {
				runtime.Gosched()
			}
			active.Add(-1)
		}
		done := make(chan struct{})
		//fedlint:allow nondet — test watchdog: the spawn only bounds the nested FanOuts' wall time
		go func() {
			defer close(done)
			FanOut(0, 8, struct{}{}, nil, func(int, struct{}) {
				FanOut(8, 8, struct{}{}, nil, func(i int, s struct{}) {
					FanOut(2, 2, s, nil, leaf)
				})
			})
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("nested FanOut did not finish")
		}
		if p := peak.Load(); p > int32(MaxLanes()+1) {
			t.Fatalf("%d goroutines at work at once, budget %d lanes + the caller", p, MaxLanes())
		}
		requireLanesBack(t, "after nested runs")
	})
}
