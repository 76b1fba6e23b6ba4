package fl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fedsched/internal/data"
	"fedsched/internal/trace"
)

// RunAsync's event queue: one pending event per cycle record, dispatched
// earliest first, equal times in scheduling order.

// unbounded is a horizon past every finite event; parked cycles (at +Inf)
// never come due.
const unbounded = math.MaxFloat64

func park(cy *cycle) { cy.at = math.Inf(1) }

// queueAt returns a queue whose i-th cycle has its event at ats[i],
// scheduled in index order.
func queueAt(ats ...float64) *eventQueue {
	q := &eventQueue{cycles: make([]cycle, len(ats))}
	for i, at := range ats {
		q.after(&q.cycles[i], at)
	}
	return q
}

// drain dispatches q's events due by horizon to handle, which reschedules
// the cycle with q.after or parks it, and returns how many ran.
func drain(q *eventQueue, horizon float64, handle func(cy *cycle)) int {
	n := 0
	for cy := q.next(horizon); cy != nil; cy = q.next(horizon) {
		handle(cy)
		n++
	}
	return n
}

func TestEventsRunInTimeOrder(t *testing.T) {
	q := queueAt(5, 1, 3, 2, 4)
	var got []float64
	if n := drain(q, unbounded, func(cy *cycle) { got = append(got, q.now); park(cy) }); n != 5 {
		t.Fatalf("ran %d events", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if q.now != 5 {
		t.Fatalf("clock at %v, want 5", q.now)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	// Schedule in reverse record order so the scan order and the
	// scheduling order disagree: the lower seq must win every tie.
	q := &eventQueue{cycles: make([]cycle, 10)}
	for i := len(q.cycles) - 1; i >= 0; i-- {
		q.after(&q.cycles[i], 1)
	}
	var got []int
	drain(q, unbounded, func(cy *cycle) { got = append(got, cy.seq); park(cy) })
	if len(got) != 10 || !sort.IntsAreSorted(got) {
		t.Fatalf("equal-time events not FIFO: %v", got)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	// A handler schedules its cycle's next event relative to the clock it
	// was dispatched at — a download landing scheduling the upload.
	q := queueAt(2)
	var got []float64
	drain(q, unbounded, func(cy *cycle) {
		got = append(got, q.now)
		if len(got) == 1 {
			q.after(cy, 3)
		} else {
			park(cy)
		}
	})
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("trace %v, want [2 5]", got)
	}
}

func TestRunUntilLeavesLateEvents(t *testing.T) {
	// An event past the horizon (RunAsync's Duration) is not dispatched
	// and does not move the clock; it stays pending.
	q := queueAt(1, 10)
	if n := drain(q, 5, park); n != 1 {
		t.Fatalf("dispatched %d events, want 1", n)
	}
	if q.now != 1 {
		t.Fatalf("clock %v, want 1", q.now)
	}
	if at := q.cycles[1].at; at != 10 {
		t.Fatalf("late event moved to %v", at)
	}
	if n := drain(q, unbounded, park); n != 1 || q.now != 10 {
		t.Fatalf("late event lost: %d dispatched, clock %v", n, q.now)
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	q := queueAt(-3)
	if n := drain(q, unbounded, park); n != 1 || q.now != 0 {
		t.Fatalf("dispatched %d, now=%v", n, q.now)
	}
}

func TestOrderingProperty(t *testing.T) {
	// Random start times and reschedule delays (zero included, so ties
	// happen): the dispatch sequence is ordered by (at, seq).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ats := make([]float64, 1+rng.Intn(20))
		for i := range ats {
			ats[i] = float64(rng.Intn(50))
		}
		q := queueAt(ats...)
		type ev struct {
			at  float64
			seq int
		}
		var got []ev
		drain(q, unbounded, func(cy *cycle) {
			got = append(got, ev{q.now, cy.seq})
			if rng.Intn(4) == 0 {
				park(cy)
			} else {
				q.after(cy, float64(rng.Intn(5)))
			}
		})
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || b.at == a.at && b.seq < a.seq {
				return false
			}
		}
		return len(got) >= len(ats)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventPoolSteadyStateAllocFree(t *testing.T) {
	// The cycle records are the whole event pool: scan, dispatch and
	// reschedule reuse them, so the steady state allocates nothing.
	q := queueAt(3, 1, 2)
	allocs := testing.AllocsPerRun(200, func() {
		cy := q.next(unbounded)
		q.after(cy, 1)
	})
	if allocs > 0 {
		t.Errorf("scan+dispatch allocates %.1f per event at steady state", allocs)
	}
}

func TestEventPoolReuseKeepsOrdering(t *testing.T) {
	// A handler that reschedules the record it was just dispatched from
	// interleaves correctly with the other records' events.
	q := queueAt(1, 2.5)
	var got []float64
	drain(q, unbounded, func(cy *cycle) {
		got = append(got, q.now)
		if cy == &q.cycles[0] && q.now < 5 {
			q.after(cy, 1)
		} else {
			park(cy)
		}
	})
	want := []float64{1, 2, 2.5, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAsyncDurationKeepsMergeClock(t *testing.T) {
	// A Duration bound that MaxUpdates beats must not change the run: the
	// loop stops at the last merge either way, with the same events.
	train, _ := data.TrainTest(data.SMNISTConfig(0, 39), 300, 10)
	run := func(duration float64) (*AsyncHistory, []trace.Event) {
		rec := trace.New(0)
		cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 5, Duration: duration}
		cfg.Trace = rec
		hist, err := RunAsync(cfg, asyncClients(t, train, 3, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		return hist, rec.Events()
	}
	open, openEvents := run(0)
	bounded, boundedEvents := run(1e6)
	if bounded.Updates != 5 || open.Updates != 5 {
		t.Fatalf("updates %d / %d, want 5", open.Updates, bounded.Updates)
	}
	last := openEvents[len(openEvents)-1]
	if last.Kind != trace.KindMerge || last.Round != 4 || open.VirtualSeconds != last.AtS {
		t.Fatalf("run ends at %v, last event %+v: want the 5th merge", open.VirtualSeconds, last)
	}
	if bounded.VirtualSeconds != open.VirtualSeconds {
		t.Fatalf("Duration 1e6 reports %v virtual seconds, %v without it", bounded.VirtualSeconds, open.VirtualSeconds)
	}
	if a, b := countKind(openEvents, trace.KindSimStep), countKind(boundedEvents, trace.KindSimStep); a != b {
		t.Fatalf("%d sim_step events without Duration, %d with it", a, b)
	}
}
