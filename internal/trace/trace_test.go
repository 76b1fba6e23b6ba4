package trace

import (
	"math"
	"testing"
)

func ev(round, client int) Event {
	return Event{Kind: KindClientRound, Round: round, Client: client, ComputeS: float64(round) + 0.5}
}

func TestRecorderOrderAndLen(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Emit(ev(0, i))
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	events := r.Events()
	for i, e := range events {
		if e.Client != i {
			t.Fatalf("event %d has client %d, want %d (order broken)", i, e.Client, i)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRecorderOverflowDropsOldest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(ev(0, i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	events := r.Events()
	for i, e := range events {
		if want := 6 + i; e.Client != want {
			t.Fatalf("event %d has client %d, want %d (ring should keep the newest window)", i, e.Client, want)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(ev(0, 0)) // must not panic
	r.Drain(New(4))
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should report empty state")
	}
	// Draining a nil source is also a no-op.
	rr := New(4)
	rr.Drain(nil)
	if rr.Len() != 0 {
		t.Fatalf("Len = %d after draining nil, want 0", rr.Len())
	}
}

func TestDrainMergesInOrderAndResetsSource(t *testing.T) {
	dst := New(16)
	a, b := New(4), New(4)
	a.Emit(ev(0, 0))
	a.Emit(ev(0, 1))
	b.Emit(ev(0, 2))
	dst.Emit(Event{Kind: KindSchedule})
	dst.Drain(a)
	dst.Drain(b)
	events := dst.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	want := []int{0, 0, 1, 2}
	for i := 1; i < 4; i++ {
		if events[i].Client != want[i] {
			t.Fatalf("event %d has client %d, want %d", i, events[i].Client, want[i])
		}
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("sources not reset after drain: %d, %d", a.Len(), b.Len())
	}
	// A drained source is immediately reusable.
	a.Emit(ev(1, 7))
	if a.Len() != 1 || a.Events()[0].Client != 7 {
		t.Fatal("source unusable after drain")
	}
}

func TestDrainWrappedSource(t *testing.T) {
	src := New(3)
	for i := 0; i < 5; i++ { // wraps: keeps 2, 3, 4
		src.Emit(ev(0, i))
	}
	dst := New(8)
	dst.Drain(src)
	events := dst.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, e := range events {
		if want := 2 + i; e.Client != want {
			t.Fatalf("event %d has client %d, want %d", i, e.Client, want)
		}
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	r := New(4)
	for i := 0; i < 6; i++ {
		r.Emit(ev(0, i))
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset left Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	for i := 0; i < 4; i++ {
		r.Emit(ev(1, i))
	}
	if r.Len() != 4 || r.Dropped() != 0 {
		t.Fatalf("after refill: Len=%d Dropped=%d, want 4, 0", r.Len(), r.Dropped())
	}
}

// TestEmitSteadyStateAllocs is the runtime side of the static hotalloc
// guarantee: Emit and Drain never allocate after New.
func TestEmitSteadyStateAllocs(t *testing.T) {
	r := New(64)
	sub := New(8)
	e := ev(3, 1)
	allocs := testing.AllocsPerRun(200, func() {
		sub.Emit(e)
		sub.Emit(e)
		r.Drain(sub)
		r.Emit(e)
	})
	if allocs != 0 {
		t.Fatalf("Emit/Drain allocated %.1f times per run, want 0", allocs)
	}
}

func TestSanitize(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{1.5, 1.5}, {0, 0}, {-2, -2},
		{math.NaN(), -1}, {math.Inf(1), -1}, {math.Inf(-1), -1},
	} {
		if got := Sanitize(tc.in); got != tc.want {
			t.Fatalf("Sanitize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestLogIsLossless: a log grows instead of dropping, and a ring fed
// through a log keeps and drops exactly what direct emission would have —
// Dropped count included — with the log's grown storage reused after
// Reset.
func TestLogIsLossless(t *testing.T) {
	direct, staged, log := New(10), New(10), NewLog(2)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3+round*2; i++ {
			direct.Emit(ev(round, i))
			log.Emit(ev(round, i))
		}
		if log.Len() != 3+round*2 || log.Dropped() != 0 {
			t.Fatalf("round %d: log holds %d events, dropped %d; want %d, 0", round, log.Len(), log.Dropped(), 3+round*2)
		}
		staged.Drain(log)
	}
	if err := Compare(direct.Events(), staged.Events(), Exact); err != nil || direct.Dropped() != staged.Dropped() {
		t.Fatalf("staged ring differs from direct emission (dropped %d vs %d): %v", staged.Dropped(), direct.Dropped(), err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		log.Reset()
		for i := 0; i < 9; i++ {
			log.Emit(ev(9, i))
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm log allocated %.1f times per round, want 0", allocs)
	}
}
