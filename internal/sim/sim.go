// Package sim provides a minimal discrete-event simulation core: a virtual
// clock and an event queue ordered by timestamp. The asynchronous
// federated-learning mode (paper §II-B discusses why synchronous
// aggregation was chosen; we implement the alternative to quantify it)
// schedules client download/train/upload completions as events.
package sim

import (
	"container/heap"
	"fmt"

	"fedsched/internal/trace"
)

// Event is a scheduled callback.
type Event struct {
	At  float64
	Fn  func()
	seq int64 // tie-breaker for deterministic ordering at equal times
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At { //fedlint:allow floateq — exact-equality tie-break; equal times fall through to the seq ordering
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event engine. The zero value is
// ready to use.
type Engine struct {
	now    float64
	queue  eventHeap
	nextID int64
	// Tracer, when non-nil, receives one KindSimStep event per processed
	// event (virtual time in AtS, the engine sequence number in Round) —
	// the event-loop timeline of an asynchronous run. The engine is
	// single-threaded, so emission order is deterministic by
	// construction.
	Tracer *trace.Recorder

	// free recycles processed Event nodes: a long async run schedules
	// millions of events but only ever has O(clients) in flight, so
	// steady-state event throughput allocates nothing.
	free []*Event
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute virtual time `at`. Scheduling in
// the past panics — it would silently corrupt causality.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.3f before now %.3f", at, e.now))
	}
	e.nextID++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fn, ev.seq = at, fn, e.nextID
	} else {
		ev = &Event{At: at, Fn: fn, seq: e.nextID}
	}
	heap.Push(&e.queue, ev)
}

// After enqueues fn to run `delay` seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.Schedule(e.now+delay, fn)
}

// Step runs the next event. It returns false when the queue is empty.
//
// fedlint:deterministic
// fedlint:trace KindSimStep
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	e.Tracer.Emit(trace.Event{Kind: trace.KindSimStep, Round: int(ev.seq), Client: -1, AtS: ev.At})
	// Recycle before running the callback: ev is off the queue, and fn is
	// saved locally, so fn itself may Schedule and immediately reuse the
	// node.
	fn := ev.Fn
	ev.Fn = nil
	e.free = append(e.free, ev)
	fn()
	return true
}

// RunUntil processes events until the queue drains or virtual time would
// exceed deadline; events scheduled after the deadline remain queued. It
// returns the number of events processed.
func (e *Engine) RunUntil(deadline float64) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].At <= deadline {
		e.Step()
		n++
	}
	if e.now < deadline && len(e.queue) == 0 {
		e.now = deadline
	}
	return n
}

// Run drains the queue completely and returns the number of events
// processed.
func (e *Engine) Run() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }
