// Package trace is the round-trace observability layer: a deterministic,
// allocation-free event recorder that the device simulator, the
// discrete-event engine, the schedulers and all three federated-learning
// engines emit into. The paper's claims are about time and energy *per
// round* (Figs 8–10 of the journal extension; Figs 5/7 here), so those
// quantities are recorded as first-class events rather than reconstructed
// from logs: per-client round events (compute/comm time, energy, battery
// level, temperature, DVFS throttle transitions, assigned data size) and
// per-round aggregates (makespan, straggler id, accuracy).
//
// Determinism contract: a Recorder is single-writer. Engines that fan
// client work out across a worker pool give each client its own log
// (one NewLog Recorder per client) and Drain them into the run recorder
// after the round's join, in client-ID order — so the merged trace is
// bit-identical for any worker count, exactly like the History itself
// (see internal/fl/parallel_test.go). Exports (JSONL, CSV) are plain
// field-ordered encodings of the event sequence, so equal event
// sequences produce byte-identical files.
//
// Field semantics by kind:
//
//	KindSchedule    one event per user of a computed assignment: Client is
//	                the user index, Samples the assigned samples, ComputeS
//	                the predicted user cost, MakespanS the predicted
//	                makespan, Loss the Fed-MinAvg objective (0 otherwise).
//	KindSolver      one event per threshold probe of an LBAP binary
//	                search: Round is the iteration, MakespanS the probed
//	                threshold, Samples the feasible shards (or matched
//	                size), Flag 1 when feasible.
//	KindThrottle    a DVFS governor transition on a device: Client is the
//	                device's trace id, AtS its local clock, Flag one of
//	                the Throttle* constants, TempC/FreqGHz the state at
//	                the transition.
//	KindClientRound one client's contribution to a synchronous round:
//	                compute/comm seconds, round energy, battery fraction,
//	                end-of-training temperature, throttle transitions
//	                during training, Flag 1 = dropped, 2 = diverged,
//	                3 = faulted (injected; see KindFault), 4 = late
//	                (finished after the quorum closed). The async engine
//	                emits one, flagged diverged, for each update it
//	                rejects as non-finite: AtS its arrival, Round the
//	                client's cycle index.
//	KindRoundSummary per-round aggregate: MakespanS, Straggler (client id
//	                defining the makespan, −1 if none), Loss (sample-
//	                weighted, −1 when unavailable), Accuracy (−1 when the
//	                round was not evaluated), Samples aggregated, EnergyJ
//	                and Throttles summed over clients, Flag = dropped
//	                count.
//	KindMerge       one asynchronous server merge: Round is the update
//	                index, AtS the virtual merge time, Staleness the
//	                version lag, plus the client's compute/comm/energy.
//	KindSimStep     one dispatched event of the asynchronous engine's
//	                loop: AtS is the virtual time, Round the event's
//	                scheduling sequence number.
//	KindFault       one injected client fault (internal/fault): Client is
//	                the victim, Flag the fault kind (1 crash, 2 battery,
//	                3 link flap, 4 corrupt), Samples the assigned work,
//	                ComputeS/CommS the time actually spent before the
//	                failure, EnergyJ the wasted energy, Battery the
//	                post-fault battery fraction. Synchronous engines emit
//	                it right after the victim's KindClientRound event;
//	                the async engine at the fault's virtual time (AtS),
//	                with Round the client's cycle index.
//
// Non-finite floats never enter a trace: emitters sanitize NaN/±Inf to −1
// (Sanitize) so every event is JSON-encodable.
package trace

import (
	"math"
	"slices"
)

// Kind discriminates trace event types.
type Kind uint8

// Event kinds, in rough pipeline order. New kinds are appended (never
// inserted) so existing golden traces keep their wire encoding.
const (
	KindSchedule Kind = iota
	KindSolver
	KindThrottle
	KindClientRound
	KindRoundSummary
	KindMerge
	KindSimStep
	KindFault
)

// kindNames is the stable wire encoding of Kind (JSONL and CSV).
var kindNames = [...]string{
	KindSchedule:     "schedule",
	KindSolver:       "solver",
	KindThrottle:     "throttle",
	KindClientRound:  "client_round",
	KindRoundSummary: "round",
	KindMerge:        "merge",
	KindSimStep:      "sim_step",
	KindFault:        "fault",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Throttle transition flags (Event.Flag for KindThrottle).
const (
	ThrottleRelease = 0 // soft throttle disengaged
	ThrottleEngage  = 1 // soft throttle engaged (temp above soft trip)
	ThrottleTrip    = 2 // hard trip: big cluster shut down
	ThrottleRecover = 3 // hard trip recovered (hysteresis)
)

// Client-round flags (Event.Flag for KindClientRound). Appended, never
// renumbered: the values are wire constants in golden traces.
const (
	ClientOK       = 0
	ClientDropped  = 1 // cut by the round deadline; update discarded
	ClientDiverged = 2 // non-finite weights; update rejected
	ClientFaulted  = 3 // injected fault (see the paired KindFault event)
	ClientLate     = 4 // finished after the quorum closed; update discarded
)

// Event is one fixed-size trace record. All fields are value types so a
// ring of Events involves no per-event allocation; fields not meaningful
// for a kind stay zero (and are omitted from JSONL). Integer fields are
// compared exactly by Compare; float fields within tolerances.
type Event struct {
	Kind      Kind    `json:"kind"`
	Round     int     `json:"round"`
	Client    int     `json:"client"`
	Samples   int     `json:"samples,omitempty"`
	Throttles int     `json:"throttles,omitempty"`
	Straggler int     `json:"straggler,omitempty"`
	Staleness int     `json:"staleness,omitempty"`
	Flag      int     `json:"flag,omitempty"`
	AtS       float64 `json:"at_s,omitempty"`
	ComputeS  float64 `json:"compute_s,omitempty"`
	CommS     float64 `json:"comm_s,omitempty"`
	EnergyJ   float64 `json:"energy_j,omitempty"`
	Battery   float64 `json:"battery,omitempty"`
	TempC     float64 `json:"temp_c,omitempty"`
	FreqGHz   float64 `json:"freq_ghz,omitempty"`
	MakespanS float64 `json:"makespan_s,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Accuracy  float64 `json:"accuracy,omitempty"`
}

// DefaultCapacity is the ring size used when New is given no capacity.
const DefaultCapacity = 1 << 16

// Recorder is a bounded ring of events, sized by New; when full, the
// oldest events are overwritten (and counted in Dropped) so a long run
// records a bounded, most-recent window — unless it is a log (NewLog),
// which grows instead. A nil or zero *Recorder is a valid sink that
// discards everything — call sites need no enable branch. A Recorder is NOT safe for concurrent use: each engine
// (or each client inside a parallel round) owns its own.
type Recorder struct {
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in buf
	dropped uint64
	grow    bool // a log (NewLog): grow when full, never overwrite
}

// New returns a Recorder holding at most capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// NewLog returns a Recorder that never drops: when full it grows instead
// of overwriting, and Reset keeps the grown storage, so a log reused every
// round stops allocating once it has held the largest round. Events staged
// in a log and Drained into a ring later are kept or dropped by that ring
// exactly as if they had been emitted into it directly.
func NewLog(capacity int) *Recorder {
	r := New(capacity)
	r.grow = true
	return r
}

// Emit appends e to the ring, overwriting the oldest event when full.
// This is the hot path: no allocation ever (the ring is pre-sized by
// New), safe on a nil receiver.
//
// fedlint:hotpath
func (r *Recorder) Emit(e Event) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	if r.grow {
		// A log never wraps, so its events sit in buf[:n] in order.
		r.buf = append(r.buf, e) //fedlint:allow hotalloc — a log grows to its largest round once, then Reset reuses the storage
		r.buf = r.buf[:cap(r.buf)]
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Drain moves all of src's events into r, oldest first, and resets src.
// Like Emit it never allocates and tolerates nil on either side. Engines
// call it after a parallel round's join, in client order, to merge
// per-client rings deterministically.
//
// fedlint:hotpath
// fedlint:deterministic
func (r *Recorder) Drain(src *Recorder) {
	if src == nil {
		return
	}
	for i := 0; i < src.n; i++ {
		r.Emit(src.buf[(src.start+i)%len(src.buf)])
	}
	src.start, src.n, src.dropped = 0, 0, 0
}

// DrainRound is Drain with the round number stamped onto every moved
// event. Devices emit throttle transitions with Round −1 (they do not
// know the federated round); the engine drains their rings once per
// round and labels the events here.
//
// fedlint:hotpath
// fedlint:deterministic
func (r *Recorder) DrainRound(src *Recorder, round int) {
	if src == nil {
		return
	}
	for i := 0; i < src.n; i++ {
		e := src.buf[(src.start+i)%len(src.buf)]
		e.Round = round
		r.Emit(e)
	}
	src.start, src.n, src.dropped = 0, 0, 0
}

// Len returns the number of live events in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many events were overwritten because the ring was
// full. A non-zero value means the trace is a suffix of the run.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns a copy of the live events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// inOrder rotates the ring so its oldest live event sits at index 0 and
// returns the live events in its own storage, oldest first: Events
// without the copy. The slice aliases the ring, so the next Emit may
// overwrite it; the recorder's contents are unchanged.
func (r *Recorder) inOrder() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	if r.start != 0 {
		slices.Reverse(r.buf[:r.start])
		slices.Reverse(r.buf[r.start:])
		slices.Reverse(r.buf)
		r.start = 0
	}
	return r.buf[:r.n]
}

// Reset empties the ring without releasing its storage.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.start, r.n, r.dropped = 0, 0, 0
}

// Sanitize maps non-finite float values to −1 so events stay
// JSON-encodable; emitters apply it to losses and accuracies that may be
// NaN (all-dropped rounds, diverged clients).
func Sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
