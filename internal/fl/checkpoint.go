package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/nn"
	"fedsched/internal/sample"
	"fedsched/internal/tensor"
)

// Checkpoint is a resumable snapshot of a synchronous run, taken between
// rounds (Config.CheckpointEvery/CheckpointSink) and fed back through
// Config.Resume. It captures everything the next round depends on: the
// global model, each client's training-round counter (which drives both
// the LR schedule and the RNG-replay below) and device state, the
// sampler's failure-backoff state, and the history so far.
//
// Client RNGs are not serialized. Each client's stream is re-derived on
// resume by reseeding with the run formula and replaying one dataset
// shuffle per completed training round — which restores both the RNG
// position and the in-place shard order. Resume therefore requires
// freshly-constructed clients whose datasets are in original order, plus
// the exact Config (seed, rounds, precision …) of the checkpointed run.
//
// The wire format is binary (Save/Load): float64 fields round-trip by
// bit pattern, so NaN losses from failed rounds and the run's exact
// float state survive — resuming reproduces the uninterrupted run's
// history and trace bit-identically at any Workers value.
type Checkpoint struct {
	// Seed and Rounds echo the Config for resume-time validation.
	Seed   int64
	Rounds int
	// NextRound is the first round the resumed run executes.
	NextRound int
	// Clients holds per-client state in active-client order.
	Clients []ClientCheckpoint
	// Cooldown is the failure-backoff state of a *sample.Cooldown
	// sampler (nil otherwise).
	Cooldown []sample.CooldownEntry
	// Model is the global model serialized with nn.SaveWeights. In a
	// snapshot handed to Config.CheckpointSink it is valid only during
	// the call.
	Model []byte
	// HistoryRounds and TotalSeconds are the history completed so far.
	// TotalEnergyJ is not stored: it is recomputed from the restored
	// devices at run end.
	HistoryRounds []RoundStats
	TotalSeconds  float64
}

// ClientCheckpoint is one client's resumable state.
type ClientCheckpoint struct {
	ID int
	// Round is the number of training rounds the client completed
	// (= shuffles to replay on resume).
	Round     int
	HasDevice bool
	Device    device.State
}

const (
	checkpointMagic   uint64 = 0x46444c434b505431 // "FDLCKPT1"
	checkpointVersion uint32 = 1
)

// ckWriter encodes into one growing byte slice. Its methods are the only
// field writers: Save, AppendState and AppendRounds are three orderings
// of the same pieces, so there is one wire format, not two.
type ckWriter struct{ b []byte }

func (c *ckWriter) u64(v uint64)  { c.b = binary.LittleEndian.AppendUint64(c.b, v) }
func (c *ckWriter) i64(v int64)   { c.u64(uint64(v)) }
func (c *ckWriter) f64(v float64) { c.u64(math.Float64bits(v)) }
func (c *ckWriter) u8(v uint8)    { c.b = append(c.b, v) }

func (c *ckWriter) boolv(v bool) {
	if v {
		c.u8(1)
	} else {
		c.u8(0)
	}
}

// head writes everything in front of the history: magic, version, the
// echoed config, client and sampler state, and the model.
func (c *ckWriter) head(ck *Checkpoint) {
	c.u64(checkpointMagic)
	c.u64(uint64(checkpointVersion))
	c.i64(ck.Seed)
	c.i64(int64(ck.Rounds))
	c.i64(int64(ck.NextRound))
	c.i64(int64(len(ck.Clients)))
	for _, cs := range ck.Clients {
		c.i64(int64(cs.ID))
		c.i64(int64(cs.Round))
		c.boolv(cs.HasDevice)
		c.f64(cs.Device.TempC)
		c.f64(cs.Device.FreqFactor)
		c.boolv(cs.Device.BigOffline)
		c.f64(cs.Device.NowSeconds)
		c.f64(cs.Device.EnergyJ)
		c.i64(int64(cs.Device.Throttles))
		c.boolv(cs.Device.Throttled)
	}
	c.i64(int64(len(ck.Cooldown)))
	for _, e := range ck.Cooldown {
		c.i64(int64(e.Client))
		c.i64(int64(e.Strikes))
		c.i64(int64(e.Until))
	}
	c.i64(int64(len(ck.Model)))
	c.b = append(c.b, ck.Model...)
}

// rounds writes history records back to back, without a count.
func (c *ckWriter) rounds(rounds []RoundStats) {
	for i := range rounds {
		rs := &rounds[i]
		c.i64(int64(rs.Round))
		c.f64(rs.Makespan)
		c.f64(rs.TrainLoss)
		c.f64(rs.Accuracy)
		c.boolv(rs.Failed)
		c.i64(int64(len(rs.Clients)))
		for _, cr := range rs.Clients {
			c.i64(int64(cr.ClientID))
			c.i64(int64(cr.Samples))
			c.f64(cr.ComputeS)
			c.f64(cr.CommS)
			c.f64(cr.TrainLoss)
			c.f64(cr.EnergyJ)
			c.f64(cr.Temperature)
			c.i64(int64(cr.Throttles))
			c.f64(cr.BatteryFrac)
			c.boolv(cr.Dropped)
			c.boolv(cr.Diverged)
			c.u8(uint8(cr.Fault))
			c.boolv(cr.Late)
		}
	}
}

// ckWriters recycles encode buffers: a run checkpoints every few rounds
// and each snapshot is a little larger than the last, so steady-state
// saves allocate nothing.
var ckWriters = sync.Pool{New: func() any { return new(ckWriter) }}

// Wire sizes of the fixed-width records, which bound every count a
// reader accepts by what the remaining input can hold.
const (
	clientStateBytes = 5*8 + 3 + 2*8
	cooldownBytes    = 3 * 8
	roundBytes       = 4*8 + 1 + 8
	clientRoundBytes = 9*8 + 4
)

// ckReader decodes from a byte slice; the first short read sticks in err.
type ckReader struct {
	b   []byte
	err error
}

func (c *ckReader) take(n int) []byte {
	if c.err != nil || n > len(c.b) {
		if c.err == nil {
			c.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

func (c *ckReader) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *ckReader) i64() int64   { return int64(c.u64()) }
func (c *ckReader) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *ckReader) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *ckReader) boolv() bool { return c.u8() != 0 }

// count reads a length field for records of at least size bytes each and
// rejects one the remaining input cannot hold, so a corrupt length never
// drives an allocation larger than a small multiple of the input.
func (c *ckReader) count(what string, size int) int {
	n := c.i64()
	if c.err == nil && (n < 0 || n > int64(len(c.b)/size)) {
		c.err = fmt.Errorf("%s count %d exceeds the %d bytes that remain", what, n, len(c.b))
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

func (c *ckReader) head(ck *Checkpoint) {
	if m := c.u64(); c.err == nil && m != checkpointMagic {
		c.err = fmt.Errorf("not a run checkpoint (magic %#x)", m)
	}
	if v := c.u64(); c.err == nil && v != uint64(checkpointVersion) {
		c.err = fmt.Errorf("unsupported version %d", v)
	}
	ck.Seed = c.i64()
	ck.Rounds = int(c.i64())
	ck.NextRound = int(c.i64())
	ck.Clients = make([]ClientCheckpoint, c.count("client", clientStateBytes))
	for i := range ck.Clients {
		cs := &ck.Clients[i]
		cs.ID = int(c.i64())
		cs.Round = int(c.i64())
		cs.HasDevice = c.boolv()
		cs.Device.TempC = c.f64()
		cs.Device.FreqFactor = c.f64()
		cs.Device.BigOffline = c.boolv()
		cs.Device.NowSeconds = c.f64()
		cs.Device.EnergyJ = c.f64()
		cs.Device.Throttles = int(c.i64())
		cs.Device.Throttled = c.boolv()
	}
	if n := c.count("cooldown", cooldownBytes); n > 0 {
		ck.Cooldown = make([]sample.CooldownEntry, n)
	}
	for i := range ck.Cooldown {
		ck.Cooldown[i].Client = int(c.i64())
		ck.Cooldown[i].Strikes = int(c.i64())
		ck.Cooldown[i].Until = int(c.i64())
	}
	ck.Model = append([]byte{}, c.take(c.count("model-byte", 1))...)
}

// rounds reads n history records.
func (c *ckReader) rounds(n int) []RoundStats {
	if n == 0 || c.err != nil {
		return nil
	}
	rounds := make([]RoundStats, n)
	for i := range rounds {
		rs := &rounds[i]
		rs.Round = int(c.i64())
		rs.Makespan = c.f64()
		rs.TrainLoss = c.f64()
		rs.Accuracy = c.f64()
		rs.Failed = c.boolv()
		if n := c.count("client-round", clientRoundBytes); n > 0 {
			rs.Clients = make([]ClientRound, n)
		}
		for j := range rs.Clients {
			cr := &rs.Clients[j]
			cr.ClientID = int(c.i64())
			cr.Samples = int(c.i64())
			cr.ComputeS = c.f64()
			cr.CommS = c.f64()
			cr.TrainLoss = c.f64()
			cr.EnergyJ = c.f64()
			cr.Temperature = c.f64()
			cr.Throttles = int(c.i64())
			cr.BatteryFrac = c.f64()
			cr.Dropped = c.boolv()
			cr.Diverged = c.boolv()
			cr.Fault = fault.Kind(c.u8())
			cr.Late = c.boolv()
		}
	}
	return rounds
}

// done closes a decode: trailing bytes are as corrupt as missing ones.
func (c *ckReader) done(ck *Checkpoint) (*Checkpoint, error) {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b))
	}
	if c.err != nil {
		return nil, fmt.Errorf("fl: truncated or corrupt checkpoint: %w", c.err)
	}
	return ck, nil
}

// Save serializes the checkpoint. The format is fixed-width
// little-endian binary; float64 fields are written by bit pattern, so
// NaNs (failed rounds) and exact float state survive the round trip.
func (ck *Checkpoint) Save(w io.Writer) error {
	cw := ckWriters.Get().(*ckWriter)
	defer ckWriters.Put(cw)
	cw.b = cw.b[:0]
	cw.head(ck)
	cw.i64(int64(len(ck.HistoryRounds)))
	cw.rounds(ck.HistoryRounds)
	cw.f64(ck.TotalSeconds)
	_, err := w.Write(cw.b)
	return err
}

// LoadCheckpoint deserializes a checkpoint written by Save; r must hold
// exactly one. It reads r to the end before decoding (into one buffer of
// the right size when r knows its length, as in-memory readers do), so
// that every count on the wire can be checked against the bytes left.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("fl: read checkpoint: %w", err)
	}
	cr, ck := &ckReader{b: buf.Bytes()}, &Checkpoint{}
	cr.head(ck)
	ck.HistoryRounds = cr.rounds(cr.count("history-round", roundBytes))
	ck.TotalSeconds = cr.f64()
	return cr.done(ck)
}

// AppendState appends the snapshot without its history — Save's bytes
// with the round records cut out — and returns the extended slice. Its
// size does not grow with the rounds completed, which is what lets a
// caller persist every round at O(model): the state goes wherever the
// latest snapshot lives, the new rounds (AppendRounds) onto an
// append-only log, and LoadCheckpointParts joins the two again.
func (ck *Checkpoint) AppendState(b []byte) []byte {
	cw := ckWriter{b}
	cw.head(ck)
	cw.f64(ck.TotalSeconds)
	return cw.b
}

// AppendRounds appends the records of HistoryRounds[from:] in Save's
// layout, back to back with no count. Past rounds never change, so the
// concatenation of every round's AppendRounds(b, rounds already written)
// is the record section of a full Save.
func (ck *Checkpoint) AppendRounds(b []byte, from int) []byte {
	cw := ckWriter{b}
	cw.rounds(ck.HistoryRounds[from:])
	return cw.b
}

// LoadCheckpointParts rebuilds a checkpoint from an AppendState record
// and the AppendRounds log of its NextRound completed rounds; both must
// be consumed exactly.
func LoadCheckpointParts(state, rounds []byte) (*Checkpoint, error) {
	cr, ck := &ckReader{b: state}, &Checkpoint{}
	cr.head(ck)
	ck.TotalSeconds = cr.f64()
	if _, err := cr.done(ck); err != nil {
		return nil, err
	}
	cr = &ckReader{b: rounds}
	if ck.NextRound < 0 || ck.NextRound > len(rounds)/roundBytes {
		cr.err = fmt.Errorf("history of %d rounds exceeds the %d-byte log", ck.NextRound, len(rounds))
	}
	ck.HistoryRounds = cr.rounds(ck.NextRound)
	return cr.done(ck)
}

// buildCheckpoint snapshots the run after `next-1` rounds completed,
// encoding the model onto model (the run passes the last snapshot's
// buffer, emptied). Its cost is O(model), whatever the round: the
// history is shared, not copied.
func buildCheckpoint(cfg Config, active []*Client, global *nn.Network, globalW []*tensor.Tensor, hist *History, next int, model []byte) *Checkpoint {
	global.SetWeights(globalW)
	ck := &Checkpoint{
		Seed:      cfg.Seed,
		Rounds:    cfg.Rounds,
		NextRound: next,
		Model:     global.AppendWeights(model),
		// Past RoundStats are append-only, and the capped slice makes the
		// run's next append reallocate or write past the cap, never into
		// the snapshot.
		HistoryRounds: hist.Rounds[:len(hist.Rounds):len(hist.Rounds)],
		TotalSeconds:  hist.TotalSeconds,
	}
	ck.Clients = make([]ClientCheckpoint, len(active))
	for i, c := range active {
		ck.Clients[i] = ClientCheckpoint{ID: c.ID, Round: c.round}
		if c.Device != nil {
			ck.Clients[i].HasDevice = true
			ck.Clients[i].Device = c.Device.Snapshot()
		}
	}
	if cd, ok := cfg.Sampler.(*sample.Cooldown); ok {
		ck.Cooldown = cd.Snapshot()
	}
	return ck
}

// resumeRun restores a checkpointed run onto freshly-initialized clients
// (setup has already reseeded their RNGs; their weights need nothing,
// since every round loads the global model first) and returns the next
// round to execute.
func resumeRun(cfg Config, active []*Client, global *nn.Network, hist *History) (int, error) {
	ck := cfg.Resume
	if ck.Seed != cfg.Seed {
		return 0, fmt.Errorf("fl: resume: checkpoint seed %d != config seed %d", ck.Seed, cfg.Seed)
	}
	if ck.Rounds != cfg.Rounds {
		return 0, fmt.Errorf("fl: resume: checkpoint rounds %d != config rounds %d", ck.Rounds, cfg.Rounds)
	}
	if len(ck.Clients) != len(active) {
		return 0, fmt.Errorf("fl: resume: checkpoint has %d clients, run has %d", len(ck.Clients), len(active))
	}
	if ck.NextRound < 0 || ck.NextRound > cfg.Rounds {
		return 0, fmt.Errorf("fl: resume: next round %d outside [0, %d]", ck.NextRound, cfg.Rounds)
	}
	if err := global.LoadWeights(bytes.NewReader(ck.Model)); err != nil {
		return 0, fmt.Errorf("fl: resume: restore model: %w", err)
	}
	for i, cs := range ck.Clients {
		c := active[i]
		if c.ID != cs.ID {
			return 0, fmt.Errorf("fl: resume: client %d is id %d, checkpoint has %d", i, c.ID, cs.ID)
		}
		c.round = cs.Round
		// Replaying one shuffle per completed training round restores
		// both the RNG stream position and the in-place shard order —
		// which is why resume requires pristine, freshly-loaded datasets.
		for r := 0; r < cs.Round; r++ {
			c.Local.Shuffle(c.rng)
		}
		if cs.HasDevice {
			if c.Device == nil {
				return 0, fmt.Errorf("fl: resume: client %d has no device but checkpoint does", c.ID)
			}
			c.Device.Restore(cs.Device)
		}
	}
	if cd, ok := cfg.Sampler.(*sample.Cooldown); ok {
		cd.Restore(ck.Cooldown)
	}
	hist.Rounds = append(hist.Rounds, ck.HistoryRounds...)
	hist.TotalSeconds = ck.TotalSeconds
	return ck.NextRound, nil
}
