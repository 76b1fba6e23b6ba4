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
	// Model is the global model serialized with nn.SaveWeights.
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
	// checkpointMaxCount bounds every length field read from the wire so
	// a corrupted header cannot drive huge allocations.
	checkpointMaxCount = 1 << 31
)

// ckWriter encodes into one growing byte slice; Save writes it out in a
// single call.
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

// ckWriters recycles encode buffers: a run checkpoints every few rounds
// and each snapshot is a little larger than the last, so steady-state
// saves allocate nothing.
var ckWriters = sync.Pool{New: func() any { return new(ckWriter) }}

type ckReader struct {
	r   io.Reader
	err error
}

func (c *ckReader) u64() uint64 {
	if c.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		c.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (c *ckReader) i64() int64   { return int64(c.u64()) }
func (c *ckReader) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *ckReader) u8() uint8 {
	if c.err != nil {
		return 0
	}
	var b [1]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		c.err = err
		return 0
	}
	return b[0]
}

func (c *ckReader) boolv() bool { return c.u8() != 0 }

// count reads a length field and bounds it.
func (c *ckReader) count(what string) int {
	n := c.i64()
	if c.err == nil && (n < 0 || n > checkpointMaxCount) {
		c.err = fmt.Errorf("fl: checkpoint %s count %d out of range", what, n)
	}
	return int(n)
}

// Save serializes the checkpoint. The format is fixed-width
// little-endian binary; float64 fields are written by bit pattern, so
// NaNs (failed rounds) and exact float state survive the round trip.
func (ck *Checkpoint) Save(w io.Writer) error {
	cw := ckWriters.Get().(*ckWriter)
	defer ckWriters.Put(cw)
	cw.b = cw.b[:0]
	cw.u64(checkpointMagic)
	cw.u64(uint64(checkpointVersion))
	cw.i64(ck.Seed)
	cw.i64(int64(ck.Rounds))
	cw.i64(int64(ck.NextRound))
	cw.i64(int64(len(ck.Clients)))
	for _, cs := range ck.Clients {
		cw.i64(int64(cs.ID))
		cw.i64(int64(cs.Round))
		cw.boolv(cs.HasDevice)
		cw.f64(cs.Device.TempC)
		cw.f64(cs.Device.FreqFactor)
		cw.boolv(cs.Device.BigOffline)
		cw.f64(cs.Device.NowSeconds)
		cw.f64(cs.Device.EnergyJ)
		cw.i64(int64(cs.Device.Throttles))
		cw.boolv(cs.Device.Throttled)
	}
	cw.i64(int64(len(ck.Cooldown)))
	for _, e := range ck.Cooldown {
		cw.i64(int64(e.Client))
		cw.i64(int64(e.Strikes))
		cw.i64(int64(e.Until))
	}
	cw.i64(int64(len(ck.Model)))
	cw.b = append(cw.b, ck.Model...)
	cw.i64(int64(len(ck.HistoryRounds)))
	for i := range ck.HistoryRounds {
		rs := &ck.HistoryRounds[i]
		cw.i64(int64(rs.Round))
		cw.f64(rs.Makespan)
		cw.f64(rs.TrainLoss)
		cw.f64(rs.Accuracy)
		cw.boolv(rs.Failed)
		cw.i64(int64(len(rs.Clients)))
		for _, cr := range rs.Clients {
			cw.i64(int64(cr.ClientID))
			cw.i64(int64(cr.Samples))
			cw.f64(cr.ComputeS)
			cw.f64(cr.CommS)
			cw.f64(cr.TrainLoss)
			cw.f64(cr.EnergyJ)
			cw.f64(cr.Temperature)
			cw.i64(int64(cr.Throttles))
			cw.f64(cr.BatteryFrac)
			cw.boolv(cr.Dropped)
			cw.boolv(cr.Diverged)
			cw.u8(uint8(cr.Fault))
			cw.boolv(cr.Late)
		}
	}
	cw.f64(ck.TotalSeconds)
	_, err := w.Write(cw.b)
	return err
}

// LoadCheckpoint deserializes a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	cr := &ckReader{r: r}
	if m := cr.u64(); cr.err == nil && m != checkpointMagic {
		return nil, fmt.Errorf("fl: not a run checkpoint (magic %#x)", m)
	}
	if v := cr.u64(); cr.err == nil && v != uint64(checkpointVersion) {
		return nil, fmt.Errorf("fl: unsupported checkpoint version %d", v)
	}
	ck := &Checkpoint{}
	ck.Seed = cr.i64()
	ck.Rounds = int(cr.i64())
	ck.NextRound = int(cr.i64())
	nc := cr.count("client")
	if cr.err != nil {
		return nil, cr.err
	}
	ck.Clients = make([]ClientCheckpoint, nc)
	for i := range ck.Clients {
		cs := &ck.Clients[i]
		cs.ID = int(cr.i64())
		cs.Round = int(cr.i64())
		cs.HasDevice = cr.boolv()
		cs.Device.TempC = cr.f64()
		cs.Device.FreqFactor = cr.f64()
		cs.Device.BigOffline = cr.boolv()
		cs.Device.NowSeconds = cr.f64()
		cs.Device.EnergyJ = cr.f64()
		cs.Device.Throttles = int(cr.i64())
		cs.Device.Throttled = cr.boolv()
	}
	ncd := cr.count("cooldown")
	if cr.err != nil {
		return nil, cr.err
	}
	if ncd > 0 {
		ck.Cooldown = make([]sample.CooldownEntry, ncd)
		for i := range ck.Cooldown {
			ck.Cooldown[i].Client = int(cr.i64())
			ck.Cooldown[i].Strikes = int(cr.i64())
			ck.Cooldown[i].Until = int(cr.i64())
		}
	}
	nm := cr.count("model-byte")
	if cr.err != nil {
		return nil, cr.err
	}
	ck.Model = make([]byte, nm)
	if cr.err == nil {
		_, cr.err = io.ReadFull(cr.r, ck.Model)
	}
	nr := cr.count("history-round")
	if cr.err != nil {
		return nil, cr.err
	}
	if nr > 0 {
		ck.HistoryRounds = make([]RoundStats, nr)
	}
	for i := range ck.HistoryRounds {
		rs := &ck.HistoryRounds[i]
		rs.Round = int(cr.i64())
		rs.Makespan = cr.f64()
		rs.TrainLoss = cr.f64()
		rs.Accuracy = cr.f64()
		rs.Failed = cr.boolv()
		ncr := cr.count("client-round")
		if cr.err != nil {
			return nil, cr.err
		}
		if ncr > 0 {
			rs.Clients = make([]ClientRound, ncr)
		}
		for j := range rs.Clients {
			c := &rs.Clients[j]
			c.ClientID = int(cr.i64())
			c.Samples = int(cr.i64())
			c.ComputeS = cr.f64()
			c.CommS = cr.f64()
			c.TrainLoss = cr.f64()
			c.EnergyJ = cr.f64()
			c.Temperature = cr.f64()
			c.Throttles = int(cr.i64())
			c.BatteryFrac = cr.f64()
			c.Dropped = cr.boolv()
			c.Diverged = cr.boolv()
			c.Fault = fault.Kind(cr.u8())
			c.Late = cr.boolv()
		}
	}
	ck.TotalSeconds = cr.f64()
	if cr.err != nil {
		return nil, fmt.Errorf("fl: truncated or corrupt checkpoint: %w", cr.err)
	}
	return ck, nil
}

// buildCheckpoint snapshots the run after `next-1` rounds completed.
func buildCheckpoint(cfg Config, active []*Client, global *nn.Network, globalW []*tensor.Tensor, hist *History, next int) (*Checkpoint, error) {
	global.SetWeights(globalW)
	var buf bytes.Buffer
	if err := global.SaveWeights(&buf); err != nil {
		return nil, fmt.Errorf("serialize model: %w", err)
	}
	ck := &Checkpoint{
		Seed:      cfg.Seed,
		Rounds:    cfg.Rounds,
		NextRound: next,
		Model:     buf.Bytes(),
		// Past RoundStats are append-only; copying the slice header
		// detaches the checkpoint from future appends.
		HistoryRounds: append([]RoundStats(nil), hist.Rounds...),
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
	return ck, nil
}

// resumeRun restores a checkpointed run onto freshly-initialized clients
// (Run has already reseeded their RNGs and trainers) and returns the
// next round to execute.
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
