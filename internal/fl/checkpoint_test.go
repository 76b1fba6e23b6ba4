package fl

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"

	"fedsched/internal/device"
	"fedsched/internal/fault"
	"fedsched/internal/sample"
)

// referenceSave is the field-at-a-time encoder Save replaced, kept as the
// wire-format oracle: every field through its own io.Writer call.
func referenceSave(ck *Checkpoint, w io.Writer) {
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
	i64 := func(v int) { u64(uint64(int64(v))) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	boolv := func(v bool) {
		if v {
			w.Write([]byte{1})
		} else {
			w.Write([]byte{0})
		}
	}
	u64(checkpointMagic)
	u64(uint64(checkpointVersion))
	u64(uint64(ck.Seed))
	i64(ck.Rounds)
	i64(ck.NextRound)
	i64(len(ck.Clients))
	for _, cs := range ck.Clients {
		i64(cs.ID)
		i64(cs.Round)
		boolv(cs.HasDevice)
		f64(cs.Device.TempC)
		f64(cs.Device.FreqFactor)
		boolv(cs.Device.BigOffline)
		f64(cs.Device.NowSeconds)
		f64(cs.Device.EnergyJ)
		i64(cs.Device.Throttles)
		boolv(cs.Device.Throttled)
	}
	i64(len(ck.Cooldown))
	for _, e := range ck.Cooldown {
		i64(e.Client)
		i64(e.Strikes)
		i64(e.Until)
	}
	i64(len(ck.Model))
	w.Write(ck.Model)
	i64(len(ck.HistoryRounds))
	for _, rs := range ck.HistoryRounds {
		i64(rs.Round)
		f64(rs.Makespan)
		f64(rs.TrainLoss)
		f64(rs.Accuracy)
		boolv(rs.Failed)
		i64(len(rs.Clients))
		for _, cr := range rs.Clients {
			i64(cr.ClientID)
			i64(cr.Samples)
			f64(cr.ComputeS)
			f64(cr.CommS)
			f64(cr.TrainLoss)
			f64(cr.EnergyJ)
			f64(cr.Temperature)
			i64(cr.Throttles)
			f64(cr.BatteryFrac)
			boolv(cr.Dropped)
			boolv(cr.Diverged)
			w.Write([]byte{uint8(cr.Fault)})
			boolv(cr.Late)
		}
	}
	f64(ck.TotalSeconds)
}

// churnCheckpoint is a snapshot the size round_churn carries mid-run:
// 200 rounds × 4 clients of history, failed rounds with NaN losses
// among them.
func churnCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		Seed: -3, Rounds: 400, NextRound: 200, TotalSeconds: 1234.5,
		Model:    bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 1000),
		Cooldown: []sample.CooldownEntry{{Client: 2, Strikes: 1, Until: 203}},
	}
	for id := 0; id < 4; id++ {
		ck.Clients = append(ck.Clients, ClientCheckpoint{ID: id, Round: 200 - id, HasDevice: id%2 == 0,
			Device: device.State{TempC: 40 + float64(id), FreqFactor: 0.9, NowSeconds: 1e3, EnergyJ: 77, Throttles: id, Throttled: id == 2}})
	}
	for r := 0; r < 200; r++ {
		rs := RoundStats{Round: r, Makespan: 3.25 + float64(r), TrainLoss: 1 / float64(r+1), Accuracy: 0.5}
		if r%17 == 0 {
			rs.Failed, rs.TrainLoss, rs.Accuracy = true, math.NaN(), -1
		}
		for id := 0; id < 4; id++ {
			rs.Clients = append(rs.Clients, ClientRound{ClientID: id, Samples: 5, ComputeS: 0.1 * float64(id), CommS: 0.5,
				TrainLoss: math.Copysign(0, -1), EnergyJ: 2, Temperature: 39, Throttles: r % 3, BatteryFrac: 0.8,
				Dropped: id == 1, Diverged: r == 5, Fault: fault.Kind(r % 3), Late: id == 3})
		}
		ck.HistoryRounds = append(ck.HistoryRounds, rs)
	}
	return ck
}

// TestCheckpointSaveMatchesReference pins the single-buffer encoder to
// the wire format of the writer it replaced, and its steady-state cost:
// one pooled buffer, one Write.
func TestCheckpointSaveMatchesReference(t *testing.T) {
	ck := churnCheckpoint()
	var want, got bytes.Buffer
	referenceSave(ck, &want)
	if err := ck.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Save wrote %d bytes that differ from the reference encoder's %d", got.Len(), want.Len())
	}
	loaded, err := LoadCheckpoint(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(loaded.HistoryRounds[17].TrainLoss) || len(loaded.HistoryRounds) != 200 {
		t.Fatal("history did not survive the round trip")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := ck.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 && !raceEnabled {
		t.Fatalf("Save allocates %v times per call, want ≤ 2", allocs)
	}
}

func BenchmarkCheckpointSave(b *testing.B) {
	ck := churnCheckpoint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ck.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointParts pins the split encoding to Save's: the state record
// is Save's bytes with the round records (and their count) cut out, the
// log is exactly those records, neither depends on how the history was
// chunked, and a reader handed one byte too few or too many says so.
func TestCheckpointParts(t *testing.T) {
	ck := churnCheckpoint()
	var full bytes.Buffer
	if err := ck.Save(&full); err != nil {
		t.Fatal(err)
	}
	state := ck.AppendState(nil)
	var log []byte
	for from := 0; from < len(ck.HistoryRounds); from += 7 {
		part := *ck
		part.HistoryRounds = ck.HistoryRounds[:min(from+7, len(ck.HistoryRounds))]
		log = part.AppendRounds(log, from)
	}
	// Save = state minus its trailing TotalSeconds, the count, the log, TotalSeconds.
	cut := len(state) - 8
	want := append(append(append([]byte{}, state[:cut]...), full.Bytes()[cut:cut+8]...), log...)
	want = append(want, state[cut:]...)
	if !bytes.Equal(full.Bytes(), want) {
		t.Fatalf("state (%d B) + log (%d B) are not a cut of Save's %d bytes", len(state), len(log), full.Len())
	}
	short := *ck
	short.HistoryRounds = ck.HistoryRounds[:10]
	if !bytes.Equal(short.AppendState(nil), state) {
		t.Fatal("the state record depends on the history")
	}

	loaded, err := LoadCheckpointParts(state, log)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), full.Bytes()) {
		t.Fatalf("parts do not load back into the checkpoint they were cut from (%v)", err)
	}
	for name, in := range map[string][2][]byte{
		"short state":    {state[:len(state)-1], log},
		"trailing state": {append(state[:len(state):len(state)], 0), log},
		"short log":      {state, log[:len(log)-1]},
		"trailing log":   {state, append(log[:len(log):len(log)], 0)},
		"no log":         {state, nil},
	} {
		if _, err := LoadCheckpointParts(in[0], in[1]); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	buf := make([]byte, 0, len(state)+len(log))
	if allocs := testing.AllocsPerRun(20, func() {
		ck.AppendRounds(ck.AppendState(buf[:0]), 0)
	}); allocs > 0 {
		t.Fatalf("appending into a sized buffer allocates %v times, want 0", allocs)
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint and LoadCheckpointParts real
// snapshots and whatever the fuzzer mutates them into. Neither may panic,
// and neither may allocate more than a small multiple of its input — a
// corrupt count is bounded by the bytes that remain, not by 2^31. What
// does load must survive Save → Load → Save byte for byte.
func FuzzLoadCheckpoint(f *testing.F) {
	ck := churnCheckpoint()
	ck.HistoryRounds, ck.NextRound = ck.HistoryRounds[:3], 3
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		f.Fatal(err)
	}
	state := ck.AppendState(nil)
	f.Add(buf.Bytes(), len(buf.Bytes()))
	f.Add(append(state, ck.AppendRounds(nil, 0)...), len(state))
	// A corrupt client count in front of an otherwise sound snapshot.
	huge := append([]byte{}, buf.Bytes()...)
	binary.LittleEndian.PutUint64(huge[40:], 1<<31)
	f.Add(huge, 48)
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := LoadCheckpoint(bytes.NewReader(data))
		cut := min(max(split, 0), len(data))
		parts, perr := LoadCheckpointParts(data[:cut], data[cut:])
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+1<<16); grew > limit {
			t.Fatalf("loading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		for _, got := range []*Checkpoint{ck, parts} {
			if got == nil {
				continue
			}
			var first, second bytes.Buffer
			if err := got.Save(&first); err != nil {
				t.Fatal(err)
			}
			again, err := LoadCheckpoint(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("a loaded checkpoint does not load again once saved: %v", err)
			}
			if err := again.Save(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Save → Load → Save is not byte-stable (%v)", err)
			}
		}
		if (err == nil) != (ck != nil) || (perr == nil) != (parts != nil) {
			t.Fatal("a loader returned both or neither of a checkpoint and an error")
		}
	})
}
