package fl

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
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
	}); allocs > 2 {
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
