package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fedsched"
	"fedsched/internal/fl"
	"fedsched/internal/trace"
)

// resumeJob has what a snapshot can carry: simulated devices, a sampled
// cohort, faults striking it and a quorum closing rounds early.
func resumeJob(workers int) JobConfig {
	return JobConfig{Testbed: 3, CohortSize: 8, Quorum: 6, MinParticipants: 3, Rounds: 6,
		Samples: 200, TestSamples: 60, Seed: 5, Workers: workers,
		Faults: "crash=0.15,flap=0.1,corrupt=0.05,degrade=0.3,slow=4"}.WithDefaults()
}

// persistedRun drives cfg in dir with the persistence runJob gives a
// synchronous job — streamed trace, resume store, per-round sink —
// resuming from whatever the directory's store holds. after(k) runs once
// round k is on disk.
func persistedRun(t *testing.T, cfg JobConfig, dir string, after func(done int)) (fedsched.Outcome, []byte) {
	t.Helper()
	tf, err := os.OpenFile(filepath.Join(dir, "trace.jsonl"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	store, err := openResumeStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.close()
	resume, base, err := store.load(tf)
	if err != nil {
		t.Fatal(err)
	}
	if resume == nil {
		if err := store.reset(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tf.Truncate(base); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Seek(base, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	stream, rec := trace.NewStream(tf, base), trace.New(0)
	run, err := fedsched.BuildJob(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if resume != nil {
		rec.Reset()
		run.Resume = resume
	}
	run.CheckpointEvery = 1
	run.CheckpointSink = func(ck *fl.Checkpoint) error {
		if err := stream.Flush(rec); err != nil {
			return err
		}
		if err := store.write(ck, stream.Offset()); err != nil {
			return err
		}
		if after != nil {
			after(ck.NextRound)
		}
		return nil
	}
	out, err := run.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(rec); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return out, tr
}

func copyFiles(t *testing.T, from, to string, names ...string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

var persistedFiles = []string{"trace.jsonl", slotsFile, historyFile}

// roundSnapshots runs cfg to the end and returns, beside the outcome, a
// copy of the job directory as each round left it.
func roundSnapshots(t *testing.T, cfg JobConfig) (fedsched.Outcome, []byte, []string) {
	t.Helper()
	dir, snaps := t.TempDir(), t.TempDir()
	var dirs []string
	out, tr := persistedRun(t, cfg, dir, func(done int) {
		dirs = append(dirs, filepath.Join(snaps, fmt.Sprint(done)))
		copyFiles(t, dir, dirs[done-1], persistedFiles...)
	})
	return out, tr, dirs
}

func historyBytes(h *fl.History) []byte {
	ck := fl.Checkpoint{HistoryRounds: h.Rounds}
	return ck.AppendRounds(nil, 0)
}

// TestResumeEveryRound is TestCheckpointResumeEveryRound through the
// daemon's files: a job directory as every round left it — slots, history
// log, trace — is resumed to the end, and must reproduce the uninterrupted
// run's history, final weights and trace, bit for bit, at two Workers
// values.
func TestResumeEveryRound(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := resumeJob(workers)
		want, wantTrace, dirs := roundSnapshots(t, cfg)
		if len(dirs) != cfg.Rounds {
			t.Fatalf("workers %d: %d snapshots for %d rounds", workers, len(dirs), cfg.Rounds)
		}
		for k, dir := range dirs {
			resumed := -1
			got, gotTrace := persistedRun(t, cfg, dir, func(done int) {
				if resumed < 0 {
					resumed = done - 1
				}
			})
			if k+1 < cfg.Rounds && resumed != k+1 {
				t.Fatalf("workers %d: the directory round %d left resumed at round %d", workers, k+1, resumed)
			}
			if !bytes.Equal(historyBytes(got.Sync), historyBytes(want.Sync)) {
				t.Errorf("workers %d, resumed after round %d: history differs", workers, k+1)
			}
			if !bytes.Equal(got.Sync.Model.AppendWeights(nil), want.Sync.Model.AppendWeights(nil)) {
				t.Errorf("workers %d, resumed after round %d: final weights differ", workers, k+1)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("workers %d, resumed after round %d: trace differs (%d vs %d bytes)", workers, k+1, len(gotTrace), len(wantTrace))
			}
		}
	}
}

// TestDamagedResumeStore damages the directory a SIGKILL after round 4
// left behind in every way a torn write, a bad sector or an upgrade can,
// restarts a daemon over it, and requires the job to finish with the
// reference bytes each time: resumed from the round the table names when
// an intact slot and its log prefix survive, else from round 0 with the
// reason logged — never from garbage.
func TestDamagedResumeStore(t *testing.T) {
	cfg := resumeJob(1)
	_, wantTrace, dirs := roundSnapshots(t, cfg)
	const killed = 4
	base := dirs[killed-1]
	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	slots := read(base, slotsFile)
	stride := len(slots) / 2
	// Round 4's frame went over round 2's; round 3's sits in the other slot.
	newest := 0
	for i := 0; i < 2; i++ {
		if s := parseSlot(slots[i*stride : (i+1)*stride]); s.round == killed {
			newest = i * stride
		}
	}
	frame := slotHeader + int(binary.LittleEndian.Uint32(slots[newest+4:])) + 4
	older := read(dirs[killed-3], slotsFile)[newest : newest+stride]
	hist := read(base, historyFile)
	prevHist := len(read(dirs[killed-2], historyFile))

	type damage struct {
		name string
		// from is the round the job must resume after; 0 is a logged
		// restart from scratch.
		from  int
		apply func(dir string)
	}
	write := func(name string, b []byte) func(string) {
		return func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	splice := func(at int, b []byte) []byte {
		out := append([]byte{}, slots...)
		copy(out[newest+at:], b)
		return out
	}
	flip := func(b []byte, at int) []byte {
		out := append([]byte{}, b...)
		out[at] ^= 0x10
		return out
	}
	cases := []damage{
		{"intact", killed, func(string) {}},
		{"newest slot: one bit flipped", killed - 1, write(slotsFile, flip(slots, newest+frame/2))},
		{"newest slot: length field corrupt", killed - 1, write(slotsFile, splice(4, []byte{0xff, 0xff, 0xff, 0x7f}))},
		{"history log cut mid-record", killed - 1, write(historyFile, hist[:prevHist+(len(hist)-prevHist)/2])},
		{"history log: one bit flipped in the last record", killed - 1, write(historyFile, flip(hist, len(hist)-9))},
		{"history log: one bit flipped in the first record", 0, write(historyFile, flip(hist, 0))},
		{"history log deleted", 0, func(dir string) { os.Remove(filepath.Join(dir, historyFile)) }},
		{"slot file deleted", 0, func(dir string) { os.Remove(filepath.Join(dir, slotsFile)) }},
		{"slot file cut to one slot", 0, write(slotsFile, slots[:stride])},
		{"trace shorter than every slot says", 0, write("trace.jsonl", wantTrace[:10])},
		{"only an old-format resume.bin", 0, func(dir string) {
			os.Remove(filepath.Join(dir, slotsFile))
			os.Remove(filepath.Join(dir, historyFile))
			// 8-byte trace offset, then a full fl.Checkpoint: what earlier daemons wrote.
			ck, err := fl.LoadCheckpointParts(parseSlot(slots[newest:newest+stride]).state, hist)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.NewBuffer(make([]byte, 8))
			if err := ck.Save(old); err != nil {
				t.Fatal(err)
			}
			write(legacyFile, old.Bytes())(dir)
		}},
	}
	// A write torn at every 4 KB boundary: the new frame's head over the
	// tail of the frame two rounds older that the slot held before.
	for cut := 0; cut < frame; cut += slotAlign {
		torn := append(append([]byte{}, slots[newest:newest+cut]...), older[cut:]...)
		cases = append(cases, damage{fmt.Sprintf("newest slot torn at byte %d", cut), killed - 1, write(slotsFile, splice(0, torn))})
	}

	jobJSON := jobFile{ID: "job-1", Num: 1, Config: cfg}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			state := t.TempDir()
			jobDir := filepath.Join(state, "jobs", "job-1")
			copyFiles(t, base, jobDir, persistedFiles...)
			if err := writeJSONAtomic(filepath.Join(jobDir, "job.json"), jobJSON); err != nil {
				t.Fatal(err)
			}
			if err := persistState(jobDir, JobStatus{State: StateRunning, RoundsDone: killed}); err != nil {
				t.Fatal(err)
			}
			tc.apply(jobDir)

			// What the store itself makes of the damage.
			tf, err := os.Open(filepath.Join(jobDir, "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			store, err := openResumeStore(jobDir)
			if err != nil {
				t.Fatal(err)
			}
			ck, off, err := store.load(tf)
			store.close()
			tf.Close()
			switch {
			case tc.from == 0 && (err == nil || ck != nil):
				t.Fatalf("load accepted the damage: %v, checkpoint %+v at trace offset %d", err, ck, off)
			case tc.from > 0 && (err != nil || ck == nil || ck.NextRound != tc.from):
				t.Fatalf("load: %v, checkpoint %+v; want round %d", err, ck, tc.from)
			}

			var mu sync.Mutex
			var reasons []string
			_, ts := startServer(t, Options{Dir: state, Logf: func(format string, args ...any) {
				if strings.Contains(format, "unusable resume snapshot") {
					mu.Lock()
					reasons = append(reasons, fmt.Sprintf(format, args...))
					mu.Unlock()
				}
			}})
			final := waitFor(t, ts, "job-1", StateCompleted, func(s JobStatus) bool { return terminal(s.State) })
			if final.State != StateCompleted || final.RoundsDone != cfg.Rounds || !final.Resumed {
				t.Fatalf("job ended %+v", final)
			}
			mu.Lock()
			defer mu.Unlock()
			if (tc.from == 0) != (len(reasons) == 1) {
				t.Errorf("resume from round %d, but the log says %q", tc.from, reasons)
			}
			if got := read(jobDir, "trace.jsonl"); !bytes.Equal(got, wantTrace) {
				t.Errorf("trace differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(wantTrace))
			}
			for _, name := range resumeFiles {
				if _, err := os.Stat(filepath.Join(jobDir, name)); !os.IsNotExist(err) {
					t.Errorf("%s outlived the job (err %v)", name, err)
				}
			}
		})
	}
}

// TestResumeWriteFlat is the point of the store: what persisting a round
// costs does not depend on how many rounds came before. Round 400 writes
// the bytes round 10 wrote, and a steady-state write allocates nothing.
func TestResumeWriteFlat(t *testing.T) {
	store, err := openResumeStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.close()
	const rounds = 400
	all := make([]fl.RoundStats, rounds+64)
	for r := range all {
		all[r] = fl.RoundStats{Round: r, Makespan: float64(r), Clients: make([]fl.ClientRound, 4)}
	}
	ck := &fl.Checkpoint{Rounds: len(all), Clients: make([]fl.ClientCheckpoint, 4), Model: make([]byte, 38539)}
	written := make([]int64, rounds+1)
	step := func() {
		ck.NextRound++
		ck.HistoryRounds = all[:ck.NextRound]
		before := store.histLen
		if err := store.write(ck, int64(ck.NextRound)*1000); err != nil {
			t.Fatal(err)
		}
		if ck.NextRound <= rounds {
			written[ck.NextRound] = store.histLen - before + int64(len(store.buf))
		}
	}
	for ck.NextRound < rounds {
		step()
	}
	if written[rounds] != written[10] || written[10] < int64(len(ck.Model)) {
		t.Fatalf("round 10 wrote %d bytes, round %d wrote %d", written[10], rounds, written[rounds])
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("a steady-state write allocates %v times, want 0", allocs)
	}
	st, err := store.slots.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 2*store.stride || store.stride%slotAlign != 0 || store.stride < written[10] {
		t.Fatalf("slot file is %d bytes for a stride of %d and %d-byte rounds", st.Size(), store.stride, written[10])
	}
}
