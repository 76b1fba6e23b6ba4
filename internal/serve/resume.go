package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fedsched/internal/fl"
)

// A synchronous job's restart state is two files, held open for the life
// of the run (DESIGN §14): resume.hist, an append-only log of completed
// rounds, and resume.slots, two fixed-size slots each holding one framed
// state record — the O(model) rest of the snapshot. A round appends its
// record to the log, then overwrites the older slot in place with a frame
// pinning the round, the trace offset and the log's length and CRC-32,
// under a CRC-32 of its own: two writes, no open, close or rename. The
// slot being overwritten is never the newest good one, so a torn write
// costs one round: restart takes the intact slot with the highest round
// whose log prefix checks out, and the tails past its offsets are
// regenerated bit-identically.
const (
	slotsFile   = "resume.slots"
	historyFile = "resume.hist"
	// legacyFile is earlier daemons' single-file snapshot. Nothing reads
	// its layout: it fails the frame check like any damaged slot file.
	legacyFile = "resume.bin"

	slotMagic  uint32 = 0x544c5346 // "FSLT"
	slotHeader        = 36         // magic, state length, round, trace offset, log length, log CRC
	slotAlign         = 4096
)

var resumeFiles = [...]string{slotsFile, historyFile, legacyFile}

// persistTerminal writes a job's terminal state and then deletes its
// resume store: nothing resumes a finished or failed job. If the state
// write fails the store stays, because the next daemon will re-run the
// job and resume from it.
func (s *Server) persistTerminal(j *job, st JobStatus) {
	if err := persistState(j.dir, st); err != nil {
		s.opt.Logf("serve: %s: persist state: %v", j.ID, err)
		return
	}
	for _, name := range resumeFiles {
		os.Remove(filepath.Join(j.dir, name))
	}
}

type resumeStore struct {
	dir         string
	slots, hist *os.File
	stride      int64 // slot size; 0 until the first write sizes the file
	next        int64 // slot the next write overwrites: the older one
	rounds      int   // rounds in the log
	histLen     int64
	histCRC     uint32
	buf         []byte
}

func openResumeStore(dir string) (*resumeStore, error) {
	s := &resumeStore{dir: dir}
	var err error
	if s.slots, err = os.OpenFile(filepath.Join(dir, slotsFile), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return nil, err
	}
	if s.hist, err = os.OpenFile(filepath.Join(dir, historyFile), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		s.slots.Close()
		return nil, err
	}
	return s, nil
}

func (s *resumeStore) close() {
	s.slots.Close()
	s.hist.Close()
}

// slot is one parsed frame; round is -1 when the frame is not intact.
type slot struct {
	round, trace, histLen int64
	histCRC               uint32
	state                 []byte
}

func parseSlot(b []byte) slot {
	le := binary.LittleEndian
	if len(b) < slotHeader+4 || le.Uint32(b) != slotMagic {
		return slot{round: -1}
	}
	end := slotHeader + int64(le.Uint32(b[4:]))
	if end+4 > int64(len(b)) || crc32.ChecksumIEEE(b[:end]) != le.Uint32(b[end:]) {
		return slot{round: -1}
	}
	return slot{round: int64(le.Uint64(b[8:])), trace: int64(le.Uint64(b[16:])),
		histLen: int64(le.Uint64(b[24:])), histCRC: le.Uint32(b[32:]), state: b[slotHeader:end]}
}

// load restores the newest consistent (checkpoint, trace offset) pair and
// positions the store behind it; (nil, 0, nil) means there is nothing to
// resume. A slot whose offset lies past the end of the trace file has
// lost its trace.
func (s *resumeStore) load(trace *os.File) (*fl.Checkpoint, int64, error) {
	st, err := trace.Stat()
	if err != nil {
		return nil, 0, err
	}
	traceLen := st.Size()
	raw, err := io.ReadAll(s.slots)
	if err == nil && len(raw) == 0 {
		raw, _ = os.ReadFile(filepath.Join(s.dir, legacyFile))
	}
	log, lerr := io.ReadAll(s.hist)
	if err = errors.Join(err, lerr); err != nil || len(raw)+len(log) == 0 {
		return nil, 0, err
	}
	half := len(raw) / 2
	cands := [2]slot{parseSlot(raw[:half]), parseSlot(raw[half:])}
	newest := 0
	if cands[1].round > cands[0].round {
		newest = 1
	}
	err = fmt.Errorf("no intact slot in %d bytes", len(raw))
	for _, i := range [2]int{newest, 1 - newest} {
		c := cands[i]
		switch {
		case c.round < 0:
			continue
		case c.histLen > int64(len(log)) || crc32.ChecksumIEEE(log[:c.histLen]) != c.histCRC:
			err = fmt.Errorf("round %d: history log does not match its slot", c.round)
			continue
		case c.trace > traceLen:
			err = fmt.Errorf("round %d: trace is %d bytes, slot recorded %d", c.round, traceLen, c.trace)
			continue
		}
		ck, lerr := fl.LoadCheckpointParts(c.state, log[:c.histLen])
		if lerr != nil {
			err = lerr
			continue
		}
		s.stride, s.next = int64(half), int64(1-i)
		s.rounds, s.histLen, s.histCRC = len(ck.HistoryRounds), c.histLen, c.histCRC
		return ck, c.trace, nil
	}
	return nil, 0, err
}

// reset empties both files for a run that starts from round 0.
func (s *resumeStore) reset() error {
	s.stride, s.next, s.rounds, s.histLen, s.histCRC = 0, 0, 0, 0, 0
	return errors.Join(s.slots.Truncate(0), s.hist.Truncate(0))
}

// write persists one round: the rounds the log lacks, then the state
// frame into the older slot. Its cost does not depend on the round.
func (s *resumeStore) write(ck *fl.Checkpoint, traceOff int64) error {
	b := ck.AppendRounds(s.buf[:0], s.rounds)
	if _, err := s.hist.WriteAt(b, s.histLen); err != nil {
		return err
	}
	s.rounds = len(ck.HistoryRounds)
	s.histLen += int64(len(b))
	s.histCRC = crc32.Update(s.histCRC, crc32.IEEETable, b)

	le := binary.LittleEndian
	b = ck.AppendState(append(b[:0], make([]byte, slotHeader)...))
	le.PutUint32(b, slotMagic)
	le.PutUint32(b[4:], uint32(len(b)-slotHeader))
	le.PutUint64(b[8:], uint64(ck.NextRound))
	le.PutUint64(b[16:], uint64(traceOff))
	le.PutUint64(b[24:], uint64(s.histLen))
	le.PutUint32(b[32:], s.histCRC)
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	s.buf = b

	if s.stride == 0 {
		// The state record only varies with the sampler's cooldown list, at
		// most one 24-byte entry per client; the file's size records the
		// stride (a reader halves it).
		s.stride = (int64(len(b)+24*len(ck.Clients)) + slotAlign - 1) / slotAlign * slotAlign
		if err := s.slots.Truncate(2 * s.stride); err != nil {
			return err
		}
	}
	if int64(len(b)) > s.stride {
		return fmt.Errorf("resume state grew to %d bytes, slot holds %d", len(b), s.stride)
	}
	_, err := s.slots.WriteAt(b, s.next*s.stride)
	s.next ^= 1
	return err
}
