package trace

import (
	"fmt"
	"io"
)

// Stream incrementally persists a Recorder's events as JSONL. Callers
// flush between rounds (the serve daemon does it from the engine's
// checkpoint sink, on the engine goroutine): each Flush encodes the
// recorder's live events oldest-first, appends them to the underlying
// writer and resets the recorder, so the ring never needs to hold more
// than one flush interval's worth of events.
//
// Because every event encodes independently (one JSON object per line,
// fixed field order), the concatenation of the flushed chunks is
// byte-identical to a single WriteJSONL over the full event sequence —
// which is what makes a killed-and-resumed run's trace file provably
// equal to an uninterrupted run's: truncate to the last offset recorded
// atomically with a checkpoint, resume, and the re-emitted suffix lines
// up exactly.
//
// A Stream is not safe for concurrent use; it shares the recorder's
// single-writer contract.
type Stream struct {
	w      io.Writer
	offset int64
	buf    []byte
}

// NewStream returns a Stream appending to w. base is the byte offset
// already present in w (non-zero when resuming onto a truncated file);
// Offset continues from it.
func NewStream(w io.Writer, base int64) *Stream {
	return &Stream{w: w, offset: base}
}

// Flush drains r into the stream: its live events are encoded oldest
// first, written to the underlying writer in one Write, and r is reset.
// A nil or empty recorder is a no-op. The write is all-or-nothing from
// the stream's point of view: on error the offset does not advance and
// r keeps its events, so the caller can retry or abandon the job with
// the accounting intact.
func (s *Stream) Flush(r *Recorder) error {
	if r == nil || r.Len() == 0 {
		return nil
	}
	if d := r.Dropped(); d > 0 {
		return fmt.Errorf("trace: stream flush lost %d events to ring overflow; raise the ring capacity or flush more often", d)
	}
	var err error
	if s.buf, err = appendEvents(s.buf[:0], r.inOrder(), 0); err != nil {
		return err
	}
	n, err := s.w.Write(s.buf)
	if err != nil {
		// A torn write may leave the sink ahead of the accounting; the
		// offset deliberately stays put — anything past it is a partial
		// tail that a resume truncates away.
		return fmt.Errorf("trace: stream write (%d of %d bytes): %w", n, len(s.buf), err)
	}
	s.offset += int64(n)
	r.Reset()
	return nil
}

// Offset reports how many bytes of JSONL the stream has written,
// including the base it was constructed with. Recording it atomically
// with a run checkpoint lets a restart truncate the sink back to a
// consistent round boundary.
func (s *Stream) Offset() int64 { return s.offset }
