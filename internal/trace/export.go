package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"fedsched/internal/tensor"
)

// MarshalJSON encodes the kind as its stable string name, keeping JSONL
// traces self-describing and diffable.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the string names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kk, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = kk
	return nil
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// appendEvent appends e as one JSON object, byte for byte what
// encoding/json makes of Event's struct tags — kind, round and client
// always, every other field in declaration order unless zero (omitempty;
// −0 counts as zero) — without the reflection walk. Like encoding/json it
// refuses non-finite floats.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	b = append(b, `{"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","round":`...)
	b = strconv.AppendInt(b, int64(e.Round), 10)
	b = append(b, `,"client":`...)
	b = strconv.AppendInt(b, int64(e.Client), 10)
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{`,"samples":`, e.Samples}, {`,"throttles":`, e.Throttles},
		{`,"straggler":`, e.Straggler}, {`,"staleness":`, e.Staleness},
		{`,"flag":`, e.Flag},
	} {
		if f.v != 0 {
			b = append(b, f.key...)
			b = strconv.AppendInt(b, int64(f.v), 10)
		}
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"at_s":`, e.AtS}, {`,"compute_s":`, e.ComputeS}, {`,"comm_s":`, e.CommS},
		{`,"energy_j":`, e.EnergyJ}, {`,"battery":`, e.Battery}, {`,"temp_c":`, e.TempC},
		{`,"freq_ghz":`, e.FreqGHz}, {`,"makespan_s":`, e.MakespanS}, {`,"loss":`, e.Loss},
		{`,"accuracy":`, e.Accuracy},
	} {
		if f.v == 0 { //fedlint:allow floateq — omitempty's exact zero test (−0 included)
			continue
		}
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return b, fmt.Errorf("unsupported value %v for %s (emitters Sanitize)", f.v, f.key[2:len(f.key)-2])
		}
		b = append(b, f.key...)
		b = appendFloat(b, f.v)
	}
	return append(b, '}'), nil
}

// appendFloat appends f the way encoding/json writes a float64 (the ES6
// number-to-string rule): shortest round-trip digits, plain decimal
// unless |f| < 1e-6 or |f| ≥ 1e21, then exponent form with a negative
// two-digit exponent's leading zero dropped (e-09 → e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //fedlint:allow floateq — encoding/json's exact cutoffs
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// WriteJSONL writes one JSON object per event, one per line, in order.
// Encoding is deterministic (fixed field order, shortest float
// round-trip representation), so equal event sequences produce
// byte-identical files. The events are formatted two blocks of
// exportBlock at a time — one tensor.FanOut task each, on two goroutines
// when the process budget has a lane free — and each pair is written in
// order. Either way the bytes and the error (the first non-finite
// event, by index) are the same.
func WriteJSONL(w io.Writer, events []Event) error {
	var bufs [2][]byte
	var errs [2]error
	for at := 0; at < len(events); at += 2 * exportBlock {
		blocks := min(2, (len(events)-at+exportBlock-1)/exportBlock)
		tensor.FanOut(2, blocks, struct{}{}, nil, func(i int, _ struct{}) {
			lo := at + i*exportBlock
			bufs[i], errs[i] = appendEvents(bufs[i][:0], events[lo:min(lo+exportBlock, len(events))], lo)
		})
		for i := range blocks {
			if errs[i] != nil {
				return errs[i]
			}
			if _, err := w.Write(bufs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportBlock is the events per formatted block of WriteJSONL: large
// enough that handing blocks between goroutines is cheap, small enough
// that the two blocks in flight (about 40 KB each) add nothing to a
// run's peak memory.
const exportBlock = 256

// appendEvents appends events as JSONL lines to b; the first event is
// event number first of the trace, for the error.
func appendEvents(b []byte, events []Event, first int) ([]byte, error) {
	for i := range events {
		var err error
		if b, err = appendEvent(b, &events[i]); err != nil {
			return b, fmt.Errorf("trace: event %d: %w", first+i, err)
		}
		b = append(b, '\n')
	}
	return b, nil
}

// ReadJSONL parses a JSONL trace written by WriteJSONL. Blank lines are
// skipped so hand-edited goldens stay readable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFileJSONL writes the events to path as JSONL (see WriteJSONL) —
// the `-trace` flag of the binaries.
func WriteFileJSONL(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileCSV writes the events to path as CSV (see WriteCSV) — the
// `-trace-csv` flag of the binaries.
func WriteFileCSV(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvHeader is the fixed CSV column order; it mirrors the Event fields.
var csvHeader = []string{
	"kind", "round", "client", "samples", "throttles", "straggler",
	"staleness", "flag", "at_s", "compute_s", "comm_s", "energy_j",
	"battery", "temp_c", "freq_ghz", "makespan_s", "loss", "accuracy",
}

// WriteCSV writes the events as CSV with a header row. Floats use the
// shortest round-trip representation, so parsing the file back yields e.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := strconv.Itoa
	for i := range events {
		e := &events[i]
		rec := []string{
			e.Kind.String(), d(e.Round), d(e.Client), d(e.Samples),
			d(e.Throttles), d(e.Straggler), d(e.Staleness), d(e.Flag),
			f(e.AtS), f(e.ComputeS), f(e.CommS), f(e.EnergyJ),
			f(e.Battery), f(e.TempC), f(e.FreqGHz), f(e.MakespanS),
			f(e.Loss), f(e.Accuracy),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Export writes a finished run's trace wherever its command line asked:
// a JSONL file, a CSV file (either path may be empty) and the per-round
// summary table on stderr. Each file written is announced on notice; a
// ring overflow is reported on stderr. A nil recorder is a no-op. The
// events are written straight from the ring, which Export rotates into
// order instead of copying.
func Export(rec *Recorder, jsonlPath, csvPath string, summary bool, notice io.Writer) error {
	if rec == nil {
		return nil
	}
	events := rec.inOrder()
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring overflowed, %d oldest events dropped (raise -trace-cap)\n", d)
	}
	if jsonlPath != "" {
		if err := WriteFileJSONL(jsonlPath, events); err != nil {
			return err
		}
		fmt.Fprintf(notice, "trace: %d events written to %s\n", len(events), jsonlPath)
	}
	if csvPath != "" {
		if err := WriteFileCSV(csvPath, events); err != nil {
			return err
		}
		fmt.Fprintf(notice, "trace: %d events written to %s\n", len(events), csvPath)
	}
	if summary {
		return WriteSummary(os.Stderr, events)
	}
	return nil
}
