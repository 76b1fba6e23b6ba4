package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"fedsched/internal/tensor"
)

// sample covers every kind and exercises negative, zero and fractional
// field values.
func sample() []Event {
	return []Event{
		{Kind: KindSchedule, Round: -1, Client: 0, Samples: 12000, ComputeS: 310.25, MakespanS: 402.5},
		{Kind: KindSolver, Round: 0, Client: -1, Samples: 600, Flag: 1, MakespanS: 402.5},
		{Kind: KindThrottle, Client: 3, Flag: ThrottleEngage, AtS: 41.75, TempC: 55.01, FreqGHz: 1.2},
		{Kind: KindClientRound, Round: 0, Client: 3, Samples: 2000, Throttles: 2, ComputeS: 120.5, CommS: 4.25, EnergyJ: 310.75, Battery: 0.97, TempC: 58.5, Loss: 2.13},
		{Kind: KindRoundSummary, Round: 0, Client: -1, Samples: 12000, Throttles: 2, Straggler: 3, MakespanS: 124.75, Loss: 2.2, Accuracy: -1, EnergyJ: 900.5},
		{Kind: KindMerge, Round: 7, Client: 1, Samples: 500, Staleness: 2, AtS: 88.125, ComputeS: 61.5, CommS: 2.5},
		{Kind: KindSimStep, Round: 19, AtS: 90.625},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(events, got, Exact); err != nil {
		t.Fatalf("JSONL round trip not exact: %v", err)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	events := sample()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same events differ byte-wise")
	}
	first := strings.SplitN(a.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, `{"kind":"schedule"`) {
		t.Fatalf("unexpected leading line %q: kind must encode as its string name first", first)
	}
}

func TestJSONLSkipsBlankLines(t *testing.T) {
	events := sample()[:2]
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	padded := "\n" + strings.ReplaceAll(buf.String(), "\n", "\n\n")
	got, err := ReadJSONL(strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(events, got, Exact); err != nil {
		t.Fatalf("padded JSONL mismatch: %v", err)
	}
}

func TestJSONLRejectsUnknownKind(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"no_such_kind"}` + "\n")); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

// readCSV parses a CSV trace written by WriteCSV.
func readCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty CSV (missing header)")
	}
	out := make([]Event, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		var e Event
		if e.Kind, err = ParseKind(rec[0]); err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		ints := []*int{
			&e.Round, &e.Client, &e.Samples, &e.Throttles,
			&e.Straggler, &e.Staleness, &e.Flag,
		}
		for j, p := range ints {
			if *p, err = strconv.Atoi(rec[1+j]); err != nil {
				return nil, fmt.Errorf("trace: row %d col %s: %w", i+1, csvHeader[1+j], err)
			}
		}
		floats := []*float64{
			&e.AtS, &e.ComputeS, &e.CommS, &e.EnergyJ, &e.Battery,
			&e.TempC, &e.FreqGHz, &e.MakespanS, &e.Loss, &e.Accuracy,
		}
		for j, p := range floats {
			if *p, err = strconv.ParseFloat(rec[8+j], 64); err != nil {
				return nil, fmt.Errorf("trace: row %d col %s: %w", i+1, csvHeader[8+j], err)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

func TestCSVRoundTrip(t *testing.T) {
	events := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(events, got, Exact); err != nil {
		t.Fatalf("CSV round trip not exact: %v", err)
	}
}

func TestCSVHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	header := strings.TrimSpace(buf.String())
	if header != strings.Join(csvHeader, ",") {
		t.Fatalf("header %q, want %q", header, strings.Join(csvHeader, ","))
	}
	if _, err := readCSV(strings.NewReader("")); err == nil {
		t.Fatal("want error for empty CSV input")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("want error for bogus kind name")
	}
}

func TestWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"round", "makespan_s", "straggler", "124.75", "0.900"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(strings.TrimSpace(out), "\n")
	// Header + round 0 + merge row for update 7.
	if lines != 2 {
		t.Fatalf("summary has %d body lines, want 2:\n%s", lines, out)
	}
}

func TestWriteSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no round events") {
		t.Fatalf("empty summary should say so, got:\n%s", buf.String())
	}
}

func TestExportLeavesEventsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name       string
		cap, emits int
	}{
		{"unwrapped", 8, 5},
		{"full", 7, 7},
		{"wrapped", 5, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := New(c.cap)
			for i := 0; i < c.emits; i++ {
				rec.Emit(Event{Kind: KindSimStep, Round: i, AtS: float64(i) / 4})
			}
			before := rec.Events()
			var want bytes.Buffer
			if err := WriteJSONL(&want, before); err != nil {
				t.Fatal(err)
			}
			path := t.TempDir() + "/trace.jsonl"
			var report bytes.Buffer
			if err := Export(rec, path, "", false, io.Discard, &report); err != nil {
				t.Fatal(err)
			}
			warning := ""
			if d := c.emits - c.cap; d > 0 {
				warning = fmt.Sprintf("trace: ring overflowed, %d oldest events dropped (raise -trace-cap)\n", d)
			}
			if report.String() != warning {
				t.Fatalf("report %q, want %q", report.String(), warning)
			}
			if err := Compare(before, rec.Events(), Exact); err != nil {
				t.Fatalf("Events() changed across Export: %v", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("exported %q (err %v), want %q", got, err, want.Bytes())
			}
			// The ring keeps recording as if it had never been exported.
			rec.Emit(Event{Kind: KindSimStep, Round: c.emits})
			after := append(before, Event{Kind: KindSimStep, Round: c.emits})
			if len(after) > c.cap {
				after = after[len(after)-c.cap:]
			}
			if err := Compare(after, rec.Events(), Exact); err != nil {
				t.Fatalf("Emit after Export: %v", err)
			}
		})
	}
}

// TestExportJSONLAndCSV exports one recorder — wrapped, so Export rotates
// it first — to both files the binaries' -trace and -trace-csv flags
// name: the JSONL bytes must equal WriteJSONL's over the same events, and
// the CSV rows must parse back to those events, floats bit for bit.
func TestExportJSONLAndCSV(t *testing.T) {
	events := sample()
	rec := New(len(events) - 2)
	for _, e := range events {
		rec.Emit(e)
	}
	live := rec.Events()
	var want bytes.Buffer
	if err := WriteJSONL(&want, live); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonlPath, csvPath := dir+"/trace.jsonl", dir+"/trace.csv"
	var notice, report bytes.Buffer
	if err := Export(rec, jsonlPath, csvPath, false, &notice, &report); err != nil {
		t.Fatal(err)
	}
	if want := "trace: ring overflowed, 2 oldest events dropped (raise -trace-cap)\n"; report.String() != want {
		t.Errorf("report %q, want %q", report.String(), want)
	}
	if got, err := os.ReadFile(jsonlPath); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("exported JSONL %q (err %v), want %q", got, err, want.Bytes())
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := readCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(live, rows, Exact); err != nil {
		t.Fatalf("exported CSV does not parse back to the events: %v", err)
	}
	for _, path := range []string{jsonlPath, csvPath} {
		if line := fmt.Sprintf("trace: %d events written to %s\n", len(live), path); !strings.Contains(notice.String(), line) {
			t.Errorf("notice %q does not announce %q", notice.String(), line)
		}
	}
}

// TestWriteJSONLBlocksMatchSerial holds the two-lane export to the
// sequential fallback (WriteJSONL with no lane free): the same bytes at
// every length around the block boundaries, and for a non-finite event
// in the first block, in the second worker's block and at the last
// event, the same error naming the same event index.
func TestWriteJSONLBlocksMatchSerial(t *testing.T) {
	prev := tensor.MaxLanes()
	t.Cleanup(func() { tensor.SetMaxLanes(prev) })
	writeSerial := func(w io.Writer, events []Event) error {
		tensor.SetMaxLanes(0)
		defer tensor.SetMaxLanes(1) // WriteJSONL fans out on any host
		return WriteJSONL(w, events)
	}
	tensor.SetMaxLanes(1)
	base := sample()
	events := make([]Event, 5*exportBlock+3)
	for i := range events {
		events[i] = base[i%len(base)]
		events[i].Round = i
	}
	for _, n := range []int{0, 1, exportBlock - 1, exportBlock, exportBlock + 1,
		2*exportBlock - 1, 2 * exportBlock, 2*exportBlock + 1, 3*exportBlock + 7, len(events)} {
		var want, got bytes.Buffer
		if err := writeSerial(&want, events[:n]); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&got, events[:n]); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: the block writer's %d bytes differ from the serial writer's %d", n, got.Len(), want.Len())
		}
	}
	for _, bad := range []int{3, exportBlock + 5, 2*exportBlock + 1, len(events) - 1} {
		broken := append([]Event(nil), events...)
		broken[bad].Loss = math.NaN()
		broken[len(broken)-1].TempC = math.Inf(1) // a later failure must not win
		wantErr := writeSerial(io.Discard, broken)
		gotErr := WriteJSONL(io.Discard, broken)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("bad event %d: block writer error %v, serial %v", bad, gotErr, wantErr)
		}
		if !strings.Contains(gotErr.Error(), fmt.Sprintf("event %d:", bad)) {
			t.Fatalf("bad event %d: error %q names another event", bad, gotErr)
		}
	}
}
