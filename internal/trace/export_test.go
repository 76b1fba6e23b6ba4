package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
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
