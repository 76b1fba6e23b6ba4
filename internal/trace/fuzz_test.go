package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzEventJSON pins the hand-written encoder to the encoding it
// replaced: appendEvent must produce exactly json.Marshal's bytes for
// every event — field order, omitempty (−0 included), the ES6 float rule
// with its exponent clean-up — and must fail exactly when json.Marshal
// does (non-finite floats).
func FuzzEventJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	// Every kind, one past the last ("unknown"), and negative ints.
	for k := 0; k <= len(kindNames); k++ {
		f.Add(uint8(k), -1, -7, k, -k, -1, math.MinInt, 3,
			1.5, -2.25, 0.0, 1e-3, 0.97, 31.0, 1.2, 402.5, -1.0, 0.5)
	}
	// Floats at the format's edges: ±0, denormals, the 1e-6 and 1e21
	// exponent cutoffs from both sides, two-digit and three-digit
	// exponents, and values json.Marshal rejects.
	f.Add(uint8(3), 0, 0, 0, 0, 0, 0, 0,
		negZero, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.234e-9, -1e-10)
	f.Add(uint8(4), 1, 2, 3, 4, 5, 6, 7,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.7976931348623157e308, 1e100, 123456789012345680000.0, 1e20, 0.000001234, 1e-300)
	f.Add(uint8(1), 0, -1, 0, 0, 0, 0, 0,
		math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(1), 0, -1, 0, 0, 0, 0, 0,
		0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, kind uint8, round, client, samples, throttles, straggler, staleness, flag int,
		atS, computeS, commS, energyJ, battery, tempC, freqGHz, makespanS, loss, accuracy float64) {
		e := Event{
			Kind: Kind(kind), Round: round, Client: client, Samples: samples,
			Throttles: throttles, Straggler: straggler, Staleness: staleness, Flag: flag,
			AtS: atS, ComputeS: computeS, CommS: commS, EnergyJ: energyJ, Battery: battery,
			TempC: tempC, FreqGHz: freqGHz, MakespanS: makespanS, Loss: loss, Accuracy: accuracy,
		}
		want, wantErr := json.Marshal(&e)
		got, gotErr := appendEvent(nil, &e)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("error mismatch: json.Marshal %v, appendEvent %v", wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encodings differ:\nappendEvent  %s\njson.Marshal %s", got, want)
		}
	})
}
