package secagg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskedSumEqualsPlainSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, dim := 5, 200
	g, err := NewGroup(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	updates := make([][]float64, n)
	masked := make([][]uint64, n)
	for i := range updates {
		updates[i] = make([]float64, dim)
		for k := range updates[i] {
			updates[i][k] = rng.NormFloat64()
		}
		masked[i], err = g.Mask(i, updates[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := g.Aggregate(masked)
	if err != nil {
		t.Fatal(err)
	}
	want := sumPlain(updates)
	for k := range want {
		if math.Abs(got[k]-want[k]) > float64(n)/DefaultScale {
			t.Fatalf("coordinate %d: secure %v vs plain %v", k, got[k], want[k])
		}
	}
}

func TestSingleClientGroup(t *testing.T) {
	g, err := NewGroup(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{1.5, -2.25}
	m, err := g.Mask(0, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Aggregate([][]uint64{m})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1.5) > 1e-6 || math.Abs(got[1]+2.25) > 1e-6 {
		t.Fatalf("got %v", got)
	}
}

func TestMaskedUpdateHidesPlaintext(t *testing.T) {
	// A masked update must not resemble its quantized plaintext: compare
	// each coordinate; with 64-bit masks a collision is astronomically
	// unlikely.
	g, _ := NewGroup(3, 9)
	u := make([]float64, 100) // all zeros — worst case for leakage
	m, err := g.Mask(0, u)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range m {
		if v == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Fatalf("%d/100 masked coordinates equal plaintext zero", zeros)
	}
}

func TestDropoutAborts(t *testing.T) {
	g, _ := NewGroup(3, 11)
	u := []float64{1}
	m0, _ := g.Mask(0, u)
	m1, _ := g.Mask(1, u)
	if _, err := g.Aggregate([][]uint64{m0, m1}); err == nil {
		t.Fatal("aggregation with a missing participant must fail")
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	g, _ := NewGroup(2, 13)
	m0, _ := g.Mask(0, []float64{1, 2})
	m1, _ := g.Mask(1, []float64{1})
	if _, err := g.Aggregate([][]uint64{m0, m1}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := NewGroup(0, 1); err == nil {
		t.Fatal("empty group must fail")
	}
	g, _ := NewGroup(2, 1)
	if _, err := g.Mask(5, []float64{1}); err == nil {
		t.Fatal("out-of-range client must fail")
	}
	if _, err := g.Mask(0, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN update must fail")
	}
	if _, err := g.Mask(0, []float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf update must fail")
	}
}

func TestCancellationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		dim := 1 + rng.Intn(50)
		g, err := NewGroup(n, uint64(seed)+1)
		if err != nil {
			return false
		}
		updates := make([][]float64, n)
		masked := make([][]uint64, n)
		for i := range updates {
			updates[i] = make([]float64, dim)
			for k := range updates[i] {
				updates[i][k] = (rng.Float64() - 0.5) * 20
			}
			masked[i], err = g.Mask(i, updates[i])
			if err != nil {
				return false
			}
		}
		got, err := g.Aggregate(masked)
		if err != nil {
			return false
		}
		want := sumPlain(updates)
		for k := range want {
			if math.Abs(got[k]-want[k]) > float64(n)/DefaultScale*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMaskLeNetSized(b *testing.B) {
	g, _ := NewGroup(10, 3)
	update := make([]float64, 204803) // paper-scale LeNet parameter count
	for i := range update {
		update[i] = float64(i%97) / 97
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Mask(0, update); err != nil {
			b.Fatal(err)
		}
	}
}

// sumPlain is the reference insecure aggregation.
func sumPlain(updates [][]float64) []float64 {
	out := make([]float64, len(updates[0]))
	for _, u := range updates {
		for k, v := range u {
			out[k] += v
		}
	}
	return out
}
