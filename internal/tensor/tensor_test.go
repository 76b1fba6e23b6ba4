package tensor

import (
	"math/rand"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad shape %v", x.Shape())
	}
}

func TestFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	From([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout broken: got %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := From([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on volume mismatch")
		}
	}()
	x.Reshape(4, 2)
}

func TestScaleAddApplySum(t *testing.T) {
	x := From([]float64{1, 2, 3}, 3)
	x.Scale(2)
	y := From([]float64{1, 1, 1}, 3)
	x.AddScaled(3, y)
	want := []float64{5, 7, 9}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("element %d = %v, want %v", i, v, want[i])
		}
	}
	if s := x.Sum(); s != 21 {
		t.Fatalf("Sum = %v, want 21", s)
	}
	x.Scale(-1)
	if m := x.MaxAbs(); m != 9 {
		t.Fatalf("MaxAbs = %v, want 9", m)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := From([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := From([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(28, 5, 1, 0); got != 24 {
		t.Fatalf("ConvOutSize(28,5,1,0) = %d, want 24", got)
	}
	if got := ConvOutSize(28, 3, 1, 1); got != 28 {
		t.Fatalf("ConvOutSize(28,3,1,1) = %d, want 28", got)
	}
	if got := ConvOutSize(8, 2, 2, 0); got != 4 {
		t.Fatalf("ConvOutSize(8,2,2,0) = %d, want 4", got)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 8, 3, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2col(x, 3, 3, 1, 1)
	}
}
