package tensor

import (
	"math/rand"
	"testing"
)

// FuzzConvGeom searches the geometry space the case tables sample: for
// any (n, c, h, w, f, k, stride, pad) the forward pass and the weight
// gradient must equal the materialized im2col oracle bit for bit, in
// both precisions — offset tables, zero border, tile slack, the dWᵀ
// write-back and one-tile shapes included.
func FuzzConvGeom(f *testing.F) {
	for _, a := range convGeomSeeds() {
		f.Add(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], int64(1))
	}
	f.Fuzz(func(t *testing.T, n, c, h, w, nf, k, stride, pad uint8, seed int64) {
		tc, ok := convCaseFromFuzz([8]uint8{n, c, h, w, nf, k, stride, pad})
		if !ok {
			t.Skip("kernel larger than the padded input")
		}
		fuzzConvGeom[float64](t, tc, seed)
		fuzzConvGeom[float32](t, tc, seed)
	})
}

// convGeomSeeds is FuzzConvGeom's seed corpus: the two case tables, as
// fuzz arguments (n, c, h, w, f, k, stride, pad).
func convGeomSeeds() [][8]uint8 {
	var seeds [][8]uint8
	for _, tc := range append(convCases, packCases...) {
		seeds = append(seeds, [8]uint8{uint8(tc.n), uint8(tc.c), uint8(tc.h), uint8(tc.w), uint8(tc.f), uint8(tc.k), uint8(tc.stride), uint8(tc.pad)})
	}
	return seeds
}

// convCaseFromFuzz folds fuzz arguments into the geometry they stand
// for; ok is false when the kernel does not fit the padded input.
func convCaseFromFuzz(a [8]uint8) (tc convCase, ok bool) {
	tc = convCase{
		n: 1 + int(a[0])%4, c: 1 + int(a[1])%12, h: 1 + int(a[2])%14, w: 1 + int(a[3])%14,
		f: 1 + int(a[4])%10, k: 1 + int(a[5])%5, stride: 1 + int(a[6])%3, pad: int(a[7]) % 4,
	}
	return tc, tc.h+2*tc.pad >= tc.k && tc.w+2*tc.pad >= tc.k
}

func fuzzConvGeom[T Float](t *testing.T, tc convCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	x := randTensorOf[T](rng, tc.n, tc.c, tc.h, tc.w)
	w := randTensorOf[T](rng, tc.f, tc.c*tc.k*tc.k)
	bias := randTensorOf[T](rng, tc.f)
	oh := ConvOutSize(tc.h, tc.k, tc.stride, tc.pad)
	ow := ConvOutSize(tc.w, tc.k, tc.stride, tc.pad)
	gm := randTensorOf[T](rng, tc.n*oh*ow, tc.f)
	wantY, wantDW, _ := oracleConv(x, w, bias, gm, tc.k, tc.stride, tc.pad)
	gotY, gotDW, _ := implicitConv(x, w, bias, gm, tc.k, tc.stride, tc.pad)
	if i, ok := bitsEqual(wantY, gotY); !ok {
		t.Fatalf("%+v: forward differs at %d: %v vs %v", tc, i, wantY.Data()[i], gotY.Data()[i])
	}
	if i, ok := bitsEqual(wantDW, gotDW); !ok {
		t.Fatalf("%+v: dW differs at %d: %v vs %v", tc, i, wantDW.Data()[i], gotDW.Data()[i])
	}
}
