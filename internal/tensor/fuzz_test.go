package tensor

import (
	"slices"
	"testing"
)

// FuzzConvGeom searches the geometry space the conformance table's
// convolution rows sample: for any (n, c, h, w, f, k, stride, pad) and
// seed, conform holds every convolution entry point — forward, fused
// ReLU, dW and dX, in both layouts and both precisions — to the im2col
// oracle bit for bit, to directConv and to the adjoint identities, and
// the lanes to each other where the geometry fans out: offset tables,
// zero border, tile slack, the dWᵀ write-back, the dX chunks and
// one-tile shapes included. The seed corpus runs as the table's
// FuzzConvGeomSeeds row.
func FuzzConvGeom(f *testing.F) {
	for _, a := range convGeomSeeds() {
		f.Add(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], int64(1))
	}
	f.Fuzz(func(t *testing.T, n, c, h, w, nf, k, stride, pad uint8, seed int64) {
		tc, ok := convCaseFromFuzz([8]uint8{n, c, h, w, nf, k, stride, pad})
		if !ok {
			t.Skip("kernel larger than the padded input")
		}
		// A seed input shares its outputs and its pass with the table.
		in := instance{cv: tc, seed: seed}
		keep := seed == 1 && slices.Contains(fuzzSeedCases(), tc)
		conform[float64](t, in, defaultState(), keep)
		conform[float32](t, in, defaultState(), keep)
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
