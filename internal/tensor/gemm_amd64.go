//go:build amd64 && !purego

package tensor

import "unsafe"

// The production register tiles in SSE2 (gemm_amd64.s). SSE2 is the
// amd64 baseline, so neither kernel needs CPUID gating; the purego build
// tag swaps in gemm_noasm.go, which is how the bit-identity of assembly
// and scalar twins is tested end to end on an amd64 host.

// microKernel runs the production register tile for T over one packed
// micro-panel pair: 4×4 at float64, 8×4 at float32. Both kernels sum
// each output element in strictly ascending k order with one rounding
// per multiply and per add, exactly like their twins micro4x4 and
// micro8x4 (gemm.go).
//
// fedlint:hotpath
func microKernel[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	// Pointer reinterpretation, not conversion: the isF32 guard fixes T.
	// Pointers (rather than slices) keep the call free of
	// interface-boxing allocations on the hot path.
	if isF32[T]() {
		microF32SIMD(kc, (*float32)(unsafe.Pointer(&ap[0])), (*float32)(unsafe.Pointer(&bp[0])), (*float32)(unsafe.Pointer(&acc[0])))
		return
	}
	microF64SIMD(kc, (*float64)(unsafe.Pointer(&ap[0])), (*float64)(unsafe.Pointer(&bp[0])), (*float64)(unsafe.Pointer(&acc[0])))
}

// microKernelInd is microKernel with the A micro-panel read in place:
// a[r][l] = x[rowOff[r] + depthOff[l]] for the tile's mr rows (rowOff
// must hold mr entries, depthOff kc) against the packed B micro-panel bp
// — the SSE2 forms of microInd (gemm.go), on the schedule of the packed
// kernels.
//
// fedlint:hotpath
func microKernelInd[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T) {
	if isF32[T]() {
		microIndF32SIMD(kc, (*float32)(unsafe.Pointer(unsafe.SliceData(x))), unsafe.SliceData(rowOff), unsafe.SliceData(depthOff), (*float32)(unsafe.Pointer(unsafe.SliceData(bp))), (*float32)(unsafe.Pointer(&acc[0])))
		return
	}
	microIndF64SIMD(kc, (*float64)(unsafe.Pointer(unsafe.SliceData(x))), unsafe.SliceData(rowOff), unsafe.SliceData(depthOff), (*float64)(unsafe.Pointer(unsafe.SliceData(bp))), (*float64)(unsafe.Pointer(&acc[0])))
}

// microF32SIMD multiplies one packed A micro-panel (8×kc, column-major)
// by one packed B micro-panel (kc×4, row-major) into the 8×4 accumulator
// tile at acc (row stride 4, fully overwritten). At four-byte elements an
// XMM register holds one 4-wide row of the C tile, so the full block
// lives in 8 registers (MULPS + ADDPS, no FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF32SIMD(kc int, ap, bp, acc *float32)

// microF64SIMD multiplies one packed A micro-panel (4×kc, column-major)
// by one packed B micro-panel (kc×4, row-major) into the 4×4 accumulator
// tile at acc (row stride 4, fully overwritten). At eight-byte elements a
// row of the tile is two XMM registers of packed doubles, so the block
// again fills exactly 8 accumulators (MULPD + ADDPD, no FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF64SIMD(kc int, ap, bp, acc *float64)

// microIndF32SIMD is microF32SIMD with a[r][l] = x[rowOff[r]+depthOff[l]]
// (element offsets; 8 row offsets, kc depth offsets) in place of the
// packed A micro-panel. Nothing is bounds-checked: the offset tables are
// the caller's proof that every sum stays inside x.
//
// fedlint:hotpath
//
//go:noescape
func microIndF32SIMD(kc int, x *float32, rowOff, depthOff *int, bp, acc *float32)

// microIndF64SIMD is microF64SIMD with a[r][l] = x[rowOff[r]+depthOff[l]]
// (4 row offsets, kc depth offsets) in place of the packed A micro-panel.
//
// fedlint:hotpath
//
//go:noescape
func microIndF64SIMD(kc int, x *float64, rowOff, depthOff *int, bp, acc *float64)
