//go:build amd64 && !purego

package tensor

import "unsafe"

// The production register tiles in assembly (gemm_amd64.s), at two
// widths. SSE2 is the amd64 baseline and needs no gating; the 256-bit AVX
// kernels run where useAVX is set, and are the ones that can store
// through: write a first-panel tile into C themselves, epilogue included
// (microKernelTo, microKernelIndTo), instead of into an accumulator for
// mergeTile. The
// purego build tag swaps in gemm_noasm.go, which is how the bit-identity
// of assembly and scalar twins is tested end to end on an amd64 host.

// useAVX routes microKernel and microKernelInd to the 256-bit kernels,
// widens the float32 register tile to 8×8 (microTile) and lets gemmCell
// store tiles through. Decided once, when the package initialises, from
// what the CPU and the OS report; no flag, environment variable or build
// tag overrides it. Only tests write it afterwards, to run both kernel
// sets against each other on one host.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves the YMM
// state (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2).
func cpuHasAVX() bool

// microKernel runs the production register tile for T over one packed
// micro-panel pair into the accumulator: 4×4 at float64; 8×4 at float32,
// 8×8 with AVX. Every kernel sums each output element in strictly
// ascending k order with one rounding per multiply and per add, exactly
// like the twins micro4x4 and micro8x4 (gemm.go), so which one runs never
// shows in a result. To a 256-bit kernel the accumulator is a row-major
// C one tile wide on its first k-panel.
//
// fedlint:hotpath
func microKernel[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	// Pointer reinterpretation, not conversion: the isF32 guard fixes T.
	// Pointers (rather than slices) keep the call free of
	// interface-boxing allocations on the hot path.
	if isF32[T]() {
		a, b, c := (*float32)(unsafe.Pointer(&ap[0])), (*float32)(unsafe.Pointer(&bp[0])), (*float32)(unsafe.Pointer(&acc[0]))
		if useAVX {
			microF32AVX(kc, a, b, c, f32NRAVX, f32NRAVX, nil, 0)
		} else {
			microF32SIMD(kc, a, b, c)
		}
		return
	}
	a, b, c := (*float64)(unsafe.Pointer(&ap[0])), (*float64)(unsafe.Pointer(&bp[0])), (*float64)(unsafe.Pointer(&acc[0]))
	if useAVX {
		microF64AVX(kc, a, b, c, gemmNR, gemmNR, nil, 0)
	} else {
		microF64SIMD(kc, a, b, c)
	}
}

// microKernelInd is microKernel with the A micro-panel read in place:
// a[r][l] = x[rowOff[r] + depthOff[l]] for the tile's mr rows (rowOff
// must hold mr entries, depthOff kc) against the packed B micro-panel bp
// — the assembly forms of microInd (gemm.go), on the schedule of the
// packed kernels.
//
// fedlint:hotpath
func microKernelInd[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T) {
	ro, do := unsafe.SliceData(rowOff), unsafe.SliceData(depthOff)
	if isF32[T]() {
		xp, b, c := (*float32)(unsafe.Pointer(unsafe.SliceData(x))), (*float32)(unsafe.Pointer(unsafe.SliceData(bp))), (*float32)(unsafe.Pointer(&acc[0]))
		if useAVX {
			microIndF32AVX(kc, xp, ro, do, b, c, f32NRAVX, f32NRAVX, nil, 0)
		} else {
			microIndF32SIMD(kc, xp, ro, do, b, c)
		}
		return
	}
	xp, b, c := (*float64)(unsafe.Pointer(unsafe.SliceData(x))), (*float64)(unsafe.Pointer(unsafe.SliceData(bp))), (*float64)(unsafe.Pointer(&acc[0]))
	if useAVX {
		microIndF64AVX(kc, xp, ro, do, b, c, gemmNR, gemmNR, nil, 0)
	} else {
		microIndF64SIMD(kc, xp, ro, do, b, c)
	}
}

// microKernelTo is microKernel storing through: the 256-bit kernel
// writes its first-panel tile into C as to describes, with no
// accumulator and no mergeTile. Only where useAVX is set (gemmCell
// checks).
//
// fedlint:hotpath
func microKernelTo[T Float](kc int, ap, bp []T, to *tileDst[T]) {
	if isF32[T]() {
		microF32AVX(kc, (*float32)(unsafe.Pointer(&ap[0])), (*float32)(unsafe.Pointer(&bp[0])),
			(*float32)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float32)(unsafe.Pointer(to.bias)), to.flags)
		return
	}
	microF64AVX(kc, (*float64)(unsafe.Pointer(&ap[0])), (*float64)(unsafe.Pointer(&bp[0])),
		(*float64)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float64)(unsafe.Pointer(to.bias)), to.flags)
}

// microKernelIndTo is microKernelInd storing through.
//
// fedlint:hotpath
func microKernelIndTo[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, to *tileDst[T]) {
	ro, do := unsafe.SliceData(rowOff), unsafe.SliceData(depthOff)
	if isF32[T]() {
		microIndF32AVX(kc, (*float32)(unsafe.Pointer(unsafe.SliceData(x))), ro, do, (*float32)(unsafe.Pointer(unsafe.SliceData(bp))),
			(*float32)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float32)(unsafe.Pointer(to.bias)), to.flags)
		return
	}
	microIndF64AVX(kc, (*float64)(unsafe.Pointer(unsafe.SliceData(x))), ro, do, (*float64)(unsafe.Pointer(unsafe.SliceData(bp))),
		(*float64)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float64)(unsafe.Pointer(to.bias)), to.flags)
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

// The 256-bit kernels take a destination, not an accumulator: after the k
// loop the tile is written into C — which is not read — by the
// store-through tail of its width (microStoreF32AVX, microStoreF64AVX),
// through the epilogue if it has one. c points at the tile's first
// element; ld is the distance in elements between tile rows, or with
// tileTrans between tile columns (the rows being adjacent); nrv ≤ NR
// columns are valid; bias, when non-nil, points at the first tile
// column's entry; flags are the tile* bits of gemm.go. Nothing is
// bounds-checked, and nothing outside the MR×nrv elements is touched.

// microF32AVX is microF32SIMD at 256 bits: B micro-panel kc×8, an 8×8
// tile, one YMM register per C row (VBROADCASTSS + VMULPS + VADDPS, no
// FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF32AVX(kc int, ap, bp, c *float32, ld, nrv int, bias *float32, flags int)

// microF64AVX is microF64SIMD at 256 bits: the same 4×4 tile and panel
// layouts, one YMM register per C row (VBROADCASTSD + VMULPD + VADDPD, no
// FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF64AVX(kc int, ap, bp, c *float64, ld, nrv int, bias *float64, flags int)

// microIndF32AVX is microF32AVX with a[r][l] = x[rowOff[r]+depthOff[l]]
// (8 row offsets, kc depth offsets) in place of the packed A micro-panel.
//
// fedlint:hotpath
//
//go:noescape
func microIndF32AVX(kc int, x *float32, rowOff, depthOff *int, bp, c *float32, ld, nrv int, bias *float32, flags int)

// microIndF64AVX is microF64AVX with a[r][l] = x[rowOff[r]+depthOff[l]]
// (4 row offsets, kc depth offsets) in place of the packed A micro-panel.
//
// fedlint:hotpath
//
//go:noescape
func microIndF64AVX(kc int, x *float64, rowOff, depthOff *int, bp, c *float64, ld, nrv int, bias *float64, flags int)

// microStoreF32AVX and microStoreF64AVX are the store-through tails the
// 256-bit kernels jump to. Their arguments are registers (gemm_amd64.s):
// the declarations exist for vet and the linker, and Go never calls them.
func microStoreF32AVX()
func microStoreF64AVX()
