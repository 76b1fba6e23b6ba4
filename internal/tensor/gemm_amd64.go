//go:build amd64 && !purego

package tensor

import "unsafe"

// The register tiles in assembly (gemm_amd64.s): 256-bit AVX kernels, run
// where useAVX is set, that write a tile where a tileDst says — a
// first-panel tile into C itself, epilogue included, or any tile into the
// accumulator mergeTile finishes (microKernel and microKernelInd in
// gemm.go hand them a one-tile C). A host without AVX runs the Go twins,
// like every other target; the purego build tag swaps in gemm_noasm.go,
// which is how the bit-identity of assembly and twins is tested end to end
// where the assembly normally runs.

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

// microKernelTo runs the 256-bit register tile for T — 4×4 at float64,
// 8×8 at float32 — over one packed micro-panel pair and writes it as to
// describes. Only where useAVX is set (the callers check).
//
// fedlint:hotpath
func microKernelTo[T Float](kc int, ap, bp []T, to *tileDst[T]) {
	// Pointer reinterpretation, not conversion: the isF32 guard fixes T.
	// Pointers (rather than slices) keep the call free of
	// interface-boxing allocations on the hot path.
	if isF32[T]() {
		microF32AVX(kc, (*float32)(unsafe.Pointer(&ap[0])), (*float32)(unsafe.Pointer(&bp[0])),
			(*float32)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float32)(unsafe.Pointer(to.bias)), to.flags)
		return
	}
	microF64AVX(kc, (*float64)(unsafe.Pointer(&ap[0])), (*float64)(unsafe.Pointer(&bp[0])),
		(*float64)(unsafe.Pointer(to.c)), to.ld, to.nrv, (*float64)(unsafe.Pointer(to.bias)), to.flags)
}

// microKernelIndTo is microKernelTo with the A micro-panel read in place:
// a[r][l] = x[rowOff[r] + depthOff[l]] for the tile's mr rows (rowOff
// must hold mr entries, depthOff kc).
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

// The 256-bit kernels take a destination, not an accumulator: after the k
// loop the tile is written into C — which is not read — by the
// store-through tail of its width (microStoreF32AVX, microStoreF64AVX),
// through the epilogue if it has one. c points at the tile's first
// element; ld is the distance in elements between tile rows, or with
// tileTrans between tile columns (the rows being adjacent); nrv ≤ NR
// columns are valid; bias, when non-nil, points at the first tile
// column's entry; flags are the tile* bits of gemm.go. Nothing is
// bounds-checked, and nothing outside the MR×nrv elements is touched.

// microF32AVX multiplies one packed A micro-panel (8×kc, column-major) by
// one packed B micro-panel (kc×8, row-major) into an 8×8 tile, one YMM
// register per C row (VBROADCASTSS + VMULPS + VADDPS, no FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF32AVX(kc int, ap, bp, c *float32, ld, nrv int, bias *float32, flags int)

// microF64AVX multiplies one packed A micro-panel (4×kc, column-major) by
// one packed B micro-panel (kc×4, row-major) into a 4×4 tile, one YMM
// register per C row (VBROADCASTSD + VMULPD + VADDPD, no FMA).
//
// fedlint:hotpath
//
//go:noescape
func microF64AVX(kc int, ap, bp, c *float64, ld, nrv int, bias *float64, flags int)

// microIndF32AVX is microF32AVX with a[r][l] = x[rowOff[r]+depthOff[l]]
// (element offsets; 8 row offsets, kc depth offsets) in place of the
// packed A micro-panel. The offset tables are the caller's proof that
// every sum stays inside x.
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
