//go:build !amd64 || purego

package tensor

// useAVX is the run-time kernel dispatch of the assembly build
// (gemm_amd64.go). Nothing sets it here: there is one kernel set, float32
// keeps its 8×4 tile, and every tile goes through the accumulator and
// mergeTile.
var useAVX bool

// microKernel runs the production register tile for T — 4×4 at float64,
// 8×4 at float32 — through the scalar twins of the assembly kernels in
// gemm_amd64.s. Built on every non-amd64 target, and on amd64 under the
// purego tag so the whole suite, goldens included, can be run against the
// twins on the host where the assembly normally runs.
//
// fedlint:hotpath
func microKernel[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	if isF32[T]() {
		micro8x4(kc, ap, bp, acc)
		return
	}
	micro4x4(kc, ap, bp, acc)
}

// microKernelInd is microKernel with the A micro-panel read in place,
// a[r][l] = x[rowOff[r] + depthOff[l]] for the len(rowOff) = MR rows of
// the tile, through the scalar twin of the indirect assembly kernels.
//
// fedlint:hotpath
func microKernelInd[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T) {
	microInd(kc, x, rowOff, depthOff, bp, acc)
}

// microKernelTo and microKernelIndTo are the store-through forms of the
// 256-bit assembly kernels. gemmCell reaches them only where useAVX is
// set, which is never on this build.
func microKernelTo[T Float](kc int, ap, bp []T, to *tileDst[T]) {
	panic("tensor: no store-through kernel on this build")
}

func microKernelIndTo[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, to *tileDst[T]) {
	panic("tensor: no store-through kernel on this build")
}
