//go:build !amd64 || purego

package tensor

// useAVX is the run-time kernel dispatch of the assembly build
// (gemm_amd64.go). Nothing sets it here: the Go twins are the one kernel
// set, float32 keeps its 8×4 tile, and every tile goes through the
// accumulator and mergeTile. Built on every non-amd64 target, and on amd64
// under the purego tag so the whole suite, goldens included, can be run
// against the twins on the host where the assembly normally runs.
var useAVX bool

// microKernelTo and microKernelIndTo are the entry points of the 256-bit
// assembly kernels. Their callers reach them only where useAVX is set,
// which is never on this build.
func microKernelTo[T Float](kc int, ap, bp []T, to *tileDst[T]) {
	panic("tensor: no assembly kernel on this build")
}

func microKernelIndTo[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, to *tileDst[T]) {
	panic("tensor: no assembly kernel on this build")
}
