package tensor

// Kernel dispatch under test. useAVX is fixed at package initialisation
// in production; the helpers here are the only writers after that, and
// they only ever move it between states the host can run.

// kernelStates lists the dispatch states of this host and build: the one
// the package initialised to and, where that is the 256-bit assembly, the
// Go twins a host without AVX runs. One state — the twins — under purego,
// on other architectures and on an amd64 host without AVX.
func kernelStates() []bool {
	if useAVX {
		return []bool{true, false}
	}
	return []bool{false}
}

// kernelSetName names a dispatch state in test output.
func kernelSetName(avx bool) string {
	if avx {
		return "AVX"
	}
	return "twin"
}

// withKernels runs f with the dispatch set to avx and restores it. No
// GEMM may be in flight around the call: lanes read useAVX unsynchronised.
func withKernels(avx bool, f func()) {
	old := useAVX
	useAVX = avx
	defer func() { useAVX = old }()
	f()
}
