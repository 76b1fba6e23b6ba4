package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"testing"
)

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

// outputLog, when non-nil, receives every result the suite's tests hand
// to logOutput — TestKernelSetsByteIdentical replays them under each
// dispatch state and compares the digests.
var outputLog hash.Hash

// logOutput appends the bit patterns of the tensors to outputLog.
func logOutput[T Float](ts ...*TensorOf[T]) {
	if outputLog == nil {
		return
	}
	var buf [8]byte
	for _, t := range ts {
		for _, v := range t.data {
			binary.LittleEndian.PutUint64(buf[:], bits64(v))
			outputLog.Write(buf[:])
		}
	}
}

// testConvGeomSeeds runs FuzzConvGeom's seed corpus as a plain test.
func testConvGeomSeeds(t *testing.T) {
	for _, args := range convGeomSeeds() {
		tc, ok := convCaseFromFuzz(args)
		if !ok {
			continue
		}
		fuzzConvGeom[float64](t, tc, 1)
		fuzzConvGeom[float32](t, tc, 1)
	}
}

// TestKernelSetsByteIdentical replays the GEMM and convolution suites
// under each dispatch state and compares, per test, a digest of every
// output the test produced: the 256-bit kernels (and the 8×8 float32
// tile and the store-through that come with them) must not change one
// bit of any result the Go twins give. The replays are also how those
// suites run with the dispatch forced off at all — the top-level runs see
// the host's default.
func TestKernelSetsByteIdentical(t *testing.T) {
	states := kernelStates()
	if len(states) < 2 {
		t.Skip("one kernel set on this host and build: nothing to compare")
	}
	suite := []struct {
		name string
		run  func(*testing.T)
	}{
		{"BlockedMatchesNaiveProperty", TestBlockedMatchesNaiveProperty},
		{"BlockedMatchesNaiveMultiPanel", TestBlockedMatchesNaiveMultiPanel},
		{"BlockedTileEquivalence", TestBlockedTileEquivalence},
		{"GEMMEpilogueBias", TestGEMMEpilogueBias},
		{"GEMMEpilogueBiasReLU", TestGEMMEpilogueBiasReLU},
		{"GEMMBitIdenticalAcrossLanes", TestGEMMBitIdenticalAcrossLanes},
		{"GEMMBitIdenticalAcrossLanesF32", TestGEMMBitIdenticalAcrossLanesF32},
		{"MicroKernelMatchesTwin", TestMicroKernelMatchesTwin},
		{"MicroKernelIndMatchesTwin", TestMicroKernelIndMatchesTwin},
		{"ConvImplicitMatchesIm2ColOracle", TestConvImplicitMatchesIm2ColOracle},
		{"ConvImplicitBitIdenticalAcrossLanes", TestConvImplicitBitIdenticalAcrossLanes},
		{"ConvGradInputChunkBoundaries", TestConvGradInputChunkBoundaries},
		{"ConvPackersMatchIm2col", TestConvPackersMatchIm2col},
		{"ConvFusedLayoutsMatchOracle", TestConvFusedLayoutsMatchOracle},
		{"FuzzConvGeomSeeds", testConvGeomSeeds},
	}
	defer func() { outputLog = nil }()
	// The replays keep the subtest names test histories know them by:
	// "SSE2" is the state of an amd64 host without AVX, whatever runs there.
	label := map[bool]string{true: "AVX", false: "SSE2"}
	for _, tc := range suite {
		var sums [][]byte
		for _, avx := range states {
			outputLog = sha256.New()
			withKernels(avx, func() { t.Run(tc.name+"/"+label[avx], tc.run) })
			sums = append(sums, outputLog.Sum(nil))
		}
		if string(sums[0]) != string(sums[1]) {
			t.Errorf("%s: outputs under the AVX kernels and the Go twins differ (digests %x, %x)", tc.name, sums[0][:8], sums[1][:8])
		}
	}
}
