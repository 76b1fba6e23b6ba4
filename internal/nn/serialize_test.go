package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedsched/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	arch := LeNetSmall(1, 16, 16, 10)
	src := arch.Build(rng)
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	dst := arch.Build(rng) // different random init
	if err := dst.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 3, 1, 16, 16)
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	if !tensor.Equal(a, b, 0) {
		t.Fatal("loaded network disagrees bit-for-bit with saved network")
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := LeNetSmall(1, 16, 16, 10).Build(rng)
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	other := VGG6Small(1, 16, 16, 10).Build(rng)
	err := other.LoadWeights(&buf)
	if err == nil || !strings.Contains(err.Error(), "checkpoint is for") {
		t.Fatalf("wrong-arch load: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net := LeNetSmall(1, 16, 16, 10).Build(rng)
	if err := net.LoadWeights(bytes.NewReader([]byte("not a checkpoint at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := net.LoadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	arch := LeNetSmall(1, 16, 16, 10)
	src := arch.Build(rng)
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	dst := arch.Build(rng)
	half := buf.Bytes()[:buf.Len()/2]
	if err := dst.LoadWeights(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestLoadRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	arch := MLP(4, 3, 2)
	src := arch.Build(rng)
	src.Params()[0].W.Data()[0] = math.NaN()
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	dst := arch.Build(rng)
	if err := dst.LoadWeights(&buf); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

// referenceSaveWeights is the encoder SaveWeights had before the bulk
// AppendWeights: one reflection-driven binary.Write per header word and
// per weight. The two must agree byte for byte.
func referenceSaveWeights[T tensor.Float](n *NetworkOf[T], w *bytes.Buffer) {
	put := func(v any) { binary.Write(w, binary.LittleEndian, v) }
	put(uint32(checkpointMagic))
	put(uint32(checkpointVersion))
	put(checkpointDtype[T]())
	put(uint32(len(n.Arch)))
	w.WriteString(n.Arch)
	put(uint32(len(n.Params())))
	for _, p := range n.Params() {
		put(uint32(p.W.Len()))
		for _, v := range p.W.Data() {
			put(v)
		}
	}
}

func testSaveWeightsGolden[T tensor.Float](t *testing.T, wantLen int, wantSum string) {
	net := BuildNetwork[T](LeNetSmall(1, 16, 16, 10), rand.New(rand.NewSource(41)))
	// Exercise the bit patterns an encoder could mangle.
	d := net.Params()[0].W.Data()
	d[0], d[1], d[2] = T(math.Copysign(0, -1)), T(math.SmallestNonzeroFloat32), T(math.Inf(-1))
	var want, got bytes.Buffer
	referenceSaveWeights(net, &want)
	if err := net.SaveWeights(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SaveWeights differs from the reference encoder (%d vs %d bytes)", got.Len(), want.Len())
	}
	// Appending onto a prefix leaves the prefix alone and adds the same bytes.
	if b := net.AppendWeights([]byte("prefix")); !bytes.Equal(b[6:], want.Bytes()) || string(b[:6]) != "prefix" {
		t.Fatal("AppendWeights onto a non-empty slice differs from SaveWeights")
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got.Bytes())); got.Len() != wantLen || sum != wantSum {
		t.Fatalf("format drifted: %d bytes, sha256 %s; want %d, %s", got.Len(), sum, wantLen, wantSum)
	}
}

// TestSaveWeightsGolden pins the on-disk weight format at both element
// widths: against the pre-bulk reference encoder, and against a fixed
// digest of a fixed-seed LeNet-S so that both cannot drift together.
func TestSaveWeightsGolden(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		testSaveWeightsGolden[float64](t, 38539, "c731027da92341f1d4a89568d2032cee5a224b964f6767ab60ac9cc423f7688e")
	})
	t.Run("f32", func(t *testing.T) {
		testSaveWeightsGolden[float32](t, 19299, "7af093c9695f7b1f85101d71d0cc14da6853c731939285c8bbbab89f774e9212")
	})
}
