package data

import (
	"math"
	"math/rand"

	"fedsched/internal/tensor"
)

// Synthetic dataset generators. Real MNIST/CIFAR10 cannot be downloaded in
// an offline module, so we substitute deterministic class-structured image
// distributions (documented in DESIGN.md §2):
//
//   - SMNIST: 16×16×1, well-separated smooth class prototypes with mild
//     noise and jitter. Small CNNs reach high (≳0.95) accuracy — it plays
//     the role of MNIST ("easy" dataset).
//   - SCIFAR: 16×16×3, class prototypes that share a common background
//     component and stronger per-sample noise/occlusion, so classes
//     overlap. Small CNNs plateau well below 1.0 — it plays the role of
//     CIFAR10 ("hard" dataset).
//
// Both are generated from explicit seeds, so every experiment is
// reproducible bit-for-bit.

// GenConfig controls synthetic dataset generation.
type GenConfig struct {
	Name     string
	N        int // number of samples
	C, H, W  int
	Classes  int
	Seed     int64
	Noise    float64 // additive Gaussian noise std
	Shared   float64 // weight of the class-shared background component
	Jitter   int     // max translation in pixels
	Occlude  float64 // probability of a random occlusion patch per sample
	ProtoAmp float64 // prototype amplitude
	Blobs    int     // Gaussian blobs per class prototype
}

// SMNISTConfig returns the standard configuration for the MNIST stand-in.
func SMNISTConfig(n int, seed int64) GenConfig {
	return GenConfig{
		Name: "SMNIST", N: n, C: 1, H: 16, W: 16, Classes: 10, Seed: seed,
		Noise: 0.25, Shared: 0, Jitter: 1, Occlude: 0, ProtoAmp: 1.0, Blobs: 3,
	}
}

// SCIFARConfig returns the standard configuration for the CIFAR10 stand-in.
func SCIFARConfig(n int, seed int64) GenConfig {
	return GenConfig{
		Name: "SCIFAR", N: n, C: 3, H: 16, W: 16, Classes: 10, Seed: seed,
		Noise: 0.6, Shared: 0.7, Jitter: 2, Occlude: 0.3, ProtoAmp: 0.8, Blobs: 4,
	}
}

// SMNIST generates n samples of the MNIST stand-in with the given seed.
func SMNIST(n int, seed int64) *Dataset { return Generate(SMNISTConfig(n, seed)) }

// SCIFAR generates n samples of the CIFAR10 stand-in with the given seed.
func SCIFAR(n int, seed int64) *Dataset { return Generate(SCIFARConfig(n, seed)) }

// prototypes builds one smooth per-class pattern per (class, channel); the
// prototype RNG depends only on cfg.Seed so train/test splits generated
// with different sample seeds share the same class structure when callers
// derive both from one base seed.
func prototypes(cfg GenConfig) [][]float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sz := cfg.C * cfg.H * cfg.W
	// Shared background component (SCIFAR): all classes sit on it, which
	// makes them overlap the way natural-image classes do.
	shared := make([]float64, sz)
	fillBlobs(rng, shared, cfg.C, cfg.H, cfg.W, cfg.Blobs, cfg.ProtoAmp)

	protos := make([][]float64, cfg.Classes)
	for k := range protos {
		p := make([]float64, sz)
		fillBlobs(rng, p, cfg.C, cfg.H, cfg.W, cfg.Blobs, cfg.ProtoAmp)
		for i := range p {
			p[i] = float64(cfg.Shared*shared[i]) + float64(float64((1-cfg.Shared)*p[i])*2)
		}
		protos[k] = p
	}
	return protos
}

// fillBlobs adds a few randomly-placed 2-D Gaussian bumps per channel.
// Every product is converted before it meets an add or subtract — Float64
// itself ends in a multiply — so no compiler fuses the pair (`make nofma`).
func fillBlobs(rng *rand.Rand, dst []float64, c, h, w, blobs int, amp float64) {
	for ch := 0; ch < c; ch++ {
		for b := 0; b < blobs; b++ {
			cy := float64(rng.Float64() * float64(h))
			cx := float64(rng.Float64() * float64(w))
			sigma := 1.5 + float64(rng.Float64()*2.5)
			a := amp * (0.5 + float64(rng.Float64()))
			if rng.Intn(2) == 0 {
				a = -a
			}
			inv := 1 / (2 * sigma * sigma)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy, dx := float64(y)-cy, float64(x)-cx
					dst[(ch*h+y)*w+x] += float64(a * math.Exp(-(float64(dy*dy)+float64(dx*dx))*inv))
				}
			}
		}
	}
}

// Generate produces a synthetic dataset per cfg. Samples are evenly spread
// over classes (n mod classes extra samples go to the lowest classes).
func Generate(cfg GenConfig) *Dataset {
	protos := prototypes(cfg)
	// Sample RNG differs from the prototype RNG so that two datasets with
	// the same Seed but different N still share class structure.
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(cfg.N)))
	ds := &Dataset{
		Name: cfg.Name, C: cfg.C, H: cfg.H, W: cfg.W, Classes: cfg.Classes,
		X:      tensor.New(cfg.N, cfg.C, cfg.H, cfg.W),
		Labels: make([]int, cfg.N),
	}
	sz := cfg.C * cfg.H * cfg.W
	xd := ds.X.Data()
	for i := 0; i < cfg.N; i++ {
		k := i % cfg.Classes
		ds.Labels[i] = k
		out := xd[i*sz : (i+1)*sz]
		dy := 0
		dx := 0
		if cfg.Jitter > 0 {
			dy = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
			dx = rng.Intn(2*cfg.Jitter+1) - cfg.Jitter
		}
		gain := 1 + float64(0.1*rng.NormFloat64())
		proto := protos[k]
		for ch := 0; ch < cfg.C; ch++ {
			for y := 0; y < cfg.H; y++ {
				sy := y + dy
				for x := 0; x < cfg.W; x++ {
					sx := x + dx
					v := 0.0
					if sy >= 0 && sy < cfg.H && sx >= 0 && sx < cfg.W {
						v = proto[(ch*cfg.H+sy)*cfg.W+sx]
					}
					out[(ch*cfg.H+y)*cfg.W+x] = float64(gain*v) + float64(cfg.Noise*rng.NormFloat64())
				}
			}
		}
		if cfg.Occlude > 0 && rng.Float64() < cfg.Occlude {
			oy, ox := rng.Intn(cfg.H-4), rng.Intn(cfg.W-4)
			for ch := 0; ch < cfg.C; ch++ {
				for y := oy; y < oy+4; y++ {
					for x := ox; x < ox+4; x++ {
						out[(ch*cfg.H+y)*cfg.W+x] = 0
					}
				}
			}
		}
	}
	// A global shuffle so class labels are not periodic in index order.
	ds.Shuffle(rng)
	return ds
}

// TrainTest generates a train/test pair with shared class prototypes and
// disjoint sample randomness.
func TrainTest(cfg GenConfig, trainN, testN int) (train, test *Dataset) {
	c1 := cfg
	c1.N = trainN
	train = Generate(c1)
	c2 := cfg
	c2.N = testN
	test = Generate(c2)
	return train, test
}
