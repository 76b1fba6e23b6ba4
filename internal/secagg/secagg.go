// Package secagg implements pairwise-mask secure aggregation in the style
// of Bonawitz et al. (ACM CCS 2017), which the paper's system model relies
// on ("we can always resort to security protocols to protect the
// intermediate gradients", §IV-A). Each pair of clients (i, j) shares a
// seed; client i adds PRG(seed) to its update and client j subtracts it,
// so individual updates are masked but the server's sum is exact.
//
// Updates are quantized to fixed-point and masked with uint64 arithmetic,
// so cancellation is bit-exact (floating-point masking would not cancel).
// This implementation models the steady-state protocol round; dropout
// recovery via Shamir shares is out of scope and masked rounds abort if a
// participant is missing (Aggregate returns an error).
package secagg

import (
	"fmt"
	"math"
)

// DefaultScale is the fixed-point quantization scale (2^24 ≈ 7 decimal
// digits of fraction), chosen so that gradient-sized values (|w| < 100)
// survive a 10⁶-client sum without overflowing int64 range.
const DefaultScale = 1 << 24

// Group is a cohort of n clients with pairwise shared seeds, plus the
// quantization scale. It is the trusted-setup output; in production the
// seeds come from a Diffie–Hellman exchange brokered by the server.
type Group struct {
	N     int
	Scale float64
	seeds [][]uint64 // seeds[i][j] for i<j
}

// NewGroup creates a cohort of n clients with seeds derived from a master
// seed. n must be ≥ 1.
func NewGroup(n int, master uint64) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("secagg: group size %d", n)
	}
	g := &Group{N: n, Scale: DefaultScale, seeds: make([][]uint64, n)}
	st := master
	for i := 0; i < n; i++ {
		g.seeds[i] = make([]uint64, n)
		for j := i + 1; j < n; j++ {
			st = splitmix64(st)
			g.seeds[i][j] = st
		}
	}
	return g, nil
}

// splitmix64 is the SplitMix64 PRG step — deterministic, fast, and good
// enough to model the protocol (production uses AES-CTR).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prgStream fills out with the keystream of the given seed.
func prgStream(seed uint64, out []uint64) {
	s := seed
	for i := range out {
		s = splitmix64(s)
		out[i] = s
	}
}

// Mask quantizes client i's update and applies its pairwise masks,
// returning the masked fixed-point vector. Every client must mask a vector
// of identical length for the round to aggregate.
func (g *Group) Mask(i int, update []float64) ([]uint64, error) {
	if i < 0 || i >= g.N {
		return nil, fmt.Errorf("secagg: client %d out of range [0,%d)", i, g.N)
	}
	out := make([]uint64, len(update))
	for k, v := range update {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("secagg: non-finite update value at %d", k)
		}
		out[k] = uint64(int64(math.Round(v * g.Scale)))
	}
	stream := make([]uint64, len(update))
	for j := 0; j < g.N; j++ {
		if j == i {
			continue
		}
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		prgStream(g.seeds[lo][hi], stream)
		if i < j {
			for k := range out {
				out[k] += stream[k]
			}
		} else {
			for k := range out {
				out[k] -= stream[k]
			}
		}
	}
	return out, nil
}

// Aggregate sums masked updates from ALL group members and dequantizes.
// Masks cancel pairwise, so the result equals the plain sum of updates up
// to quantization error (≤ n/(2·Scale) per coordinate). Missing or extra
// participants leave masks uncancelled, so the count is enforced.
func (g *Group) Aggregate(masked [][]uint64) ([]float64, error) {
	if len(masked) != g.N {
		return nil, fmt.Errorf("secagg: got %d masked updates, group has %d members (dropout recovery not supported)", len(masked), g.N)
	}
	if g.N == 0 {
		return nil, fmt.Errorf("secagg: empty group")
	}
	length := len(masked[0])
	sum := make([]uint64, length)
	for i, m := range masked {
		if len(m) != length {
			return nil, fmt.Errorf("secagg: update %d has length %d, want %d", i, len(m), length)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	out := make([]float64, length)
	for k, v := range sum {
		out[k] = float64(int64(v)) / g.Scale
	}
	return out, nil
}
