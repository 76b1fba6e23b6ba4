// Package sample is the client-sampling layer for population-scale
// federated rounds. The paper's setting is millions of battery-powered
// phones, but only a small cohort participates in any synchronous round
// (cf. Shi et al. 2019 on device scheduling with client sampling); a
// Sampler picks that cohort deterministically from a seed so traces and
// histories stay bit-identical across runs and worker counts.
//
// Both built-in samplers are O(cohort) in time and memory per round:
// Uniform uses Floyd's sampling algorithm, Availability rejection-samples
// from hashed per-client daily windows. Neither touches per-client state
// for clients outside the cohort, which is what lets the round loop in
// internal/fl hold O(selected) rather than O(population) memory.
package sample

import (
	"math/bits"
	"sort"
)

// Sampler selects the participating cohort for each round.
//
// Cohort fills dst (resliced as needed) with the selected client indices
// in strictly ascending order and returns the filled slice. It must be
// deterministic: the same sampler state and round always produce the same
// cohort, independent of previous calls. Implementations must not retain
// dst. A cohort may be smaller than CohortSize (e.g. when too few clients
// are available) but never larger.
type Sampler interface {
	// Name identifies the sampling policy (diagnostics only).
	Name() string
	// Cohort writes the round's selected client indices into dst,
	// ascending and deduplicated, and returns the filled slice.
	Cohort(round int, dst []int) []int
	// Population returns the total number of selectable clients.
	Population() int
	// CohortSize returns the maximum cohort size, for scratch sizing.
	CohortSize() int
}

// splitmix64 is the SplitMix64 mixing function: a tiny, allocation-free,
// statistically solid PRNG step. Used instead of math/rand so sampling
// needs no per-round allocation and no global generator (fedlint nondet).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ state uint64 }

// next returns the next 64 random bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift
// reduction (debiased).
func (r *rng) intn(n int) int {
	bound := uint64(n)
	hi, lo := bits.Mul64(r.next(), bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), bound)
		}
	}
	return int(hi)
}

// sized returns dst resliced to length n, reallocating only when the
// capacity is insufficient. Steady-state calls with a pre-sized dst are
// allocation-free.
func sized(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// Uniform samples a fixed-size cohort uniformly without replacement.
type Uniform struct {
	// N is the population size; K the cohort size per round.
	N, K int
	// Seed fixes the sampling stream. Rounds draw independent cohorts
	// derived from (Seed, round), so Cohort is stateless across rounds.
	Seed int64

	set map[int]struct{} // scratch, reused across rounds
}

// NewUniform returns a uniform without-replacement sampler selecting k of
// n clients each round.
func NewUniform(n, k int, seed int64) *Uniform {
	if k > n {
		k = n
	}
	return &Uniform{N: n, K: k, Seed: seed, set: make(map[int]struct{}, k)}
}

// Name implements Sampler.
func (u *Uniform) Name() string { return "uniform" }

// Population implements Sampler.
func (u *Uniform) Population() int { return u.N }

// CohortSize implements Sampler.
func (u *Uniform) CohortSize() int { return u.K }

// Cohort implements Sampler using Floyd's algorithm: k draws, O(k)
// memory, no pass over the population. Steady-state allocation-free (the
// scratch set is reused and dst is pre-sized by the caller).
//
// fedlint:hotpath
// fedlint:deterministic
func (u *Uniform) Cohort(round int, dst []int) []int {
	k := u.K
	if k >= u.N {
		// Whole population participates: identity cohort.
		dst = sized(dst, u.N)
		for i := range dst {
			dst[i] = i
		}
		return dst
	}
	if u.set == nil {
		u.set = make(map[int]struct{}, k)
	}
	clear(u.set)
	r := rng{state: splitmix64(uint64(u.Seed)) ^ splitmix64(uint64(round)*0x9e3779b97f4a7c15+1)}
	dst = sized(dst, k)
	idx := 0
	for i := u.N - k; i < u.N; i++ {
		j := r.intn(i + 1)
		if _, taken := u.set[j]; taken {
			j = i
		}
		u.set[j] = struct{}{}
		dst[idx] = j
		idx++
	}
	sort.Ints(dst)
	return dst
}

// Availability samples uniformly among the clients whose daily
// availability window contains the round's wall-clock time — the
// charging/idle-window eligibility model of production FL systems. Each
// client's window start is a deterministic hash of (Seed, id), so
// eligibility needs no per-client state. The simulated wall clock
// advances 1 h per round.
type Availability struct {
	// N is the population size; K the target cohort size per round.
	N, K int
	// Seed fixes both the per-client windows and the sampling stream.
	Seed int64
	// WindowHours is each client's daily availability span (default 6).
	WindowHours float64

	set map[int]struct{} // scratch, reused across rounds
}

// NewAvailability returns an availability-window sampler selecting up to
// k of n clients each round, with 6-hour windows advancing 1 h per round.
func NewAvailability(n, k int, seed int64) *Availability {
	if k > n {
		k = n
	}
	return &Availability{N: n, K: k, Seed: seed, WindowHours: 6, set: make(map[int]struct{}, k)}
}

// Name implements Sampler.
func (a *Availability) Name() string { return "availability" }

// Population implements Sampler.
func (a *Availability) Population() int { return a.N }

// CohortSize implements Sampler.
func (a *Availability) CohortSize() int { return a.K }

// windowStart returns client id's daily window start in [0, 24) hours.
func (a *Availability) windowStart(id int) float64 {
	h := splitmix64(uint64(a.Seed)*0x9e3779b97f4a7c15 + uint64(id) + 1)
	return float64(h%(24*3600)) / 3600
}

// clockHours returns the simulated time-of-day for a round, in [0, 24).
func (a *Availability) clockHours(round int) float64 {
	t := float64(round)
	t -= float64(24 * float64(int(t/24)))
	return t
}

// Eligible reports whether client id's availability window contains the
// round's simulated time-of-day (circular containment over 24 h).
//
// fedlint:hotpath
func (a *Availability) Eligible(id, round int) bool {
	w := a.WindowHours
	if w <= 0 {
		w = 6
	}
	if w >= 24 {
		return true
	}
	start := a.windowStart(id)
	t := a.clockHours(round)
	d := t - start
	if d < 0 {
		d += 24
	}
	return d < w
}

// Cohort implements Sampler by rejection sampling: uniform draws from the
// population, keeping the eligible ones. Draws are capped, so a round may
// return fewer than K clients when eligibility is scarce — callers must
// handle short (even empty) cohorts. O(K) memory; steady-state
// allocation-free.
//
// fedlint:hotpath
// fedlint:deterministic
func (a *Availability) Cohort(round int, dst []int) []int {
	k := a.K
	if k > a.N {
		k = a.N
	}
	if a.set == nil {
		a.set = make(map[int]struct{}, k)
	}
	clear(a.set)
	r := rng{state: splitmix64(uint64(a.Seed)+0x6a09e667f3bcc909) ^ splitmix64(uint64(round)*0xbb67ae8584caa73b+1)}
	dst = sized(dst, k)
	idx := 0
	// With 6/24-hour windows ~25% of draws are eligible; 16k + 64 draws
	// make a short cohort overwhelmingly unlikely at practical sizes while
	// bounding the worst case.
	for draws := 0; idx < k && draws < 16*k+64; draws++ {
		j := r.intn(a.N)
		if _, taken := a.set[j]; taken {
			continue
		}
		if !a.Eligible(j, round) {
			continue
		}
		a.set[j] = struct{}{}
		dst[idx] = j
		idx++
	}
	dst = dst[:idx]
	sort.Ints(dst)
	return dst
}
