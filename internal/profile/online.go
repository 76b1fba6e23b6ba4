package profile

import (
	"sync"

	"fedsched/internal/nn"
	"fedsched/internal/regress"
)

// OnlineProfile refines training-time predictions from measurements
// observed during real federated rounds — the paper's alternative to
// offline profiling ("this can be done either online through a
// bootstrapping phase or offline", §IV-B). It wraps an optional offline
// prior and overrides it with a per-architecture least-squares fit once
// enough live observations accumulate. Architectures are told apart by
// their (conv, dense) parameter split, as DeviceProfile.Line does: two
// models of one name (LeNet on 1×28×28 and on 3×32×32) are different
// workloads. Online observations capture what
// the offline cold-start profile cannot: sustained-operation thermal
// state.
type OnlineProfile struct {
	mu   sync.Mutex
	base *DeviceProfile
	obs  map[[2]int][]obsPoint
	fits map[[2]int]*regress.Model
	// MinObservations gates switching from the prior to the online fit.
	MinObservations int
}

type obsPoint struct {
	n       int
	seconds float64
}

// NewOnline wraps an (optional, may be nil) offline prior.
func NewOnline(base *DeviceProfile) *OnlineProfile {
	return &OnlineProfile{
		base:            base,
		obs:             make(map[[2]int][]obsPoint),
		fits:            make(map[[2]int]*regress.Model),
		MinObservations: 3,
	}
}

// Observe records a measured epoch: n samples of the architecture took the
// given number of seconds. Observations with non-positive n or time are
// ignored.
func (o *OnlineProfile) Observe(arch *nn.Arch, n int, seconds float64) {
	if n <= 0 || seconds <= 0 {
		return
	}
	key := archKey(arch)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.obs[key] = append(o.obs[key], obsPoint{n, seconds})
	delete(o.fits, key) // invalidate the cached fit
}

// Predict estimates the epoch time for n samples: the online fit once
// enough observations exist (and they span more than one data size),
// otherwise the offline prior, otherwise a mean-rate extrapolation of
// whatever observations exist.
func (o *OnlineProfile) Predict(arch *nn.Arch, n int) float64 {
	if n <= 0 {
		return 0
	}
	key := archKey(arch)
	o.mu.Lock()
	defer o.mu.Unlock()
	pts := o.obs[key]
	if len(pts) >= o.MinObservations && spansSizes(pts) {
		m, ok := o.fits[key]
		if !ok {
			m = fitPoints(pts)
			if m != nil {
				o.fits[key] = m
			}
		}
		if m != nil {
			v := m.Predict([]float64{float64(n)})
			if v > 0 {
				return v
			}
			return 0
		}
	}
	if o.base != nil {
		pred := o.base.Predict(arch, n)
		if len(pts) > 0 {
			// Too few (or size-degenerate) observations for a fit of our
			// own, but enough to detect drift: scale the prior by the
			// observed/predicted ratio. This is what lets the adaptive
			// controller react when a device degrades under a static
			// schedule that keeps feeding it one data size.
			obs, expect := 0.0, 0.0
			for _, p := range pts {
				obs += p.seconds
				expect += o.base.Predict(arch, p.n)
			}
			if expect > 0 {
				pred *= obs / expect
			}
		}
		return pred
	}
	if len(pts) > 0 {
		// Mean per-sample rate from the observations we do have.
		rate, total := 0.0, 0.0
		for _, p := range pts {
			rate += p.seconds
			total += float64(p.n)
		}
		return rate / total * float64(n)
	}
	return 0
}

// archKey is the (conv, dense) parameter split that identifies an
// architecture's workload.
func archKey(a *nn.Arch) [2]int {
	conv, dense := a.ParamCounts()
	return [2]int{conv, dense}
}

// spansSizes reports whether the observations cover more than one distinct
// data size (a one-size cloud cannot identify a slope).
func spansSizes(pts []obsPoint) bool {
	for _, p := range pts[1:] {
		if p.n != pts[0].n {
			return true
		}
	}
	return false
}

// fitPoints least-squares-fits seconds ~ n, clamping negative slopes to
// keep Property 1 (monotone costs).
func fitPoints(pts []obsPoint) *regress.Model {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.n)
		ys[i] = p.seconds
	}
	m, err := regress.FitSimple(xs, ys)
	if err != nil {
		return nil
	}
	if m.Coef[1] < 0 {
		m.Coef[1] = 0
	}
	return m
}
