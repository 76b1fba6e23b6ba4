package nn

import "math"

// LRSchedule maps a round/epoch index to a learning rate.
type LRSchedule func(step int) float64

// StepDecayLR halves (×factor) the rate every `every` steps.
func StepDecayLR(lr, factor float64, every int) LRSchedule {
	return func(step int) float64 {
		if every <= 0 {
			return lr
		}
		return lr * math.Pow(factor, float64(step/every))
	}
}

// CosineLR anneals from lr to floor over total steps.
func CosineLR(lr, floor float64, total int) LRSchedule {
	return func(step int) float64 {
		if total <= 0 || step >= total {
			return floor
		}
		return floor + float64((lr-floor)*0.5*(1+math.Cos(math.Pi*float64(step)/float64(total))))
	}
}
