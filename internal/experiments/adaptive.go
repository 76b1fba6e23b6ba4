package experiments

import (
	"fmt"
	"math"

	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/profile"
	"fedsched/internal/sched"
)

// The adaptive rescheduling controller behind ext-adaptive closes the loop
// between online profiling and scheduling: it observes actual per-round
// device times, feeds them to online profiles (paper §IV-B's bootstrapping
// alternative), and re-runs Fed-LBAP when reality drifts from the cost
// model — e.g. when a phone heats up in a pocket or its battery saver
// kicks in. The paper computes schedules from static offline profiles;
// this is the natural "future work" controller its Section VIII gestures
// at.

// adaptiveConfig drives the adaptive loop: Fed-LBAP over 100-sample
// shards, batches of 20.
type adaptiveConfig struct {
	Arch         *nn.Arch
	TotalSamples int
	Rounds       int
	// DriftThreshold is the relative per-device misprediction that
	// triggers a reschedule before the next round (e.g. 0.25 = 25%).
	// +Inf disables rescheduling (static baseline).
	DriftThreshold float64
}

const (
	adaptiveShard = 100
	adaptiveBatch = 20
)

func (c adaptiveConfig) withDefaults() adaptiveConfig {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.25
	}
	return c
}

// adaptiveRound reports one adaptive round.
type adaptiveRound struct {
	Round       int
	Makespan    float64
	Predicted   float64 // cost model's expectation for this round
	Rescheduled bool    // schedule recomputed before this round ran
	WorstDrift  float64 // max relative misprediction observed this round
}

// adaptiveResult summarizes an adaptive run.
type adaptiveResult struct {
	Records     []adaptiveRound
	Reschedules int
	TotalTime   float64
	Assignment  *sched.Assignment // final schedule in force
}

// runAdaptive executes cfg.Rounds synchronous rounds over the devices,
// re-profiling online and rescheduling on drift. Base profiles may be nil
// entries (pure-online learning from scratch is then used, bootstrapped by
// the first observed round under an equal split).
func runAdaptive(cfg adaptiveConfig, devs []*device.Device, links []network.Link, base []*profile.DeviceProfile) (*adaptiveResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil {
		return nil, fmt.Errorf("adaptive: no architecture")
	}
	n := len(devs)
	if n == 0 || len(links) != n || len(base) != n {
		return nil, fmt.Errorf("adaptive: %d devices, %d links, %d profiles", n, len(links), len(base))
	}

	online := make([]*profile.OnlineProfile, n)
	for j := range online {
		online[j] = profile.NewOnline(base[j])
	}
	buildRequest := func() *sched.Request {
		users := make([]*sched.User, n)
		for j := range users {
			p := online[j]
			users[j] = &sched.User{
				Name:        devs[j].Model,
				Cost:        func(s int) float64 { return p.Predict(cfg.Arch, s) },
				CommSeconds: links[j].RoundTripTime(cfg.Arch.SizeBytes()),
				MeanFreqGHz: devs[j].MeanFreqGHz(),
			}
		}
		return &sched.Request{
			TotalShards: cfg.TotalSamples / adaptiveShard,
			ShardSize:   adaptiveShard,
			Users:       users,
		}
	}

	asg, err := sched.FedLBAP{}.Schedule(buildRequest(), nil)
	if err != nil {
		return nil, err
	}
	res := &adaptiveResult{Assignment: asg}
	needReschedule := false

	for round := 0; round < cfg.Rounds; round++ {
		rec := adaptiveRound{Round: round}
		if needReschedule {
			newAsg, err := sched.FedLBAP{}.Schedule(buildRequest(), nil)
			if err == nil {
				asg = newAsg
				res.Assignment = newAsg
				res.Reschedules++
				rec.Rescheduled = true
			}
			needReschedule = false
		}
		samples := asg.Samples(adaptiveShard)
		times := make([]float64, n)
		for j, dev := range devs {
			if samples[j] <= 0 {
				continue
			}
			predicted := online[j].Predict(cfg.Arch, samples[j]) + links[j].RoundTripTime(cfg.Arch.SizeBytes())
			comp := dev.Train(cfg.Arch, samples[j], adaptiveBatch)
			obs := comp + links[j].RoundTripTime(cfg.Arch.SizeBytes())
			times[j] = obs
			online[j].Observe(cfg.Arch, samples[j], comp)
			if obs > rec.Makespan {
				rec.Makespan = obs
			}
			if predicted > rec.Predicted {
				rec.Predicted = predicted
			}
			if obs > 0 {
				if drift := math.Abs(obs-predicted) / obs; drift > rec.WorstDrift {
					rec.WorstDrift = drift
				}
			}
		}
		for j, dev := range devs {
			dev.Idle(rec.Makespan - times[j])
		}
		if rec.WorstDrift > cfg.DriftThreshold {
			needReschedule = true
		}
		res.Records = append(res.Records, rec)
		res.TotalTime += rec.Makespan
	}
	return res, nil
}
