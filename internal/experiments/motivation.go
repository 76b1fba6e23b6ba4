package experiments

import (
	"fmt"

	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
)

func init() {
	register("fig1", Fig1)
	register("tab2", Tab2)
}

// Fig1 reproduces Fig 1: per-batch training time traces for LeNet (a) and
// VGG6 (b) on the four devices, and the CPU frequency vs temperature
// interaction sampled every 5 s (c).
func Fig1(o Options) (*Report, error) {
	rep := &Report{ID: "fig1", Title: "Per-batch training time and frequency/temperature traces (paper Fig 1)"}
	// Time simulation is cheap; always run enough samples for the thermal
	// signatures to appear (the Nexus 6P trips after ~45 s of LeNet load).
	samples := 3000
	for _, model := range []string{"LeNet", "VGG6"} {
		arch := paperArch(model, mnistBench())
		tbl := &Table{
			Title:   fmt.Sprintf("(%s) per-batch time [s], batch=20, %d samples", model, samples),
			Columns: []string{"device", "batch10", "batch25", "batch50", "mean", "last", "max/min"},
		}
		for _, p := range []device.Profile{device.Nexus6(), device.Nexus6P(), device.Mate10(), device.Pixel2()} {
			d := device.New(p)
			_, trace := d.TrainSamples(arch, samples, 20)
			mean, min, max := 0.0, trace[0].Seconds, trace[0].Seconds
			for _, pt := range trace {
				mean += pt.Seconds
				if pt.Seconds < min {
					min = pt.Seconds
				}
				if pt.Seconds > max {
					max = pt.Seconds
				}
			}
			mean /= float64(len(trace))
			at := func(i int) float64 {
				if i >= len(trace) {
					i = len(trace) - 1
				}
				return trace[i].Seconds
			}
			tbl.AddRow(p.Model, at(9), at(24), at(49), mean, trace[len(trace)-1].Seconds, max/min)
		}
		rep.Tables = append(rep.Tables, tbl)
	}

	// (c) frequency vs temperature every 5 s on the thermally interesting
	// device (Nexus 6P running LeNet).
	d := device.New(device.Nexus6P())
	arch := paperArch("LeNet", mnistBench())
	_, trace := d.TrainSamples(arch, samples*3, 20)
	tbl := &Table{
		Title:   "(c) Nexus6P avg CPU frequency vs temperature (5 s samples)",
		Columns: []string{"t[s]", "freq[GHz]", "temp[C]", "big online"},
	}
	elapsed, next := 0.0, 0.0
	for _, pt := range trace {
		elapsed += pt.Seconds
		if elapsed >= next {
			tbl.AddRow(fmt.Sprintf("%.0f", elapsed), pt.FreqGHz, pt.TempC, pt.BigOnline)
			next += 5
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Expected shape: Nexus6P batch times jump after the thermal hard trip (big cores offline); others stabilize after governor ramp.",
	)
	return rep, nil
}

// Tab2 reproduces Table II: per-epoch training time (s) for 3K and 6K
// MNIST-class samples with the network communication share in parentheses,
// for WiFi and LTE.
func Tab2(o Options) (*Report, error) {
	rep := &Report{ID: "tab2", Title: "Training time of MNIST samples per epoch with communication share (paper Table II)"}
	paper := map[string]map[string][4]float64{ // model → device → paper epoch seconds
		"LeNet": {"Nexus6": {31, 32, 62, 63}, "Nexus6P": {69, 71, 220, 222}, "Mate10": {45, 47, 89, 91}, "Pixel2": {25, 27, 51, 53}},
		"VGG6":  {"Nexus6": {495, 539, 1021, 1065}, "Nexus6P": {540, 584, 1134, 1178}, "Mate10": {359, 403, 712, 756}, "Pixel2": {339, 383, 661, 705}},
	}
	for _, model := range []string{"LeNet", "VGG6"} {
		arch := paperArch(model, mnistBench())
		tbl := &Table{
			Title:   model,
			Columns: []string{"device", "3K WiFi", "3K LTE", "6K WiFi", "6K LTE", "paper(3K WiFi)", "paper(6K WiFi)"},
		}
		for _, p := range []device.Profile{device.Nexus6(), device.Nexus6P(), device.Mate10(), device.Pixel2()} {
			cells := []interface{}{p.Model}
			for _, n := range []int{3000, 6000} {
				comp := device.New(p).ColdEpochTime(arch, n)
				for _, link := range []network.Link{network.WiFi(), network.LTE()} {
					comm := link.RoundTripTime(arch.SizeBytes())
					total := comp + comm
					cells = append(cells, fmt.Sprintf("%.0f(%.1f%%)", total, 100*comm/total))
				}
			}
			pv := paper[model][p.Model]
			cells = append(cells, fmt.Sprintf("%.0f", pv[0]), fmt.Sprintf("%.0f", pv[2]))
			tbl.AddRow(cells...)
		}
		rep.Tables = append(rep.Tables, tbl)
	}
	rep.Notes = append(rep.Notes,
		"Communication share uses model payloads of "+
			fmt.Sprintf("%.1f MB (LeNet) and %.1f MB (VGG6), matching the paper's 2.5/65.4 MB.",
				float64(nn.LeNet(1, 28, 28, 10).SizeBytes())/1e6,
				float64(nn.VGG6(1, 28, 28, 10).SizeBytes())/1e6),
	)
	return rep, nil
}
