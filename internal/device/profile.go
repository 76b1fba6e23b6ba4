// Package device simulates battery-powered Android phones running on-device
// training. It substitutes for the paper's physical testbed (Nexus 6,
// Nexus 6P, Mate 10, Pixel 2): big.LITTLE core clusters, an interactive-style
// DVFS governor, an RC thermal model with soft throttling and hard trips
// (big-cluster shutdown, the Snapdragon 810 pathology), and an energy
// account. Profiles are calibrated so that simulated per-epoch times
// reproduce Table II of the paper within a few percent, including the
// Nexus 6P's superlinear slowdown on longer epochs.
package device

import "fmt"

// CoreCluster describes one CPU cluster of an asymmetric SoC.
type CoreCluster struct {
	Name       string
	Cores      int
	MaxFreqGHz float64
	Big        bool
}

// Profile is the static description of a phone model. Throughput anchors
// express the device's *effective* training throughput (GFLOP/s at full
// frequency) at two workload intensities: a light model (LeNet-class,
// ~10 MFLOPs/sample training cost) and a heavy model (VGG-class,
// ~200 MFLOPs/sample). Real phones are not FLOP-proportional across model
// sizes (cache behaviour, BLAS kernel efficiency), which is exactly the
// paper's Observation 1; interpolating between two measured anchors
// captures that.
type Profile struct {
	Model    string
	SoC      string
	Clusters []CoreCluster

	// Throughput anchors (GFLOP/s at max frequency, thermally cold).
	TputSmall, TputLarge float64
	// AnchorSmall/AnchorLarge are the per-sample *training* FLOP costs the
	// anchors correspond to.
	AnchorSmall, AnchorLarge float64

	// Utilization at each anchor (0..1]: the fraction of peak power the
	// workload draws. Heavy models on weak memory systems underutilize the
	// big cores (paper §III-A, Observation 2).
	UtilSmall, UtilLarge float64

	// Thermal RC model: dT/dt = (P − Cooling·(T − Ambient)) / ThermalMass.
	ThermalMassJPerC float64 // J/°C
	CoolingWPerC     float64 // W/°C
	AmbientC         float64
	PeakWatts        float64 // package power at full utilization & frequency

	// SoftTripC caps the frequency factor at ThrottleFactor when exceeded.
	SoftTripC      float64
	ThrottleFactor float64
	// HardTripC takes the big cluster offline (throughput × BigOffFactor)
	// until the temperature falls below HardTripC − HysteresisC.
	// Zero disables the hard trip.
	HardTripC    float64
	BigOffFactor float64
	HysteresisC  float64

	// Governor ramp: the interactive governor reaches full clock over
	// roughly this many seconds of sustained load.
	RampSeconds float64

	// BatteryJ is the usable battery energy (J) for energy accounting.
	BatteryJ float64
}

// String implements fmt.Stringer.
func (p Profile) String() string { return fmt.Sprintf("%s (%s)", p.Model, p.SoC) }

// MeanFreqGHz returns the mean per-core maximum frequency, the quantity the
// paper's "Proportional" baseline scheduler uses as its notion of
// processing power.
func (p Profile) MeanFreqGHz() float64 {
	cores, sum := 0, 0.0
	for _, c := range p.Clusters {
		cores += c.Cores
		sum += float64(float64(c.Cores) * c.MaxFreqGHz)
	}
	if cores == 0 {
		return 0
	}
	return sum / float64(cores)
}

// Nexus6 returns the Nexus 6 profile (Snapdragon 805, 4×2.7 GHz,
// symmetric). Old but strong at small kernels: Table II shows it beating
// Mate 10 on LeNet (Observation 1).
func Nexus6() Profile {
	return Profile{
		Model: "Nexus6", SoC: "Snapdragon 805",
		Clusters:  []CoreCluster{{Name: "krait", Cores: 4, MaxFreqGHz: 2.7, Big: true}},
		TputSmall: 1.06, TputLarge: 1.25,
		AnchorSmall: anchorSmallFlops, AnchorLarge: anchorLargeFlops,
		UtilSmall: 0.85, UtilLarge: 0.95,
		ThermalMassJPerC: 45, CoolingWPerC: 0.45, AmbientC: 25, PeakWatts: 8.0,
		SoftTripC: 40, ThrottleFactor: 0.93,
		HardTripC: 0, BigOffFactor: 1, HysteresisC: 3,
		RampSeconds: 2, BatteryJ: 3220 * 3.85 * 3.6, // 3220 mAh
	}
}

// Nexus6P returns the Nexus 6P profile (Snapdragon 810, 4×1.55 + 4×2.0 GHz
// big.LITTLE). The 810's notorious heat problems make the big cluster trip
// offline under sustained load, so epoch time grows superlinearly with data
// size (Table II: 69 s for 3K LeNet samples but 220 s for 6K).
func Nexus6P() Profile {
	return Profile{
		Model: "Nexus6P", SoC: "Snapdragon 810",
		Clusters: []CoreCluster{
			{Name: "a53", Cores: 4, MaxFreqGHz: 1.55},
			{Name: "a57", Cores: 4, MaxFreqGHz: 2.0, Big: true},
		},
		TputSmall: 0.60, TputLarge: 1.16,
		AnchorSmall: anchorSmallFlops, AnchorLarge: anchorLargeFlops,
		UtilSmall: 1.0, UtilLarge: 0.60,
		ThermalMassJPerC: 12, CoolingWPerC: 0.32, AmbientC: 25, PeakWatts: 10.0,
		SoftTripC: 43, ThrottleFactor: 0.97,
		HardTripC: 47, BigOffFactor: 0.36, HysteresisC: 15,
		RampSeconds: 2, BatteryJ: 3450 * 3.82 * 3.6,
	}
}

// Mate10 returns the Huawei Mate 10 profile (Kirin 970, 4×2.36 + 4×1.8 GHz).
// Strong on heavy convolutional workloads, surprisingly weak on small
// kernels (Table II: 45 s LeNet vs Nexus 6's 31 s).
func Mate10() Profile {
	return Profile{
		Model: "Mate10", SoC: "Kirin 970",
		Clusters: []CoreCluster{
			{Name: "a53", Cores: 4, MaxFreqGHz: 1.8},
			{Name: "a73", Cores: 4, MaxFreqGHz: 2.36, Big: true},
		},
		TputSmall: 0.715, TputLarge: 1.74,
		AnchorSmall: anchorSmallFlops, AnchorLarge: anchorLargeFlops,
		UtilSmall: 0.8, UtilLarge: 0.9,
		ThermalMassJPerC: 60, CoolingWPerC: 0.65, AmbientC: 25, PeakWatts: 6.0,
		SoftTripC: 52, ThrottleFactor: 0.95,
		HardTripC: 0, BigOffFactor: 1, HysteresisC: 3,
		RampSeconds: 2, BatteryJ: 4000 * 3.82 * 3.6,
	}
}

// Pixel2 returns the Pixel 2 profile (Snapdragon 835, 4×2.35 + 4×1.9 GHz),
// the fastest device in the testbed.
func Pixel2() Profile {
	return Profile{
		Model: "Pixel2", SoC: "Snapdragon 835",
		Clusters: []CoreCluster{
			{Name: "kryo-silver", Cores: 4, MaxFreqGHz: 1.9},
			{Name: "kryo-gold", Cores: 4, MaxFreqGHz: 2.35, Big: true},
		},
		TputSmall: 1.30, TputLarge: 1.86,
		AnchorSmall: anchorSmallFlops, AnchorLarge: anchorLargeFlops,
		UtilSmall: 0.85, UtilLarge: 0.92,
		ThermalMassJPerC: 55, CoolingWPerC: 0.60, AmbientC: 25, PeakWatts: 5.5,
		SoftTripC: 50, ThrottleFactor: 0.94,
		HardTripC: 0, BigOffFactor: 1, HysteresisC: 3,
		RampSeconds: 2, BatteryJ: 2700 * 3.85 * 3.6,
	}
}

// Throughput-anchor intensities: per-sample training FLOPs of the
// paper-scale LeNet and VGG6 on 28×28 input.
const (
	anchorSmallFlops = 10.5e6
	anchorLargeFlops = 205e6
)

// Catalog returns all four phone profiles keyed by model name.
func Catalog() map[string]Profile {
	return map[string]Profile{
		"Nexus6":  Nexus6(),
		"Nexus6P": Nexus6P(),
		"Mate10":  Mate10(),
		"Pixel2":  Pixel2(),
	}
}

// Testbed returns the paper's three device combinations (§VII):
//
//	I:   1×Nexus6, 1×Mate10, 1×Pixel2                 (3 devices)
//	II:  2×Nexus6, 2×Nexus6P, 1×Mate10, 1×Pixel2      (6 devices)
//	III: 4×Nexus6, 2×Nexus6P, 2×Mate10, 2×Pixel2      (10 devices)
func Testbed(id int) []Profile {
	switch id {
	case 1:
		return []Profile{Nexus6(), Mate10(), Pixel2()}
	case 2:
		return []Profile{Nexus6(), Nexus6(), Nexus6P(), Nexus6P(), Mate10(), Pixel2()}
	case 3:
		return []Profile{
			Nexus6(), Nexus6(), Nexus6(), Nexus6(),
			Nexus6P(), Nexus6P(),
			Mate10(), Mate10(),
			Pixel2(), Pixel2(),
		}
	}
	panic(fmt.Sprintf("device: unknown testbed %d (want 1, 2 or 3)", id))
}
