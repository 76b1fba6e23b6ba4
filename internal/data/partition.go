package data

import (
	"fmt"
	"math/rand"
	"sort"

	"fedsched/internal/regress"
)

// Partition assigns each user a list of sample indices into a parent
// dataset. Users may have zero samples (excluded from a round).
type Partition [][]int

// Sizes returns the per-user sample counts.
func (p Partition) Sizes() []int {
	out := make([]int, len(p))
	for i, idx := range p {
		out[i] = len(idx)
	}
	return out
}

// Total returns the total number of assigned samples.
func (p Partition) Total() int {
	t := 0
	for _, idx := range p {
		t += len(idx)
	}
	return t
}

// Materialize copies the partition out of the parent dataset into per-user
// datasets.
func (p Partition) Materialize(ds *Dataset) []*Dataset {
	out := make([]*Dataset, len(p))
	for i, idx := range p {
		out[i] = ds.Subset(idx)
	}
	return out
}

// ClassSets returns the set of classes held by each user.
func (p Partition) ClassSets(ds *Dataset) [][]int {
	out := make([][]int, len(p))
	for i, idx := range p {
		seen := make(map[int]bool)
		for _, s := range idx {
			seen[ds.Labels[s]] = true
		}
		classes := make([]int, 0, len(seen))
		for c := range seen {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		out[i] = classes
	}
	return out
}

// ImbalanceRatio is the paper's Fig 2 x-axis: std(sizes)/mean(sizes).
func ImbalanceRatio(sizes []int) float64 {
	fs := make([]float64, len(sizes))
	for i, s := range sizes {
		fs[i] = float64(s)
	}
	m := regress.Mean(fs)
	if m == 0 { //fedlint:allow floateq — mean of non-negative integer sizes is exactly 0 only when every size is 0
		return 0
	}
	return regress.StdDev(fs) / m
}

// IIDEqual splits the dataset into nUsers stratified, equal-size,
// class-balanced partitions (the FedAvg default, the paper's "Equal"
// baseline distribution).
func IIDEqual(ds *Dataset, nUsers int, rng *rand.Rand) Partition {
	sizes := make([]int, nUsers)
	base := ds.Len() / nUsers
	rem := ds.Len() % nUsers
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return IIDSizes(ds, sizes, rng)
}

// IIDSizes splits the dataset into stratified partitions with the given
// target sizes: each user keeps a (near-)uniform class ratio regardless of
// its size, so the data stays IID while being imbalanced in volume. The
// sizes must not exceed the dataset length in total.
func IIDSizes(ds *Dataset, sizes []int, rng *rand.Rand) Partition {
	total := 0
	for _, s := range sizes {
		if s < 0 {
			panic("data: negative partition size")
		}
		total += s
	}
	if total > ds.Len() {
		panic(fmt.Sprintf("data: requested %d samples from dataset of %d", total, ds.Len()))
	}
	// Round-robin over every class keeps the class ratio uniform; with the
	// total in range, no user's walk runs every pool dry.
	all := make([]int, ds.Classes)
	for c := range all {
		all[c] = c
	}
	classSets := make([][]int, len(sizes))
	for u := range classSets {
		classSets[u] = all
	}
	return ByClassSets(ds, classSets, sizes, rng)
}

// GaussianSizes draws nUsers partition sizes from N(mean, (ratio·mean)²)
// where mean = total/nUsers, clamps at a small positive floor, and rescales
// so the sizes sum to total. This reproduces the Fig 2 imbalance generator.
func GaussianSizes(rng *rand.Rand, nUsers, total int, ratio float64) []int {
	mean := float64(total) / float64(nUsers)
	raw := make([]float64, nUsers)
	sum := 0.0
	for i := range raw {
		v := mean + float64(rng.NormFloat64()*ratio*mean)
		if v < 1 {
			v = 1
		}
		raw[i] = v
		sum += v
	}
	sizes := make([]int, nUsers)
	assigned := 0
	for i, v := range raw {
		sizes[i] = int(v / sum * float64(total))
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Fix rounding drift on the largest partitions.
	order := make([]int, nUsers)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	for i := 0; assigned != total; i = (i + 1) % nUsers {
		u := order[i]
		if assigned < total {
			sizes[u]++
			assigned++
		} else if sizes[u] > 1 {
			sizes[u]--
			assigned--
		}
	}
	return sizes
}

// NClassConfig drives the non-IID partitioner.
type NClassConfig struct {
	Users          int
	ClassesPerUser int
	// SizeStd is the relative std of per-class sample counts within a user
	// (the paper adds "a standard deviation of samples among the existing
	// classes" in Fig 3a).
	SizeStd float64
}

// NClass gives each user a random subset of ClassesPerUser classes and
// draws samples only from those classes — the paper's n-class non-IIDness.
// The total assigned equals ds.Len() (up to pool exhaustion rounding).
func NClass(ds *Dataset, cfg NClassConfig, rng *rand.Rand) Partition {
	classSets := make([][]int, cfg.Users)
	for u := range classSets {
		perm := rng.Perm(ds.Classes)
		set := append([]int(nil), perm[:cfg.ClassesPerUser]...)
		sort.Ints(set)
		classSets[u] = set
	}
	sizes := make([]int, cfg.Users)
	base := ds.Len() / cfg.Users
	for u := range sizes {
		v := float64(base) * (1 + float64(cfg.SizeStd*rng.NormFloat64()))
		if v < 1 {
			v = 1
		}
		sizes[u] = int(v)
	}
	return ByClassSets(ds, classSets, sizes, rng)
}

// ByClassSets builds a partition where user u draws sizes[u] samples
// restricted to classes classSets[u], spread as evenly as the pools allow.
// When a user's pools run dry its partition is simply smaller; no sample is
// assigned twice.
func ByClassSets(ds *Dataset, classSets [][]int, sizes []int, rng *rand.Rand) Partition {
	if len(classSets) != len(sizes) {
		panic("data: classSets and sizes length mismatch")
	}
	pools := ds.ByClass()
	for _, pool := range pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	cursor := make([]int, len(pools))
	part := make(Partition, len(sizes))
	for u, size := range sizes {
		classes := classSets[u]
		idx := make([]int, 0, size)
		if len(classes) == 0 {
			part[u] = idx
			continue
		}
		dry := 0
		for c := 0; len(idx) < size && dry < len(classes); c = (c + 1) % len(classes) {
			cls := classes[c]
			if cursor[cls] < len(pools[cls]) {
				idx = append(idx, pools[cls][cursor[cls]])
				cursor[cls]++
				dry = 0
			} else {
				dry++
			}
		}
		part[u] = idx
	}
	return part
}

// OutlierMode selects how the Fig 3b experiment treats the one-class
// outlier user.
type OutlierMode int

const (
	// OutlierMissing drops the outlier's class from training entirely.
	OutlierMissing OutlierMode = iota
	// OutlierSeparate adds the outlier as a fourth, single-class user.
	OutlierSeparate
	// OutlierMerge folds the outlier's class into the third user.
	OutlierMerge
)

// String implements fmt.Stringer.
func (m OutlierMode) String() string {
	switch m {
	case OutlierMissing:
		return "Missing"
	case OutlierSeparate:
		return "Separate"
	case OutlierMerge:
		return "Merge"
	}
	return fmt.Sprintf("OutlierMode(%d)", int(m))
}

// OutlierScenarioWithClass reproduces the paper's §III-C construction: 3
// users with 3 random classes each (disjoint, covering 9 classes) and the
// remaining class treated per mode. It returns the class set of each user
// and the identity of the outlier class, so experiments can track its
// per-class recall.
func OutlierScenarioWithClass(classes int, mode OutlierMode, rng *rand.Rand) ([][]int, int) {
	perm := rng.Perm(classes)
	sets := [][]int{
		append([]int(nil), perm[0:3]...),
		append([]int(nil), perm[3:6]...),
		append([]int(nil), perm[6:9]...),
	}
	outlier := perm[9]
	switch mode {
	case OutlierMissing:
		// Outlier class absent.
	case OutlierSeparate:
		sets = append(sets, []int{outlier})
	case OutlierMerge:
		sets[2] = append(sets[2], outlier)
	}
	for _, s := range sets {
		sort.Ints(s)
	}
	return sets, outlier
}
