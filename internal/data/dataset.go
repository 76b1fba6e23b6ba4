// Package data provides deterministic synthetic image datasets standing in
// for MNIST and CIFAR10 (the module is offline), plus every partitioning
// scheme the paper's experiments use: stratified IID splits, Gaussian-size
// imbalanced IID splits (Fig 2), n-class non-IID splits (Fig 3a), outlier
// scenarios (Fig 3b) and explicit class-distribution scenarios (Table IV).
package data

import (
	"fmt"
	"math/rand"

	"fedsched/internal/tensor"
)

// Dataset is a labelled image dataset stored as one dense tensor of shape
// (N, C, H, W) plus integer labels.
type Dataset struct {
	Name    string
	C, H, W int
	Classes int
	X       *tensor.Tensor
	Labels  []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleSize returns the flattened feature length of one sample.
func (d *Dataset) SampleSize() int { return d.C * d.H * d.W }

// Subset returns a new dataset containing the samples at the given indices
// (data is copied).
func (d *Dataset) Subset(indices []int) *Dataset {
	sz := d.SampleSize()
	out := &Dataset{Name: d.Name, C: d.C, H: d.H, W: d.W, Classes: d.Classes,
		X:      tensor.New(len(indices), d.C, d.H, d.W),
		Labels: make([]int, len(indices)),
	}
	src, dst := d.X.Data(), out.X.Data()
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: subset index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(dst[i*sz:(i+1)*sz], src[idx*sz:(idx+1)*sz])
		out.Labels[i] = d.Labels[idx]
	}
	return out
}

// Batch returns the feature tensor and labels for samples [i0, i1).
// The tensor shares storage with the dataset.
func (d *Dataset) Batch(i0, i1 int) (*tensor.Tensor, []int) {
	if i0 < 0 || i1 > d.Len() || i0 > i1 {
		panic(fmt.Sprintf("data: bad batch range [%d,%d) for %d samples", i0, i1, d.Len()))
	}
	sz := d.SampleSize()
	//fedlint:allow hotalloc — From wraps the dataset's storage; only the O(1) header is allocated
	x := tensor.From(d.X.Data()[i0*sz:i1*sz], i1-i0, d.C, d.H, d.W)
	return x, d.Labels[i0:i1]
}

// Shuffle permutes the samples in place using rng. Samples are swapped
// element-wise rather than through a scratch buffer: Shuffle runs every
// round on every client's training path, and the buffer was a
// sample-sized allocation per call. The draw sequence and the resulting
// permutation are unchanged.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	sz := d.SampleSize()
	xd := d.X.Data()
	for i := d.Len() - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		a, b := xd[i*sz:(i+1)*sz], xd[j*sz:(j+1)*sz]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	}
}

// ByClass returns, for each class, the sample indices holding that label.
func (d *Dataset) ByClass() [][]int {
	out := make([][]int, d.Classes)
	for i, y := range d.Labels {
		out[y] = append(out[y], i)
	}
	return out
}

// ClassCounts returns the per-class sample counts.
func (d *Dataset) ClassCounts() []int {
	out := make([]int, d.Classes)
	for _, y := range d.Labels {
		out[y]++
	}
	return out
}
