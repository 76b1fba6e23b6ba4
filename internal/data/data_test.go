package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := SMNIST(100, 7)
	b := SMNIST(100, 7)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("lengths %d %d", a.Len(), b.Len())
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ between identical seeds")
		}
	}
	for i, v := range a.X.Data() {
		if v != b.X.Data()[i] {
			t.Fatal("features differ between identical seeds")
		}
	}
	c := SMNIST(100, 8)
	same := true
	for i, v := range a.X.Data() {
		if v != c.X.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateClassBalance(t *testing.T) {
	ds := SCIFAR(1000, 3)
	counts := ds.ClassCounts()
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestSubsetAndBatch(t *testing.T) {
	ds := SMNIST(50, 1)
	sub := ds.Subset([]int{0, 2, 4})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	for i, idx := range []int{0, 2, 4} {
		if sub.Labels[i] != ds.Labels[idx] {
			t.Fatal("subset labels wrong")
		}
	}
	x, y := ds.Batch(10, 15)
	if x.Dim(0) != 5 || len(y) != 5 {
		t.Fatalf("batch shape %v len %d", x.Shape(), len(y))
	}
	// Batch shares storage with the dataset.
	orig := ds.X.At(10, 0, 0, 0)
	x.Set(orig+1, 0, 0, 0, 0)
	if ds.X.At(10, 0, 0, 0) != orig+1 {
		t.Fatal("Batch must not copy")
	}
}

func TestSubsetPanicsOutOfRange(t *testing.T) {
	ds := SMNIST(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Subset([]int{10})
}

func TestShufflePreservesPairs(t *testing.T) {
	ds := SMNIST(60, 2)
	// Record a fingerprint per label before shuffling.
	sum := func(d *Dataset, i int) float64 {
		x, _ := d.Batch(i, i+1)
		return x.Sum()
	}
	type pair struct {
		label int
		sum   float64
	}
	before := make(map[pair]int)
	for i := 0; i < ds.Len(); i++ {
		before[pair{ds.Labels[i], math.Round(sum(ds, i) * 1e6)}]++
	}
	ds.Shuffle(rand.New(rand.NewSource(5)))
	after := make(map[pair]int)
	for i := 0; i < ds.Len(); i++ {
		after[pair{ds.Labels[i], math.Round(sum(ds, i) * 1e6)}]++
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed the sample set")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("shuffle broke feature/label pairing")
		}
	}
}

func TestIIDEqualPartition(t *testing.T) {
	ds := SMNIST(1000, 4)
	rng := rand.New(rand.NewSource(1))
	part := IIDEqual(ds, 10, rng)
	if len(part) != 10 {
		t.Fatalf("%d partitions", len(part))
	}
	if part.Total() != 1000 {
		t.Fatalf("total %d, want 1000", part.Total())
	}
	seen := make(map[int]bool)
	for _, idx := range part {
		if len(idx) != 100 {
			t.Fatalf("unequal partition: %v", part.Sizes())
		}
		for _, i := range idx {
			if seen[i] {
				t.Fatal("duplicate index across partitions")
			}
			seen[i] = true
		}
	}
	// Stratification: each user's class ratio near-uniform.
	for u, d := range part.Materialize(ds) {
		for c, n := range d.ClassCounts() {
			if n < 8 || n > 12 {
				t.Fatalf("user %d class %d count %d not ≈10", u, c, n)
			}
		}
	}
}

func TestIIDSizesRespectsSizesAndIIDness(t *testing.T) {
	ds := SCIFAR(600, 5)
	rng := rand.New(rand.NewSource(2))
	sizes := []int{300, 200, 100}
	part := IIDSizes(ds, sizes, rng)
	got := part.Sizes()
	for i := range sizes {
		if got[i] != sizes[i] {
			t.Fatalf("sizes %v, want %v", got, sizes)
		}
	}
	// Even the small partition stays class-balanced (IID despite imbalance).
	small := ds.Subset(part[2])
	for c, n := range small.ClassCounts() {
		if n == 0 {
			t.Fatalf("class %d missing from small IID partition", c)
		}
	}
}

func TestIIDSizesPanicsWhenOversubscribed(t *testing.T) {
	ds := SMNIST(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IIDSizes(ds, []int{8, 8}, rand.New(rand.NewSource(1)))
}

func TestGaussianSizesSumAndRatio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ratio := rng.Float64() * 0.9
		sizes := GaussianSizes(rng, 20, 3000, ratio)
		total := 0
		for _, s := range sizes {
			if s < 1 {
				return false
			}
			total += s
		}
		return total == 3000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// Larger requested ratio should produce a larger empirical ratio.
	rng := rand.New(rand.NewSource(9))
	low := ImbalanceRatio(GaussianSizes(rng, 50, 10000, 0.05))
	high := ImbalanceRatio(GaussianSizes(rng, 50, 10000, 0.8))
	if low >= high {
		t.Fatalf("imbalance not monotone: low %v high %v", low, high)
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := ImbalanceRatio([]int{10, 10, 10}); r != 0 {
		t.Fatalf("uniform ratio %v, want 0", r)
	}
	if r := ImbalanceRatio(nil); r != 0 {
		t.Fatalf("empty ratio %v", r)
	}
	r := ImbalanceRatio([]int{5, 15})
	if math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("ratio %v, want 0.5", r)
	}
}

func TestNClassPartition(t *testing.T) {
	ds := SMNIST(2000, 6)
	rng := rand.New(rand.NewSource(3))
	part := NClass(ds, NClassConfig{Users: 5, ClassesPerUser: 3, SizeStd: 0.2}, rng)
	sets := part.ClassSets(ds)
	for u, set := range sets {
		if len(set) > 3 {
			t.Fatalf("user %d has %d classes, want ≤3", u, len(set))
		}
		if len(part[u]) == 0 {
			t.Fatalf("user %d got no samples", u)
		}
	}
	// No duplicate assignment.
	seen := make(map[int]bool)
	for _, idx := range part {
		for _, i := range idx {
			if seen[i] {
				t.Fatal("duplicate sample across users")
			}
			seen[i] = true
		}
	}
}

func TestByClassSetsRestriction(t *testing.T) {
	ds := SCIFAR(500, 7)
	rng := rand.New(rand.NewSource(4))
	classSets := [][]int{{0, 1}, {5}, {}}
	part := ByClassSets(ds, classSets, []int{60, 40, 10}, rng)
	for u, idx := range part {
		allowed := make(map[int]bool)
		for _, c := range classSets[u] {
			allowed[c] = true
		}
		for _, i := range idx {
			if !allowed[ds.Labels[i]] {
				t.Fatalf("user %d holds forbidden class %d", u, ds.Labels[i])
			}
		}
	}
	if len(part[2]) != 0 {
		t.Fatal("empty class set must yield empty partition")
	}
	if len(part[0]) != 60 || len(part[1]) != 40 {
		t.Fatalf("sizes %v", part.Sizes())
	}
}

func TestByClassSetsExhaustion(t *testing.T) {
	ds := SMNIST(100, 8) // 10 per class
	rng := rand.New(rand.NewSource(5))
	part := ByClassSets(ds, [][]int{{0}}, []int{50}, rng)
	if len(part[0]) != 10 {
		t.Fatalf("expected pool-limited 10 samples, got %d", len(part[0]))
	}
}

func TestOutlierScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, mode := range []OutlierMode{OutlierMissing, OutlierSeparate, OutlierMerge} {
		sets, _ := OutlierScenarioWithClass(10, mode, rand.New(rand.NewSource(6)))
		cover := make(map[int]bool)
		for _, s := range sets {
			for _, c := range s {
				cover[c] = true
			}
		}
		switch mode {
		case OutlierMissing:
			if len(sets) != 3 || len(cover) != 9 {
				t.Fatalf("Missing: %d users cover %d classes", len(sets), len(cover))
			}
		case OutlierSeparate:
			if len(sets) != 4 || len(cover) != 10 || len(sets[3]) != 1 {
				t.Fatalf("Separate: %v", sets)
			}
		case OutlierMerge:
			if len(sets) != 3 || len(cover) != 10 || len(sets[2]) != 4 {
				t.Fatalf("Merge: %v", sets)
			}
		}
	}
	_ = rng
	if OutlierMissing.String() != "Missing" || OutlierMode(9).String() == "" {
		t.Fatal("String() broken")
	}
}

func TestTrainTestSharePrototypes(t *testing.T) {
	// A classifier trained on train must beat chance on test; a cheap proxy:
	// the nearest-class-mean classifier transfers across the split.
	cfg := SMNISTConfig(0, 42)
	train, test := TrainTest(cfg, 500, 200)
	sz := train.SampleSize()
	means := make([][]float64, train.Classes)
	counts := make([]int, train.Classes)
	for i := range means {
		means[i] = make([]float64, sz)
	}
	xd := train.X.Data()
	for i, y := range train.Labels {
		counts[y]++
		for j := 0; j < sz; j++ {
			means[y][j] += xd[i*sz+j]
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	td := test.X.Data()
	for i, y := range test.Labels {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			d := 0.0
			for j := 0; j < sz; j++ {
				diff := td[i*sz+j] - means[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.8 {
		t.Fatalf("nearest-mean transfer accuracy %.2f, want ≥0.8 (prototypes not shared?)", acc)
	}
}

func TestSCIFARHarderThanSMNIST(t *testing.T) {
	// The CIFAR stand-in must be harder: nearest-mean accuracy lower than
	// on the MNIST stand-in.
	nearestMeanAcc := func(train, test *Dataset) float64 {
		sz := train.SampleSize()
		means := make([][]float64, train.Classes)
		counts := make([]int, train.Classes)
		for i := range means {
			means[i] = make([]float64, sz)
		}
		xd := train.X.Data()
		for i, y := range train.Labels {
			counts[y]++
			for j := 0; j < sz; j++ {
				means[y][j] += xd[i*sz+j]
			}
		}
		for c := range means {
			if counts[c] == 0 {
				continue
			}
			for j := range means[c] {
				means[c][j] /= float64(counts[c])
			}
		}
		correct := 0
		td := test.X.Data()
		for i, y := range test.Labels {
			best, bestD := -1, math.Inf(1)
			for c := range means {
				d := 0.0
				for j := 0; j < sz; j++ {
					diff := td[i*sz+j] - means[c][j]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			if best == y {
				correct++
			}
		}
		return float64(correct) / float64(test.Len())
	}
	mTrain, mTest := TrainTest(SMNISTConfig(0, 11), 500, 300)
	cTrain, cTest := TrainTest(SCIFARConfig(0, 11), 500, 300)
	mAcc := nearestMeanAcc(mTrain, mTest)
	cAcc := nearestMeanAcc(cTrain, cTest)
	if cAcc >= mAcc {
		t.Fatalf("SCIFAR (%.2f) should be harder than SMNIST (%.2f)", cAcc, mAcc)
	}
	if cAcc < 0.2 {
		t.Fatalf("SCIFAR accuracy %.2f — too hard to be learnable", cAcc)
	}
}
