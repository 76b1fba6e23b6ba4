package fl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/device"
	"fedsched/internal/network"
	"fedsched/internal/nn"
	"fedsched/internal/tensor"
)

func smallConfig(rounds int) Config {
	return Config{
		Arch:      nn.LeNetSmall(1, 16, 16, 10),
		Rounds:    rounds,
		BatchSize: 20,
		LR:        0.02,
		Momentum:  0.9,
		Seed:      1,
	}
}

func clientsFromPartition(t *testing.T, ds *data.Dataset, part data.Partition) []*Client {
	t.Helper()
	locals := part.Materialize(ds)
	devs := make([]*device.Device, len(locals))
	links := make([]network.Link, len(locals))
	for i := range links {
		links[i] = network.WiFi()
	}
	cs, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestFedAvgLearnsIID(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 42), 1200, 400)
	part := data.IIDEqual(train, 4, rand.New(rand.NewSource(1)))
	clients := clientsFromPartition(t, train, part)
	hist, err := Run(smallConfig(8), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalAccuracy < 0.85 {
		t.Fatalf("FedAvg accuracy %.3f on IID SMNIST, want ≥0.85", hist.FinalAccuracy)
	}
	if len(hist.Rounds) != 8 {
		t.Fatalf("%d rounds recorded", len(hist.Rounds))
	}
	// Loss must drop substantially.
	if hist.Rounds[len(hist.Rounds)-1].TrainLoss > hist.Rounds[0].TrainLoss*0.7 {
		t.Fatalf("train loss did not drop: %v → %v",
			hist.Rounds[0].TrainLoss, hist.Rounds[len(hist.Rounds)-1].TrainLoss)
	}
}

func TestFedAvgDeterministic(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 7), 400, 200)
	mk := func() float64 {
		part := data.IIDEqual(train, 3, rand.New(rand.NewSource(2)))
		clients := clientsFromPartition(t, train, part)
		hist, err := Run(smallConfig(3), clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return hist.FinalAccuracy
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("nondeterministic run: %v vs %v", a, b)
	}
}

func TestFedAvgMatchesCentralizedOnIID(t *testing.T) {
	// Fig 2's reference lines: distributed IID training should land near
	// the centralized result.
	train, test := data.TrainTest(data.SMNISTConfig(0, 9), 1500, 500)
	cfg := smallConfig(8)
	central, err := Centralized(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	part := data.IIDEqual(train, 5, rand.New(rand.NewSource(3)))
	clients := clientsFromPartition(t, train, part)
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalAccuracy < central-0.08 {
		t.Fatalf("federated %.3f much worse than centralized %.3f", hist.FinalAccuracy, central)
	}
}

func TestSkipsEmptyClients(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 5), 600, 200)
	part := data.IIDEqual(train, 3, rand.New(rand.NewSource(1)))
	locals := part.Materialize(train)
	locals = append(locals, nil) // a fourth client with no data
	devs := make([]*device.Device, 4)
	links := make([]network.Link, 4)
	for i := range links {
		links[i] = network.WiFi()
	}
	clients, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(smallConfig(2), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 3 {
			t.Fatalf("round had %d participants, want 3", len(r.Clients))
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	if _, err := Run(Config{}, nil, nil); err == nil {
		t.Fatal("expected error without arch/clients")
	}
	cfg := smallConfig(1)
	if _, err := Run(cfg, nil, nil); err == nil {
		t.Fatal("expected error without clients")
	}
	c := NewClient(0, "empty", nil, network.WiFi(), nil)
	if _, err := Run(cfg, []*Client{c}, nil); err == nil {
		t.Fatal("expected error when no client holds data")
	}
}

func TestTimeSimulationWiredIn(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 3), 300, 100)
	part := data.IIDEqual(train, 2, rand.New(rand.NewSource(1)))
	locals := part.Materialize(train)
	devs := []*device.Device{device.New(device.Pixel2()), device.New(device.Nexus6P())}
	links := []network.Link{network.WiFi(), network.LTE()}
	clients, err := BuildClients(devs, links, locals)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(smallConfig(2), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.TotalSeconds <= 0 {
		t.Fatal("no simulated time recorded")
	}
	if hist.TotalEnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
	for _, r := range hist.Rounds {
		if r.Makespan <= 0 {
			t.Fatal("round without makespan")
		}
		for _, cr := range r.Clients {
			if cr.ComputeS <= 0 || cr.CommS <= 0 {
				t.Fatalf("client round missing time: %+v", cr)
			}
			if span := cr.ComputeS + cr.CommS; span > r.Makespan+1e-9 {
				t.Fatal("makespan smaller than a participant's span")
			}
		}
	}
}

func TestEvalEvery(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 4), 300, 100)
	part := data.IIDEqual(train, 2, rand.New(rand.NewSource(1)))
	clients := clientsFromPartition(t, train, part)
	cfg := smallConfig(4)
	cfg.EvalEvery = 2
	hist, err := Run(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 2 and 4 evaluated; rounds 1 and 3 not (-1 sentinel).
	if hist.Rounds[0].Accuracy != -1 || hist.Rounds[2].Accuracy != -1 {
		t.Fatal("unexpected evaluation on off rounds")
	}
	if hist.Rounds[1].Accuracy < 0 || hist.Rounds[3].Accuracy < 0 {
		t.Fatal("missing evaluation on scheduled rounds")
	}
}

func TestFinalRoundEvaluatedOnce(t *testing.T) {
	// With EvalEvery 1 the last round evaluates the weights the run ends
	// with, so the final confusion matrix is that evaluation, not a second
	// pass over the test set. Workers 1 and a one-batch test set make
	// every pass one predict call.
	train, test := data.TrainTest(data.SMNISTConfig(0, 4), 300, 100)
	part := data.IIDEqual(train, 2, rand.New(rand.NewSource(1)))
	const rounds = 3
	cfg := smallConfig(rounds)
	cfg.EvalEvery, cfg.Workers = 1, 1
	calls := 0
	prev := predict
	predict = func(m *nn.Network, x *tensor.Tensor) []int { calls++; return prev(m, x) }
	t.Cleanup(func() { predict = prev })
	hist, err := Run(cfg, clientsFromPartition(t, train, part), test)
	if err != nil {
		t.Fatal(err)
	}
	if calls != rounds {
		t.Errorf("%d rounds evaluated the test set %d times, want %d", rounds, calls, rounds)
	}
	fresh := evaluate(hist.Model, test, 256, 1, nil)
	if !reflect.DeepEqual(hist.Confusion, fresh) {
		t.Errorf("final confusion %+v, a fresh evaluation gives %+v", hist.Confusion, fresh)
	}
	if hist.FinalAccuracy != hist.Rounds[rounds-1].Accuracy {
		t.Errorf("final accuracy %v, last round's %v", hist.FinalAccuracy, hist.Rounds[rounds-1].Accuracy)
	}
}

func TestNonIIDWorseThanIID(t *testing.T) {
	// The core motivation (Fig 3a): restricting each user to 2 classes
	// must hurt accuracy relative to IID on the harder dataset.
	train, test := data.TrainTest(data.SCIFARConfig(0, 21), 1500, 500)
	cfg := Config{
		Arch: nn.LeNetSmall(3, 16, 16, 10), Rounds: 10, BatchSize: 20,
		LR: 0.02, Momentum: 0.9, Seed: 5,
	}
	iidPart := data.IIDEqual(train, 5, rand.New(rand.NewSource(11)))
	iidClients := clientsFromPartition(t, train, iidPart)
	iidHist, err := Run(cfg, iidClients, test)
	if err != nil {
		t.Fatal(err)
	}
	nonPart := data.NClass(train, data.NClassConfig{Users: 5, ClassesPerUser: 2}, rand.New(rand.NewSource(11)))
	nonClients := clientsFromPartition(t, train, nonPart)
	nonHist, err := Run(cfg, nonClients, test)
	if err != nil {
		t.Fatal(err)
	}
	if nonHist.FinalAccuracy >= iidHist.FinalAccuracy {
		t.Fatalf("2-class non-IID (%.3f) not worse than IID (%.3f)",
			nonHist.FinalAccuracy, iidHist.FinalAccuracy)
	}
}

func TestEvaluateBatching(t *testing.T) {
	_, test := data.TrainTest(data.SMNISTConfig(0, 2), 10, 100)
	rng := rand.New(rand.NewSource(1))
	net := nn.LeNetSmall(1, 16, 16, 10).Build(rng)
	a := Evaluate(net, test, 7) // odd batch size exercises the tail
	b := Evaluate(net, test, 1000)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("accuracy depends on eval batch size: %v vs %v", a, b)
	}
}

func TestBuildClientsValidation(t *testing.T) {
	if _, err := BuildClients(make([]*device.Device, 2), make([]network.Link, 1), make([]*data.Dataset, 2)); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestSimulateRounds(t *testing.T) {
	arch := nn.LeNet(1, 28, 28, 10)
	devs := []*device.Device{device.New(device.Pixel2()), device.New(device.Nexus6())}
	links := []network.Link{network.WiFi(), network.WiFi()}
	rounds, err := SimulateRounds(arch, devs, links, []int{2000, 1000}, 20, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("%d rounds", len(rounds))
	}
	for r, rs := range rounds {
		if rs.Round != r || rs.Makespan <= 0 {
			t.Fatalf("round %d: %+v", r, rs)
		}
		// The makespan is the slowest member's compute + comm.
		slowest := 0.0
		for i, cr := range rs.Clients {
			if cr.ClientID != i || cr.ComputeS <= 0 || cr.CommS <= 0 {
				t.Fatalf("round %d member %d: %+v", r, i, cr)
			}
			slowest = max(slowest, cr.ComputeS+cr.CommS)
		}
		if len(rs.Clients) != 2 || slowest != rs.Makespan {
			t.Fatalf("round %d: makespan %v, slowest member %v over %d members", r, rs.Makespan, slowest, len(rs.Clients))
		}
	}
	// Zero samples for everyone → error-free zero spans.
	rounds, err = SimulateRounds(arch, devs, links, []int{0, 0}, 20, 1, nil)
	if err != nil || rounds[0].Makespan != 0 {
		t.Fatalf("zero work: rounds=%+v err=%v", rounds, err)
	}
	if _, err := SimulateRounds(arch, devs, links[:1], []int{1, 2}, 20, 1, nil); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestCentralizedLearns(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 6), 800, 300)
	acc, err := Centralized(smallConfig(6), train, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("centralized accuracy %.3f, want ≥0.85", acc)
	}
}
