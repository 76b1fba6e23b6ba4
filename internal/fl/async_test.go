package fl

import (
	"math/rand"
	"testing"

	"fedsched/internal/data"
	"fedsched/internal/network"
)

// asyncClients builds users clients on equal shards of train, on devices
// (see partitionClients) when withDevices is set.
func asyncClients(t *testing.T, train *data.Dataset, users int, withDevices bool) []*Client {
	t.Helper()
	return partitionClients(t, train, data.IIDEqual(train, users, rand.New(rand.NewSource(1))), withDevices)
}

func TestAsyncLearns(t *testing.T) {
	train, test := data.TrainTest(data.SMNISTConfig(0, 33), 800, 300)
	clients := asyncClients(t, train, 4, true)
	cfg := AsyncConfig{
		Config:         smallConfig(0),
		MaxUpdates:     24,
		MixRate:        0.5,
		StalenessPower: 0.5,
	}
	hist, err := RunAsync(cfg, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Updates != 24 {
		t.Fatalf("updates %d, want 24", hist.Updates)
	}
	if hist.FinalAccuracy < 0.6 {
		t.Fatalf("async accuracy %.3f too low", hist.FinalAccuracy)
	}
	if hist.VirtualSeconds <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if hist.TotalEnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestAsyncFastDevicesUpdateMore(t *testing.T) {
	// Client 0 rides a Pixel2, client 2 a Nexus6P: without synchronous
	// barriers the fast phone must contribute more updates.
	train, _ := data.TrainTest(data.SMNISTConfig(0, 34), 800, 10)
	clients := asyncClients(t, train, 4, true)
	cfg := AsyncConfig{Config: smallConfig(0), MaxUpdates: 40}
	// Use the paper-scale LeNet for time so device speed differences are
	// visible (the tiny test arch trains in microseconds of virtual time).
	hist, err := RunAsync(cfg, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hist.UpdatesPerClient[0] < hist.UpdatesPerClient[2] {
		t.Fatalf("Pixel2 made %d updates vs Nexus6P %d — async should favour fast devices",
			hist.UpdatesPerClient[0], hist.UpdatesPerClient[2])
	}
}

func TestAsyncDurationBound(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 35), 200, 10)
	clients := asyncClients(t, train, 2, true)
	cfg := AsyncConfig{Config: smallConfig(0), Duration: 3, MaxUpdates: 1 << 30}
	hist, err := RunAsync(cfg, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hist.VirtualSeconds > 3.5 {
		t.Fatalf("ran past the deadline: %v s", hist.VirtualSeconds)
	}
	if hist.Updates == 0 {
		t.Fatal("no updates within the window")
	}
}

func TestAsyncStalenessTracked(t *testing.T) {
	train, _ := data.TrainTest(data.SMNISTConfig(0, 36), 800, 10)
	clients := asyncClients(t, train, 4, true)
	hist, err := RunAsync(AsyncConfig{Config: smallConfig(0), MaxUpdates: 30}, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hist.MeanStaleness <= 0 {
		t.Fatalf("mean staleness %v — concurrent clients must overlap", hist.MeanStaleness)
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, err := RunAsync(AsyncConfig{}, nil, nil); err == nil {
		t.Fatal("expected error without arch")
	}
	cfg := AsyncConfig{Config: smallConfig(0)}
	c := NewClient(0, "empty", nil, network.WiFi(), nil)
	if _, err := RunAsync(cfg, []*Client{c}, nil); err == nil {
		t.Fatal("expected error when no client holds data")
	}
}

func TestSyncVsAsyncTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("full sync-vs-async comparison")
	}
	// The paper's §II-B rationale, measured: async completes its updates in
	// less virtual time per update (no barrier), sync reaches at-least-as-
	// good accuracy for the same number of aggregate local epochs.
	train, test := data.TrainTest(data.SMNISTConfig(0, 38), 1200, 400)
	users := 4

	syncClients := asyncClients(t, train, users, true)
	syncHist, err := Run(smallConfig(6), syncClients, test)
	if err != nil {
		t.Fatal(err)
	}

	aClients := asyncClients(t, train, users, true)
	asyncHist, err := RunAsync(AsyncConfig{
		Config: smallConfig(0), MaxUpdates: 6 * users, MixRate: 0.4, StalenessPower: 1,
	}, aClients, test)
	if err != nil {
		t.Fatal(err)
	}

	// Same total local epochs (6 rounds × 4 users vs 24 updates): async
	// must be meaningfully faster in virtual time…
	if asyncHist.VirtualSeconds >= syncHist.TotalSeconds {
		t.Fatalf("async (%gs) not faster than sync (%gs)", asyncHist.VirtualSeconds, syncHist.TotalSeconds)
	}
	// …and sync must not lose accuracy to async (the reason the paper
	// chose it).
	if syncHist.FinalAccuracy < asyncHist.FinalAccuracy-0.05 {
		t.Fatalf("sync accuracy %.3f unexpectedly below async %.3f", syncHist.FinalAccuracy, asyncHist.FinalAccuracy)
	}
}
