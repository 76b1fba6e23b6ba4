package fedsched_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedsched"
	"fedsched/internal/fl"
	"fedsched/internal/serve"
	"fedsched/internal/trace"
)

// decodeJob is the daemon's admission path: strict decode, defaults,
// Validate.
func decodeJob(raw []byte) (fedsched.JobConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var cfg fedsched.JobConfig
	if err := dec.Decode(&cfg); err != nil {
		return cfg, err
	}
	cfg = cfg.WithDefaults()
	return cfg, cfg.Validate()
}

// TestJobDirectEqualsServed runs one scheduled job through BuildJob + Run
// directly and through an in-process daemon: there is one job path, so
// the trace and the round history must be the same bytes and bits.
func TestJobDirectEqualsServed(t *testing.T) {
	const body = `{"testbed":2,"rounds":3,"samples":240,"test_samples":60,"seed":9,"workers":2}`

	cfg, err := decodeJob([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	job, err := fedsched.BuildJob(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if job.Assignment == nil || len(job.Sizes) != len(job.Clients) {
		t.Fatalf("testbed job without a schedule: %+v / %v", job.Assignment, job.Sizes)
	}
	out, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sync == nil || out.Done != 3 || len(out.Sync.Rounds) != 3 {
		t.Fatalf("unexpected outcome %+v", out)
	}
	var direct bytes.Buffer
	if err := trace.WriteJSONL(&direct, rec.Events()); err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	get := func(path string, v any) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			if err := json.Unmarshal(raw, v); err != nil {
				t.Fatalf("GET %s: %v: %s", path, err, raw)
			}
		}
		return raw
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st serve.JobStatus
	for deadline := time.Now().Add(2 * time.Minute); st.State != serve.StateCompleted; time.Sleep(5 * time.Millisecond) {
		get("/jobs/job-1", &st)
		if st.State == serve.StateFailed || time.Now().After(deadline) {
			t.Fatalf("served job did not complete: %+v", st)
		}
	}

	if served := get("/jobs/job-1/trace", nil); !bytes.Equal(served, direct.Bytes()) {
		t.Errorf("trace differs between the direct and the served run (%d vs %d bytes)", direct.Len(), len(served))
	}
	var rounds []serve.RoundInfo
	get("/jobs/job-1/rounds", &rounds)
	if len(rounds) != len(out.Sync.Rounds) {
		t.Fatalf("served %d rounds, direct %d", len(rounds), len(out.Sync.Rounds))
	}
	for i, r := range out.Sync.Rounds {
		if g := rounds[i]; g.Round != r.Round || g.MakespanS != r.Makespan || g.TrainLoss != r.TrainLoss || g.Accuracy != r.Accuracy || g.Failed != r.Failed {
			t.Errorf("round %d: served %+v, direct %+v", i, g, r)
		}
	}
	if st.FinalAccuracy != out.Accuracy || st.TotalSeconds != out.Seconds || st.RoundsDone != out.Done {
		t.Errorf("status %+v, direct outcome %+v", st, out)
	}
}

// TestBuildJobFedLBAPStream pins, outside the golden file, what a
// testbed-2 fedlbap job schedules and the KindSolver stream it emits: the
// paper-scale request (60,000 samples, 600 shards) takes 58 threshold
// probes.
func TestBuildJobFedLBAPStream(t *testing.T) {
	cfg, err := decodeJob([]byte(`{"testbed":2,"scheduler":"fedlbap","samples":240,"test_samples":60,"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	job, err := fedsched.BuildJob(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{138, 139, 33, 33, 97, 160}; !reflect.DeepEqual(job.Assignment.Shards, want) {
		t.Errorf("shards %v, want %v", job.Assignment.Shards, want)
	}
	if job.Assignment.Algorithm != "Fed-LBAP" {
		t.Errorf("algorithm %q, want Fed-LBAP", job.Assignment.Algorithm)
	}
	probes := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSolver {
			probes++
		}
	}
	if probes != 58 {
		t.Errorf("%d KindSolver events, want 58", probes)
	}
}

// TestValidateRejectsNonFinite: JSON cannot carry NaN or ±Inf, but
// fedtrain's flags can. Admitted, NaN momentum or deadline silently turns
// the knob off and an infinite rate poisons every weight.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := fedsched.JobConfig{Testbed: 1, ClassesPerUser: 3}
	if err := base.WithDefaults().Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for _, c := range []struct {
		field string
		set   func(*fedsched.JobConfig)
	}{
		{"lr", func(c *fedsched.JobConfig) { c.LR = inf }},
		{"lr", func(c *fedsched.JobConfig) { c.LR = nan }},
		{"momentum", func(c *fedsched.JobConfig) { c.Momentum = nan }},
		{"momentum", func(c *fedsched.JobConfig) { c.Momentum = inf }},
		{"alpha", func(c *fedsched.JobConfig) { c.Alpha = nan }},
		{"alpha", func(c *fedsched.JobConfig) { c.Alpha = inf }},
		{"beta", func(c *fedsched.JobConfig) { c.Beta = nan }},
		{"beta", func(c *fedsched.JobConfig) { c.Beta = inf }},
		{"deadline_seconds", func(c *fedsched.JobConfig) { c.DeadlineSeconds = nan }},
		{"deadline_seconds", func(c *fedsched.JobConfig) { c.DeadlineSeconds = inf }},
	} {
		cfg := base
		c.set(&cfg)
		cfg = cfg.WithDefaults()
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate(%+v) = %v, want an error naming %s", c.field, cfg, err, c.field)
		}
	}
}

// FuzzJobConfig feeds the admission path arbitrary bytes. Whatever they
// are, decode → defaults → Validate must not panic; a config it accepts
// must survive job.json (marshal → strict decode gives the same config,
// still valid, and the same bytes again) and, clamped to sizes a fuzzer
// can afford, must build twice into the same schedule and partition.
func FuzzJobConfig(f *testing.F) {
	for _, seed := range []string{
		// The kill/resume smoke mix (cmd/fedserve).
		`{"name":"smoke-sync","engine":"sync","clients":3,"rounds":40,"samples":300,"test_samples":100,"seed":11,"workers":1}`,
		`{"name":"smoke-async","engine":"async","clients":3,"max_updates":6,"samples":300,"test_samples":100,"seed":12,"workers":1}`,
		`{"name":"smoke-gossip","engine":"gossip","clients":3,"rounds":1,"samples":300,"test_samples":100,"seed":13,"workers":1}`,
		// The benchmark's job templates (bench/workloads.go).
		`{"name":"train-f64","testbed":2,"samples":1200,"rounds":4,"test_samples":200,"workers":2,"precision":"f64"}`,
		`{"name":"train-f32","testbed":2,"samples":120,"rounds":2,"test_samples":40,"workers":2,"precision":"f32"}`,
		`{"name":"churn","clients":4,"samples":20,"batch_size":5,"test_samples":20,"rounds":400,"workers":1}`,
		`{"name":"faulty","testbed":3,"cohort_size":8,"quorum":6,"min_participants":3,"faults":"crash=0.15,flap=0.1,corrupt=0.05,degrade=0.3,slow=4","samples":300,"test_samples":100,"workers":1}`,
		`{"name":"async","engine":"async","testbed":1,"max_updates":24,"samples":300,"test_samples":100,"workers":1}`,
		`{"name":"gossip","engine":"gossip","clients":6,"rounds":3,"topology":"random","samples":300,"test_samples":100,"workers":1}`,
		`{"name":"f32-prop","testbed":1,"scheduler":"prop","precision":"f32","samples":300,"test_samples":100,"workers":1}`,
		`{"name":"scifar","dataset":"scifar","clients":4,"samples":300,"test_samples":100,"workers":1}`,
		// The fields fedtrain brought: Algorithm 2 on non-IID data, secure aggregation.
		`{"testbed":2,"scheduler":"fedminavg","classes_per_user":3,"alpha":500,"beta":-1,"momentum":-1}`,
		`{"testbed":1,"classes_per_user":10,"secure_agg":true,"deadline_seconds":200}`,
		`{"clients":3,"cohort_size":4}`,
		`{"no_such_field":1}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := decodeJob(raw)
		if err != nil {
			return
		}
		stored, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		dec := json.NewDecoder(bytes.NewReader(stored))
		dec.DisallowUnknownFields()
		var back fedsched.JobConfig
		if err := dec.Decode(&back); err != nil || back != cfg {
			t.Fatalf("job.json round trip: %v\n stored %s\n config %+v\n read   %+v", err, stored, cfg, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("config read back from job.json no longer validates: %v", err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, stored) {
			t.Fatalf("job.json is not a fixed point: %s then %s", stored, again)
		}

		small := cfg
		small.Samples = min(small.Samples, 60)
		small.TestSamples = min(small.TestSamples, 20)
		small.Clients = min(small.Clients, 6)
		if small.Validate() != nil {
			return // the clamp broke a cross-field rule (cohort vs clients)
		}
		a, errA := fedsched.BuildJob(small, nil)
		b, errB := fedsched.BuildJob(small, nil)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("BuildJob is not deterministic: %v vs %v", errA, errB)
		}
		if errA != nil {
			return // e.g. the schedule left fewer data-holding clients than the cohort
		}
		if !reflect.DeepEqual(a.Sizes, b.Sizes) || !reflect.DeepEqual(a.Assignment, b.Assignment) {
			t.Fatalf("two builds differ: sizes %v vs %v, schedule %+v vs %+v", a.Sizes, b.Sizes, a.Assignment, b.Assignment)
		}
		if len(a.Clients) != len(a.Sizes) {
			t.Fatalf("%d clients for %d shards", len(a.Clients), len(a.Sizes))
		}
		held := func(c *fl.Client) int {
			if c.Local == nil {
				return 0
			}
			return c.Local.Len()
		}
		for i, c := range a.Clients {
			if held(c) != a.Sizes[i] || held(b.Clients[i]) != a.Sizes[i] {
				t.Fatalf("client %d holds %d and %d samples, partition says %d", i, held(c), held(b.Clients[i]), a.Sizes[i])
			}
		}
	})
}
