package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsched"
	"fedsched/internal/trace"
)

// startServer boots a Server over a fresh state dir plus an httptest
// front end. The cleanup closes the HTTP layer first, then interrupts
// the daemon.
func startServer(t testing.TB, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t testing.TB, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t testing.TB, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getRounds(t *testing.T, ts *httptest.Server, id string) []RoundInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rounds []RoundInfo
	if err := json.NewDecoder(resp.Body).Decode(&rounds); err != nil {
		t.Fatal(err)
	}
	return rounds
}

func terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// waitFor polls a job's status until cond holds (engine work under the
// race detector is slow, hence the generous deadline).
func waitFor(t *testing.T, ts *httptest.Server, id string, what string, cond func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if cond(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q (last: %+v)", id, what, getStatus(t, ts, id))
	return JobStatus{}
}

func TestSubmitHappyPath(t *testing.T) {
	_, ts := startServer(t, Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", err, resp)
	}
	resp.Body.Close()

	st, resp := submit(t, ts, `{"name":"hp","clients":3,"rounds":2,"samples":120,"test_samples":60,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID == "" || st.Engine != "sync" || st.Rounds != 2 {
		t.Fatalf("unexpected submit status %+v", st)
	}

	final := waitFor(t, ts, st.ID, StateCompleted, func(s JobStatus) bool { return terminal(s.State) })
	if final.State != StateCompleted {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.RoundsDone != 2 || final.Name != "hp" {
		t.Fatalf("unexpected final status %+v", final)
	}

	rr, err := http.Get(ts.URL + "/jobs/" + st.ID + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundInfo
	if err := json.NewDecoder(rr.Body).Decode(&rounds); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if len(rounds) != 2 || rounds[1].Participants != 3 {
		t.Fatalf("unexpected rounds %+v", rounds)
	}

	tr, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(tr.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	summaries := 0
	for _, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if ev["kind"] == "round" {
			summaries++
		}
	}
	if summaries != 2 {
		t.Fatalf("trace has %d round summaries, want 2", summaries)
	}

	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobStatus
	if err := json.NewDecoder(lr.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("unexpected listing %+v", all)
	}
}

func TestMalformedConfigsRejected(t *testing.T) {
	_, ts := startServer(t, Options{})
	bad := []string{
		`{not json`,
		`{"engine":"quantum"}`,
		`{"dataset":"mnist"}`,
		`{"testbed":9}`,
		`{"no_such_field":1}`,
		`{"clients":3,"cohort_size":-1}`,
		`{"precision":"f16"}`,
		`{"faults":"crash=oops"}`,
		`{"topology":"ring"}`,
		`{"max_updates":5}`,
		`{"engine":"async","quorum":2}`,
		`{"engine":"async","min_participants":1}`,
		`{"engine":"async","deadline_seconds":30}`,
		`{"engine":"gossip","quorum":2}`,
		`{"engine":"gossip","min_participants":1}`,
		`{"engine":"gossip","deadline_seconds":30}`,
		`{"scheduler":"fedlbap"}`,
		`{"samples":5}`,
		`{"clients":3,"cohort_size":4}`,
		`{"testbed":1,"cohort_size":4}`,
		`{"engine":"async","max_updates":1000001}`,
		`{"classes_per_user":3}`,
		`{"testbed":2,"classes_per_user":11}`,
		`{"testbed":2,"classes_per_user":-1}`,
		`{"testbed":2,"scheduler":"fedminavg"}`,
		`{"testbed":2,"alpha":500}`,
		`{"testbed":2,"beta":3}`,
		`{"engine":"async","secure_agg":true}`,
		`{"engine":"gossip","secure_agg":true}`,
		`{"secure_agg":true,"quorum":2}`,
		// Negative counts and rates are out of range, not "unset".
		`{"rounds":-5}`,
		`{"samples":-1}`,
		`{"test_samples":-7}`,
		`{"batch_size":-3}`,
		`{"lr":-0.5}`,
		`{"clients":-2}`,
		`{"engine":"async","max_updates":-4}`,
		`{"testbed":2,"clients":-2}`,
		`{"testbed":2,"clients":3}`,
	}
	for _, body := range bad {
		_, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	if resp, err := http.Get(ts.URL + "/jobs/job-99"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %v %v", err, resp.StatusCode)
	}
}

// TestDamagedStateDirSkipped hand-damages a state directory the way a
// bad disk or an operator's editor would, and requires New to skip those
// jobs with a log line instead of panicking in a handler or queueing a
// job that can never settle.
func TestDamagedStateDirSkipped(t *testing.T) {
	dir := t.TempDir()
	write := func(job, name, body string) {
		t.Helper()
		jd := filepath.Join(dir, "jobs", job)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jd, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	good := JobConfig{Clients: 2, Rounds: 1, Samples: 40, TestSamples: 20}.WithDefaults()
	cfg, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	done := `{"state":"completed","rounds_done":1}`
	// An id shorter than "job-" used to panic every GET /jobs.
	write("short-id", "job.json", `{"id":"j","num":1,"config":`+string(cfg)+`}`)
	write("short-id", "state.json", done)
	write("ok", "job.json", `{"id":"job-2","num":2,"config":`+string(cfg)+`}`)
	write("ok", "state.json", done)
	// A state that is neither queued, resumable nor terminal would hang.
	write("bad-state", "job.json", `{"id":"job-3","num":3,"config":`+string(cfg)+`}`)
	write("bad-state", "state.json", `{"state":"paused","rounds_done":0}`)
	// A config that no longer validates would fail only once dispatched.
	write("bad-config", "job.json", `{"id":"job-4","num":4,"config":{"engine":"quantum"}}`)
	write("bad-config", "state.json", `{"state":"queued","rounds_done":0}`)
	write("no-id", "job.json", `{"num":5,"config":`+string(cfg)+`}`)
	write("no-id", "state.json", done)
	write("torn", "job.json", `{"id":"job-6","num":6,"conf`)

	var mu sync.Mutex
	skipped := map[string]bool{}
	_, ts := startServer(t, Options{Dir: dir, Logf: func(format string, args ...any) {
		if strings.HasPrefix(format, "serve: skipping") {
			mu.Lock()
			skipped[args[0].(string)] = true
			mu.Unlock()
		}
	}})
	for _, name := range []string{"bad-state", "bad-config", "no-id", "torn"} {
		if !skipped[name] {
			t.Errorf("New did not skip %s (skipped: %v)", name, skipped)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("GET /jobs: HTTP %d, %v", resp.StatusCode, err)
	}
	if len(all) != 2 || all[0].ID != "j" || all[1].ID != "job-2" || all[1].State != StateCompleted {
		t.Fatalf("unexpected listing %+v", all)
	}
}

func TestBackpressureAndCancel(t *testing.T) {
	_, ts := startServer(t, Options{QueueCap: 1, MaxRunning: 1})

	long := `{"clients":3,"rounds":500,"samples":300,"test_samples":50,"seed":3}`
	first, resp := submit(t, ts, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	// The first job dispatches immediately (MaxRunning 1), so the second
	// occupies the whole queue and the third must bounce.
	second, resp := submit(t, ts, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	_, resp = submit(t, ts, long)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}

	// Cancelling the queued job is immediate; cancelling the running one
	// stops it at the next round boundary with its partial history.
	cr, err := http.Post(ts.URL+"/jobs/"+second.ID+"/cancel", "", nil)
	if err != nil || cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %v %d", err, cr.StatusCode)
	}
	cr.Body.Close()

	waitFor(t, ts, first.ID, "a completed round", func(s JobStatus) bool { return s.RoundsDone >= 1 })
	cr, err = http.Post(ts.URL+"/jobs/"+first.ID+"/cancel", "", nil)
	if err != nil || cr.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: %v %d", err, cr.StatusCode)
	}
	cr.Body.Close()
	final := waitFor(t, ts, first.ID, StateCancelled, func(s JobStatus) bool { return terminal(s.State) })
	if final.State != StateCancelled || final.RoundsDone < 1 || final.RoundsDone >= 500 {
		t.Fatalf("unexpected cancelled status %+v", final)
	}

	// Terminal jobs reject further cancels.
	cr, err = http.Post(ts.URL+"/jobs/"+first.ID+"/cancel", "", nil)
	if err != nil || cr.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %v %d, want 409", err, cr.StatusCode)
	}
	cr.Body.Close()
}

// TestRestartResume is the serving layer's core guarantee: interrupt a
// daemon mid-job, restart over the same state directory, and the
// finished job's round history and trace are byte-identical to a never-
// interrupted run of the same config. Along the way every wait also
// polls /rounds: whatever a client sees mid-run — fresh, or resumed and
// growing from the restored history — must be a prefix of that final
// history.
func TestRestartResume(t *testing.T) {
	cfg := `{"clients":3,"rounds":8,"samples":300,"test_samples":100,"seed":5}`
	dir1 := t.TempDir()
	var polled [][]RoundInfo
	polling := func(ts *httptest.Server, id string, cond func(JobStatus) bool) func(JobStatus) bool {
		return func(s JobStatus) bool {
			polled = append(polled, getRounds(t, ts, id))
			return cond(s)
		}
	}
	isTerminal := func(s JobStatus) bool { return terminal(s.State) }

	s1, err := New(Options{Dir: dir1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st, resp := submit(t, ts1, cfg)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ts1, st.ID, "two completed rounds", polling(ts1, st.ID, func(s JobStatus) bool { return s.RoundsDone >= 2 }))
	ts1.Close()
	s1.Close() // interrupts at the next round boundary

	jobDir := filepath.Join(dir1, "jobs", st.ID)
	var onDisk JobStatus
	if err := readJSON(filepath.Join(jobDir, "state.json"), &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State == StateRunning {
		if _, err := os.Stat(filepath.Join(jobDir, slotsFile)); err != nil {
			t.Fatalf("interrupted job has no resume snapshot: %v", err)
		}
	} else {
		// The job outran the interrupt; the byte-identity checks below
		// still hold, they just exercise less.
		t.Logf("job finished before the interrupt (state %s)", onDisk.State)
	}

	s2, err := New(Options{Dir: dir1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	final := waitFor(t, ts2, st.ID, StateCompleted, polling(ts2, st.ID, isTerminal))
	if final.State != StateCompleted {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if onDisk.State == StateRunning && !final.Resumed {
		t.Fatal("job should report resumed=true after a restart")
	}
	if final.RoundsDone != 8 {
		t.Fatalf("resumed job completed %d rounds, want 8", final.RoundsDone)
	}
	for _, name := range resumeFiles {
		if _, err := os.Stat(filepath.Join(jobDir, name)); !os.IsNotExist(err) {
			t.Fatalf("terminal job should have no %s (err %v)", name, err)
		}
	}

	// Uninterrupted reference run of the identical config.
	refDir := t.TempDir()
	_, ts3 := startServer(t, Options{Dir: refDir})
	ref, _ := submit(t, ts3, cfg)
	refFinal := waitFor(t, ts3, ref.ID, StateCompleted, polling(ts3, ref.ID, isTerminal))
	if refFinal.State != StateCompleted {
		t.Fatalf("reference job ended %s (%s)", refFinal.State, refFinal.Error)
	}
	history := getRounds(t, ts3, ref.ID)
	if len(history) != 8 {
		t.Fatalf("reference history has %d rounds, want 8", len(history))
	}
	for i, seen := range polled {
		if len(seen) > len(history) {
			t.Fatalf("poll %d saw %d rounds, more than the final history", i, len(seen))
		}
		for r := range seen {
			if seen[r] != history[r] {
				t.Fatalf("poll %d: round %d was %+v mid-run, %+v in the final history", i, r, seen[r], history[r])
			}
		}
	}

	for _, name := range []string{"trace.jsonl", "rounds.json"} {
		got, err := os.ReadFile(filepath.Join(jobDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, "jobs", ref.ID, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the resumed and uninterrupted runs (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	if final.FinalAccuracy != refFinal.FinalAccuracy || final.TotalSeconds != refFinal.TotalSeconds {
		t.Errorf("final stats diverge: %+v vs %+v", final, refFinal)
	}
}

// TestPreRunFailureLeavesNoResumeStore: a job that passes Validate but
// fails in BuildJob has already had its resume store created by then.
// It must read failed with the builder's error, leave no resume file
// behind, and a restarted daemon must still serve it as failed.
func TestPreRunFailureLeavesNoResumeStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st, resp := submit(t, ts1, `{"testbed":1,"scheduler":"fedminavg","classes_per_user":2,"seed":9,"cohort_size":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	const want = "cohort_size 3 exceeds the 2 data-holding clients"
	check := func(ts *httptest.Server, when string) {
		t.Helper()
		got := waitFor(t, ts, st.ID, StateFailed, func(s JobStatus) bool { return terminal(s.State) })
		if got.State != StateFailed || !strings.Contains(got.Error, want) {
			t.Fatalf("%s: job %s (%q), want failed with %q", when, got.State, got.Error, want)
		}
	}
	check(ts1, "first daemon")
	ts1.Close()
	s1.Close()

	jobDir := filepath.Join(dir, "jobs", st.ID)
	for _, name := range resumeFiles {
		if _, err := os.Stat(filepath.Join(jobDir, name)); !os.IsNotExist(err) {
			t.Fatalf("failed job left %s behind (err %v)", name, err)
		}
	}

	_, ts2 := startServer(t, Options{Dir: dir})
	check(ts2, "restarted daemon")
}

// TestConcurrentJobs exercises the admission path and the engines' shared
// tensor-lane pool under concurrent submissions — this is the test the
// race detector leans on (`make race` includes this package).
func TestConcurrentJobs(t *testing.T) {
	_, ts := startServer(t, Options{MaxRunning: 4, LaneBudget: 8})

	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"clients":2,"rounds":2,"samples":100,"test_samples":40,"seed":%d}`, i+1)
			st, resp := submit(t, ts, body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		final := waitFor(t, ts, id, StateCompleted, func(s JobStatus) bool { return terminal(s.State) })
		if final.State != StateCompleted || final.RoundsDone != 2 {
			t.Fatalf("job %s: %+v", id, final)
		}
	}
}

// TestSequentialJobChargedOneLane: a "workers": -1 job runs its engine
// on one goroutine, so admission charges it one lane — not the process
// width, which would hold a second job in the queue behind it.
func TestSequentialJobChargedOneLane(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var mu sync.Mutex
	var logs []string
	_, ts := startServer(t, Options{MaxRunning: 2, LaneBudget: 8, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	st, resp := submit(t, ts, `{"clients":2,"rounds":1,"samples":100,"test_samples":40,"workers":-1,"seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if final := waitFor(t, ts, st.ID, StateCompleted, func(s JobStatus) bool { return terminal(s.State) }); final.State != StateCompleted {
		t.Fatalf("job: %+v", final)
	}
	mu.Lock()
	defer mu.Unlock()
	want := fmt.Sprintf("serve: %s running (sync, budget 1)", st.ID)
	if !slices.Contains(logs, want) {
		t.Fatalf("no %q among the daemon's log lines %q", want, logs)
	}
}

// TestTraceFollow tails a running job's trace with ?follow=1: the
// response must keep streaming past what was on disk when it started, end
// once the job settles, and carry exactly the final trace.jsonl.
func TestTraceFollow(t *testing.T) {
	s, ts := startServer(t, Options{})
	st, resp := submit(t, ts, `{"clients":3,"rounds":30,"samples":120,"test_samples":60,"seed":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ts, st.ID, "a completed round", func(s JobStatus) bool { return s.RoundsDone >= 1 })
	path := filepath.Join(s.opt.Dir, "jobs", st.ID, "trace.jsonl")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur := getStatus(t, ts, st.ID); terminal(cur.State) {
		t.Fatalf("job settled before the tail started: %+v", cur)
	}

	tr, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(tr.Body); err != nil {
		t.Fatal(err)
	}
	if final := getStatus(t, ts, st.ID); final.State != StateCompleted {
		t.Fatalf("follow ended with the job %s (%s)", final.State, final.Error)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), want) {
		t.Fatalf("followed trace (%d B) differs from the final trace.jsonl (%d B)", body.Len(), len(want))
	}
	if int64(body.Len()) <= before.Size() {
		t.Fatalf("follow streamed %d B, no more than the %d B on disk when it began", body.Len(), before.Size())
	}
}

// TestEngineCoverage runs one job per engine end to end. Only the sync
// engine has a per-round checkpoint sink to flush the trace from; async
// and gossip stream theirs from the Cancel poll. Either way the streamed
// trace must be the same bytes as the same JobConfig's in-process run
// (BuildJob, Run, trace.WriteJSONL).
func TestEngineCoverage(t *testing.T) {
	jobs := []struct {
		body string
		done int
	}{
		{`{"engine":"sync","clients":2,"rounds":6,"samples":100,"test_samples":40,"seed":2}`, 6},
		{`{"engine":"async","clients":2,"samples":100,"test_samples":40,"max_updates":20,"seed":2}`, 20},
		{`{"engine":"gossip","clients":2,"rounds":6,"samples":100,"test_samples":40,"seed":2}`, 6},
	}
	_, ts := startServer(t, Options{MaxRunning: 2, LaneBudget: 4})
	for _, job := range jobs {
		st, resp := submit(t, ts, job.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", job.body, resp.StatusCode)
		}
		final := waitFor(t, ts, st.ID, StateCompleted, func(s JobStatus) bool { return terminal(s.State) })
		if final.State != StateCompleted || final.RoundsDone != job.done {
			t.Fatalf("%s: %+v", job.body, final)
		}
		tr, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(tr.Body)
		tr.Body.Close()

		var cfg JobConfig
		if err := json.Unmarshal([]byte(job.body), &cfg); err != nil {
			t.Fatal(err)
		}
		rec := trace.NewLog(0)
		run, err := fedsched.BuildJob(cfg.WithDefaults(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Run(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := trace.WriteJSONL(&want, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || got.String() != want.String() {
			t.Errorf("%s: streamed trace differs from the in-process run's (%d vs %d bytes)", job.body, got.Len(), want.Len())
		}
		if strings.Contains(job.body, "gossip") && !strings.Contains(got.String(), `"kind":"round"`) {
			t.Error("gossip trace is missing round summaries")
		}
	}
}

// BenchmarkServeChurn is the benchmark's round_churn workload in process,
// for profiling the per-round fixed cost (`make profile-churn`): two
// 400-round jobs of one 5-sample batch per client run side by side
// through a Server over a temp directory, each polled every 5 ms the way
// bench/client.go polls. One iteration is one such pair.
func BenchmarkServeChurn(b *testing.B) {
	_, ts := startServer(b, Options{})
	const rounds = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ids [2]string
		for sub := range ids {
			st, resp := submit(b, ts, fmt.Sprintf(
				`{"name":"churn","clients":4,"samples":20,"batch_size":5,"test_samples":20,"rounds":%d,"workers":1,"seed":%d}`,
				rounds, 1+2*i+sub))
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			ids[sub] = st.ID
		}
		for running := len(ids); running > 0; time.Sleep(5 * time.Millisecond) {
			running = 0
			for _, id := range ids {
				switch st := getStatus(b, ts, id); {
				case !terminal(st.State):
					running++
				case st.State != StateCompleted || st.RoundsDone != rounds:
					b.Fatalf("job ended %+v", st)
				}
			}
		}
	}
	b.ReportMetric(float64(2*rounds*b.N)/b.Elapsed().Seconds(), "rounds/s")
}
