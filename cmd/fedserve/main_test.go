package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedsched/internal/serve"
)

// daemonEnv makes the test binary run the real main() instead of the
// tests, so TestKillResume can SIGKILL an actual fedserve process.
const daemonEnv = "FEDSERVE_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The fixed-seed job mix. The sync job is the long pole (40 rounds,
// checkpointed every round) so the kill lands while it is mid-run. Each
// job pins one worker lane, so the three co-run under -lane-budget 3 at
// any core count.
var killMix = []string{
	`{"name":"smoke-sync","engine":"sync","clients":3,"rounds":40,"samples":300,"test_samples":100,"seed":11,"workers":1}`,
	`{"name":"smoke-async","engine":"async","clients":3,"max_updates":6,"samples":300,"test_samples":100,"seed":12,"workers":1}`,
	`{"name":"smoke-gossip","engine":"gossip","clients":3,"rounds":1,"samples":300,"test_samples":100,"seed":13,"workers":1}`,
}

// daemon is one fedserve child process over a state directory.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

func startDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-dir", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-max-running", "3", "-lane-budget", "3", "-quiet")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(d.kill)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if raw, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + strings.TrimSpace(string(raw))
			return d
		}
	}
	t.Fatalf("daemon over %s never wrote its address", dir)
	return nil
}

// kill is SIGKILL: no shutdown hook runs.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

func (d *daemon) submit(t *testing.T, body string) {
	t.Helper()
	resp, err := http.Post(d.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", body, resp.StatusCode)
	}
}

func (d *daemon) jobs(t *testing.T) []serve.JobStatus {
	t.Helper()
	resp, err := http.Get(d.base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	return all
}

// waitCompleted blocks until every job the daemon knows has completed.
func (d *daemon) waitCompleted(t *testing.T) []serve.JobStatus {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		all, done := d.jobs(t), 0
		for _, st := range all {
			switch st.State {
			case serve.StateCompleted:
				done++
			case serve.StateFailed, serve.StateCancelled:
				t.Fatalf("%s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		if done == len(killMix) {
			return all
		}
	}
	t.Fatal("jobs did not complete")
	return nil
}

// TestKillResume is the serving stack's crash proof, against the real
// binary: the job mix runs once uninterrupted; then again on a daemon
// that is SIGKILLed while the sync job is mid-run and restarted over the
// same state directory. Per job, the interrupted run's streamed trace and
// round history must be byte-identical to the reference. Everything is
// fixed-seed and virtual-time, so the only nondeterminism is where the
// kill lands — and the resume protocol's job is to make that invisible.
func TestKillResume(t *testing.T) {
	// Not t.TempDir: a failed run keeps its state directories (under
	// $TMPDIR, which CI points at its artifact upload path).
	root, err := os.MkdirTemp("", "fedserve-kill-resume-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("state directories kept in %s", root)
			return
		}
		os.RemoveAll(root)
	})
	refDir, intDir := filepath.Join(root, "ref"), filepath.Join(root, "int")
	for _, dir := range []string{refDir, intDir} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	ref := startDaemon(t, refDir)
	for _, body := range killMix {
		ref.submit(t, body)
	}
	ref.waitCompleted(t)
	ref.kill()

	first := startDaemon(t, intDir)
	for _, body := range killMix {
		first.submit(t, body)
	}
	syncDir := filepath.Join(intDir, "jobs", "job-1")
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		st := first.jobs(t)[0]
		if _, err := os.Stat(filepath.Join(syncDir, "resume.slots")); err == nil && st.RoundsDone >= 3 {
			break
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			break // too late: the checks below say so
		}
		if time.Now().After(deadline) {
			t.Fatal("the sync job never got three rounds in")
		}
	}
	first.kill()

	// The sync job must actually have been interrupted, or the
	// byte-compare below would prove nothing.
	if _, err := os.Stat(filepath.Join(syncDir, "resume.slots")); err != nil {
		t.Fatalf("job-1 has no resume snapshot at the kill — it finished first; raise its rounds: %v", err)
	}
	state, err := os.ReadFile(filepath.Join(syncDir, "state.json"))
	if err != nil || !bytes.Contains(state, []byte(`"state": "running"`)) {
		t.Fatalf("job-1 was not mid-run at the kill (%v): %s", err, state)
	}

	second := startDaemon(t, intDir)
	for _, st := range second.waitCompleted(t) {
		if st.ID == "job-1" && !st.Resumed {
			t.Errorf("job-1 should report resumed after the restart: %+v", st)
		}
	}
	second.kill()

	for n := range killMix {
		for _, name := range []string{"trace.jsonl", "rounds.json"} {
			rel := filepath.Join("jobs", fmt.Sprintf("job-%d", n+1), name)
			want, err := os.ReadFile(filepath.Join(refDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(intDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs between the killed-and-resumed and the uninterrupted run (%d vs %d bytes)", rel, len(got), len(want))
			}
			if name == "rounds.json" && bytes.Contains(want, []byte(`"failed": true`)) {
				t.Errorf("%s has failed rounds", rel)
			}
		}
	}
}
