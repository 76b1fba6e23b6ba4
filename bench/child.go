package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything the benchmark leaves outside its own process:
// the built binaries, the child processes and their state directories.
// All of it lives under <root>/.bench_build so a run never writes outside
// its checkout.
type harness struct {
	root   string
	work   string // <root>/.bench_build
	buildS float64

	mu       sync.Mutex
	children map[*exec.Cmd]struct{}
	dirs     map[string]struct{}
}

func newHarness(root string) *harness {
	return &harness{
		root: root, work: filepath.Join(root, ".bench_build"),
		children: map[*exec.Cmd]struct{}{}, dirs: map[string]struct{}{},
	}
}

func (h *harness) bin(name string) string { return filepath.Join(h.work, "bin", name) }

// build compiles the programs under test once, up front. The go tool
// skips the link when the binary is already current, so repeated runs in
// one checkout pay for this only the first time.
func (h *harness) build() error {
	if err := os.MkdirAll(filepath.Join(h.work, "tmp"), 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(h.work, "bin")+string(os.PathSeparator), "./cmd/fedserve", "./cmd/fedsim")
	cmd.Dir = h.root
	if outb, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/fedserve ./cmd/fedsim: %v\n%s", err, outb)
	}
	h.buildS = time.Since(t0).Seconds()
	return nil
}

// tempDir makes a tracked scratch directory; cleanup removes it.
func (h *harness) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(h.work, "tmp"), prefix+"-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs[dir] = struct{}{}
	h.mu.Unlock()
	return dir, nil
}

func (h *harness) removeDir(dir string) {
	os.RemoveAll(dir)
	h.mu.Lock()
	delete(h.dirs, dir)
	h.mu.Unlock()
}

func (h *harness) track(cmd *exec.Cmd) {
	h.mu.Lock()
	h.children[cmd] = struct{}{}
	h.mu.Unlock()
}

func (h *harness) untrack(cmd *exec.Cmd) {
	h.mu.Lock()
	delete(h.children, cmd)
	h.mu.Unlock()
}

// cleanup stops every child still alive (SIGTERM, then SIGKILL after a
// grace period), waits for each, and removes every tracked directory. It
// is idempotent and safe from the signal goroutine.
func (h *harness) cleanup() {
	h.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(h.children))
	for c := range h.children {
		cmds = append(cmds, c)
	}
	dirs := make([]string, 0, len(h.dirs))
	for d := range h.dirs {
		dirs = append(dirs, d)
	}
	h.children = map[*exec.Cmd]struct{}{}
	h.dirs = map[string]struct{}{}
	h.mu.Unlock()
	for _, c := range cmds {
		stopProcess(c)
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// stopProcess asks the child to exit, kills it if it has not within two
// seconds, and reaps it either way.
func stopProcess(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		cmd.Wait() // exit status of a child we are tearing down carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// daemon is one running fedserve child.
type daemon struct {
	h      *harness
	cmd    *exec.Cmd
	dir    string
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	cancel context.CancelFunc
}

// startDaemon spawns fedserve on an ephemeral port over a fresh state
// directory and waits for its address file. timeout bounds the child's
// whole life: a wedged workload cannot leave a daemon behind.
func (h *harness) startDaemon(prefix string, timeout time.Duration) (*daemon, error) {
	dir, err := h.tempDir(prefix)
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	cmd := exec.CommandContext(ctx, h.bin("fedserve"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-dir", filepath.Join(dir, "state"),
		"-max-running", "2", "-lane-budget", "2", "-queue-cap", "16", "-quiet")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		cancel()
		h.removeDir(dir)
		return nil, fmt.Errorf("start fedserve: %w", err)
	}
	h.track(cmd)
	d := &daemon{h: h, cmd: cmd, dir: dir, stderr: &stderr, cancel: cancel}
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil {
			d.base = "http://" + strings.TrimSpace(string(raw))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fedserve wrote no address file within 10s: %s", stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the daemon and removes its state directory.
func (d *daemon) stop() {
	stopProcess(d.cmd)
	d.cancel()
	d.h.untrack(d.cmd)
	d.h.removeDir(d.dir)
}

// procSample is a child's resource use at one instant.
type procSample struct {
	cpuS   float64 // utime+stime
	peakMB float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// it is 100 on every Linux port Go supports.
const clockTick = 100

// sampleProc reads the child's CPU time and peak resident set from /proc.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return s, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	s.cpuS = (utime + stime) / clockTick
	s.peakMB, err = peakRSS(pid)
	return s, err
}

// peakRSS reads the child's resident-set high-water mark (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// rssPollEvery is how often a running fedsim's VmHWM is read; its resident
// set peaks during the trace export at the end, which lasts ~100 ms.
const rssPollEvery = 10 * time.Millisecond

// simRun is one finished fedsim child.
type simRun struct {
	wallS  float64
	cpuS   float64
	peakMB float64
	stdout []byte
	trace  []byte
}

// runFedsim runs fedsim to completion with the given arguments plus a
// -trace file in a scratch directory, and returns its wall time, the
// kernel's account of its CPU time, its peak resident set and its outputs.
func (h *harness) runFedsim(timeout time.Duration, args ...string) (*simRun, error) {
	dir, err := h.tempDir("fedsim")
	if err != nil {
		return nil, err
	}
	defer h.removeDir(dir)
	tracePath := filepath.Join(dir, "trace.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.bin("fedsim"), append(args, "-trace", tracePath)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fedsim: %w", err)
	}
	h.track(cmd)
	// The peak resident set is polled from /proc while the child runs: the
	// kernel's rusage figure for a forked child starts from the parent's
	// resident set, and this harness holds a 10^6-user request.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	peak := 0.0
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(rssPollEvery):
			if mb, perr := peakRSS(cmd.Process.Pid); perr == nil {
				peak = max(peak, mb)
			}
		}
	}
	wall := time.Since(t0).Seconds()
	h.untrack(cmd)
	if err != nil {
		return nil, fmt.Errorf("fedsim %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	r := &simRun{wallS: wall, stdout: stdout.Bytes(), peakMB: peak}
	r.cpuS = cmd.ProcessState.UserTime().Seconds() + cmd.ProcessState.SystemTime().Seconds()
	if r.trace, err = os.ReadFile(tracePath); err != nil {
		return nil, fmt.Errorf("fedsim trace: %w", err)
	}
	return r, nil
}
