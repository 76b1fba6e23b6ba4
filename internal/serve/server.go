package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedsched/internal/fl"
	"fedsched/internal/tensor"
	"fedsched/internal/trace"
)

// Job lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Options configures a Server.
type Options struct {
	// Dir is the state directory: one subdirectory per job holding its
	// config, status, streamed trace and resume snapshot. Required.
	Dir string
	// QueueCap bounds the admission queue (default 16); submissions
	// beyond it get 429 with a Retry-After hint.
	QueueCap int
	// MaxRunning bounds concurrently running jobs (default 2).
	MaxRunning int
	// LaneBudget is the shared worker budget jobs draw from, in units
	// of tensor lanes (default tensor.MaxLanes()+1, the process's
	// compute width). A job needing more than the remainder waits in
	// the queue — unless nothing is running, so one oversized job can
	// never deadlock the daemon.
	LaneBudget int
	// TraceCap is each job's trace-ring capacity in events (default
	// 65536). The ring only needs to hold one round between flushes.
	TraceCap int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.MaxRunning <= 0 {
		o.MaxRunning = 2
	}
	if o.LaneBudget <= 0 {
		o.LaneBudget = tensor.MaxLanes() + 1
	}
	if o.TraceCap <= 0 {
		o.TraceCap = trace.DefaultCapacity
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// RoundInfo is one completed round on the wire (GET /jobs/{id}/rounds).
// Floats are sanitized (NaN→−1) so the struct always JSON-encodes;
// identical histories marshal to byte-identical JSON.
type RoundInfo struct {
	Round        int     `json:"round"`
	MakespanS    float64 `json:"makespan_s"`
	TrainLoss    float64 `json:"train_loss"`
	Accuracy     float64 `json:"accuracy"`
	Failed       bool    `json:"failed,omitempty"`
	Participants int     `json:"participants"`
}

func roundInfo(rs *fl.RoundStats) RoundInfo {
	n := 0
	for _, cr := range rs.Clients {
		if cr.Fault == 0 && !cr.Diverged && !cr.Late && !cr.Dropped {
			n++
		}
	}
	return RoundInfo{
		Round: rs.Round, MakespanS: rs.Makespan,
		TrainLoss: trace.Sanitize(rs.TrainLoss),
		Accuracy:  trace.Sanitize(rs.Accuracy),
		Failed:    rs.Failed, Participants: n,
	}
}

func roundInfos(rounds []fl.RoundStats) []RoundInfo {
	out := make([]RoundInfo, len(rounds))
	for i := range rounds {
		out[i] = roundInfo(&rounds[i])
	}
	return out
}

// JobStatus is a job's state on the wire.
type JobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Engine string `json:"engine"`
	// Rounds is the configured target; RoundsDone counts completed
	// rounds (server merges for async jobs).
	Rounds     int    `json:"rounds"`
	RoundsDone int    `json:"rounds_done"`
	Error      string `json:"error,omitempty"`
	// FinalAccuracy and TotalSeconds are set on completion (simulated
	// seconds; mean client accuracy for gossip jobs).
	FinalAccuracy float64 `json:"final_accuracy,omitempty"`
	TotalSeconds  float64 `json:"total_seconds,omitempty"`
	// Resumed marks a job restored from a restart checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// job is the in-memory record. Mutable fields are guarded by Server.mu
// except the cancel flag, which the engine polls from its own goroutine.
type job struct {
	id  string
	num int
	cfg JobConfig
	dir string

	cancelled atomic.Bool

	state    string
	err      string
	rounds   []RoundInfo
	done     int
	finalAcc float64
	totalS   float64
	resumed  bool
	budget   int
}

// Server multiplexes federated jobs behind an HTTP API. Create with New,
// mount Handler, and Close on shutdown — Close interrupts running jobs
// at their next round boundary and leaves their on-disk state resumable.
type Server struct {
	opt     Options
	closing atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*job
	queue   []*job
	running int
	inUse   int
	nextNum int
	wg      sync.WaitGroup
}

// persisted wire formats. job.json is written once at submission;
// state.json at every lifecycle transition (atomically, tmp+rename).
type jobFile struct {
	ID     string    `json:"id"`
	Num    int       `json:"num"`
	Config JobConfig `json:"config"`
}

type stateFile struct {
	State         string  `json:"state"`
	Error         string  `json:"error,omitempty"`
	RoundsDone    int     `json:"rounds_done"`
	FinalAccuracy float64 `json:"final_accuracy,omitempty"`
	TotalSeconds  float64 `json:"total_seconds,omitempty"`
}

// New opens (or creates) the state directory, restores every persisted
// job — terminal jobs become queryable again, queued and interrupted
// jobs re-enter the queue (interrupted synchronous jobs resume from
// their round snapshot bit-identically) — and starts dispatching.
func New(opt Options) (*Server, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	opt = opt.withDefaults()
	s := &Server{opt: opt, jobs: make(map[string]*job), nextNum: 1}
	jobsDir := filepath.Join(opt.Dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, e.Name())
		j, err := loadJob(dir)
		if err != nil {
			opt.Logf("serve: skipping %s: %v", e.Name(), err)
			continue
		}
		s.jobs[j.id] = j
		if j.num >= s.nextNum {
			s.nextNum = j.num + 1
		}
		if j.state == StateQueued || j.state == StateRunning {
			j.resumed = j.state == StateRunning
			j.state = StateQueued
			s.queue = append(s.queue, j)
		}
	}
	sort.Slice(s.queue, func(a, b int) bool { return s.queue[a].num < s.queue[b].num })
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// loadJob restores one job directory.
func loadJob(dir string) (*job, error) {
	var jf jobFile
	if err := readJSON(filepath.Join(dir, "job.json"), &jf); err != nil {
		return nil, err
	}
	var st stateFile
	if err := readJSON(filepath.Join(dir, "state.json"), &st); err != nil {
		return nil, err
	}
	j := &job{
		id: jf.ID, num: jf.Num, cfg: jf.Config, dir: dir,
		state: st.State, err: st.Error, done: st.RoundsDone,
		finalAcc: st.FinalAccuracy, totalS: st.TotalSeconds,
		budget: jobBudget(jf.Config.Workers),
	}
	if j.id == "" || j.state == "" {
		return nil, fmt.Errorf("missing id or state")
	}
	// Terminal jobs keep their round history queryable across restarts.
	if j.state == StateCompleted || j.state == StateFailed || j.state == StateCancelled {
		if err := readJSON(filepath.Join(dir, "rounds.json"), &j.rounds); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return j, nil
}

// jobBudget is a job's admission cost in lanes: its configured worker
// count, at least 1 (0 meaning the full process width). The cap against
// the server's LaneBudget happens at dispatch.
func jobBudget(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Close interrupts every running job at its next round boundary and
// waits for them to settle. Interrupted synchronous jobs keep their
// on-disk state resumable — a new Server over the same directory
// finishes them with bit-identical histories and traces. Queued jobs
// simply stay queued on disk.
func (s *Server) Close() {
	s.closing.Store(true)
	s.wg.Wait()
}

// Handler returns the job API:
//
//	GET  /healthz            liveness
//	POST /jobs               submit a JobConfig; 202 + status,
//	                         400 invalid, 429 queue full, 503 closing
//	GET  /jobs               all statuses, submission order
//	GET  /jobs/{id}          one status
//	GET  /jobs/{id}/rounds   completed-round history
//	GET  /jobs/{id}/trace    streamed JSONL trace (?follow=1 tails it)
//	POST /jobs/{id}/cancel   stop at the next round boundary
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/rounds", s.handleRounds)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var cfg JobConfig
	if err := dec.Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "invalid job config: %v", err)
		return
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid job config: %v", err)
		return
	}
	if s.closing.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	s.mu.Lock()
	if len(s.queue) >= s.opt.QueueCap {
		depth := len(s.queue)
		s.mu.Unlock()
		// The hint scales with queue depth; there is no per-job ETA for
		// arbitrary configs, so this is deliberately coarse.
		w.Header().Set("Retry-After", strconv.Itoa(1+depth))
		httpError(w, http.StatusTooManyRequests, "job queue is full (%d queued)", depth)
		return
	}
	num := s.nextNum
	s.nextNum++
	j := &job{
		id:  fmt.Sprintf("job-%d", num),
		num: num, cfg: cfg,
		dir:    filepath.Join(s.opt.Dir, "jobs", fmt.Sprintf("job-%d", num)),
		state:  StateQueued,
		budget: jobBudget(cfg.Workers),
	}
	if err := persistNewJob(j); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.dispatchLocked()
	st := statusLocked(j)
	s.mu.Unlock()
	s.opt.Logf("serve: %s submitted (%s, %s)", j.id, j.cfg.Engine, j.cfg.Dataset)
	writeJSON(w, http.StatusAccepted, st)
}

func persistNewJob(j *job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, "job.json"), jobFile{ID: j.id, Num: j.num, Config: j.cfg}); err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(j.dir, "state.json"), stateFile{State: StateQueued})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, statusLocked(j))
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return jobNum(out[a].ID) < jobNum(out[b].ID) })
	writeJSON(w, http.StatusOK, out)
}

// jobNum extracts the numeric suffix of "job-N" for stable listing order.
func jobNum(id string) int {
	n, _ := strconv.Atoi(id[len("job-"):])
	return n
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func statusLocked(j *job) JobStatus {
	// The async engine's unit of progress is the update, not the round.
	total := j.cfg.Rounds
	if j.cfg.Engine == "async" {
		total = j.cfg.MaxUpdates
	}
	return JobStatus{
		ID: j.id, Name: j.cfg.Name, State: j.state, Engine: j.cfg.Engine,
		Rounds: total, RoundsDone: j.done, Error: j.err,
		FinalAccuracy: j.finalAcc, TotalSeconds: j.totalS, Resumed: j.resumed,
	}
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	rounds := append([]RoundInfo(nil), j.rounds...)
	s.mu.Unlock()
	if rounds == nil {
		rounds = []RoundInfo{}
	}
	writeJSON(w, http.StatusOK, rounds)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	path := filepath.Join(j.dir, "trace.jsonl")
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "no trace yet for %s", j.id)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := io.Copy(w, f); err != nil {
		return
	}
	if r.URL.Query().Get("follow") == "" {
		return
	}
	// Tail mode: keep shipping flushed lines until the job settles.
	// Flushes are whole-line writes, so the client always sees complete
	// JSONL records.
	flusher, _ := w.(http.Flusher)
	for {
		if flusher != nil {
			flusher.Flush()
		}
		s.mu.Lock()
		st := j.state
		s.mu.Unlock()
		n, err := io.Copy(w, f)
		if err != nil {
			return
		}
		if st != StateRunning && st != StateQueued && n == 0 {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		writeJSONAtomic(filepath.Join(j.dir, "state.json"), stateFile{State: StateCancelled})
		st := statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	case StateRunning:
		j.cancelled.Store(true)
		st := statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
	default:
		st := j.state
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s is already %s", j.id, st)
	}
}

// dispatchLocked admits queued jobs while capacity allows: at most
// MaxRunning jobs, whose lane budgets sum to at most LaneBudget. An
// oversized job still runs when it is alone, so the queue always drains.
// Callers hold s.mu.
func (s *Server) dispatchLocked() {
	for len(s.queue) > 0 && s.running < s.opt.MaxRunning && !s.closing.Load() {
		j := s.queue[0]
		budget := j.budget
		if budget > s.opt.LaneBudget {
			budget = s.opt.LaneBudget
		}
		if s.running > 0 && s.inUse+budget > s.opt.LaneBudget {
			return
		}
		s.queue = s.queue[1:]
		j.state = StateRunning
		j.budget = budget
		s.running++
		s.inUse += budget
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// release returns a finished job's capacity and admits successors.
func (s *Server) release(j *job) {
	s.mu.Lock()
	s.running--
	s.inUse -= j.budget
	s.dispatchLocked()
	s.mu.Unlock()
	s.wg.Done()
}

// runJob drives one job to a terminal state (or to an interrupted,
// resumable stop when the daemon is closing). It owns the job's trace
// file and resume snapshot for the duration.
func (s *Server) runJob(j *job) {
	defer s.release(j)

	if err := writeJSONAtomic(filepath.Join(j.dir, "state.json"), stateFile{State: StateRunning}); err != nil {
		s.fail(j, fmt.Errorf("persist state: %w", err))
		return
	}

	// A resumed job restores the (checkpoint, trace offset) pair written
	// atomically by its last round; a fresh or never-checkpointed job
	// starts from zero. Anything in the trace file past the recorded
	// offset is an unacknowledged tail from the interrupted run — the
	// resumed engine re-emits it bit-identically.
	var resume *fl.Checkpoint
	var base int64
	if j.resumed {
		var err error
		resume, base, err = readResume(j.dir)
		if err != nil {
			s.opt.Logf("serve: %s: unusable resume snapshot (%v); restarting from scratch", j.id, err)
			resume, base = nil, 0
		}
	}

	tracePath := filepath.Join(j.dir, "trace.jsonl")
	tf, err := os.OpenFile(tracePath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		s.fail(j, fmt.Errorf("open trace: %w", err))
		return
	}
	defer tf.Close()
	if err := tf.Truncate(base); err != nil {
		s.fail(j, fmt.Errorf("truncate trace: %w", err))
		return
	}
	if _, err := tf.Seek(base, io.SeekStart); err != nil {
		s.fail(j, fmt.Errorf("seek trace: %w", err))
		return
	}
	stream := trace.NewStream(tf, base)

	rec := trace.New(s.opt.TraceCap)
	b, err := build(j.cfg, rec)
	if err != nil {
		s.fail(j, fmt.Errorf("build job: %w", err))
		return
	}
	if resume != nil {
		// Rebuilding re-ran the scheduler, which re-emitted its schedule
		// and solver events — but the original run's first flush already
		// persisted those. Drop the duplicates.
		rec.Reset()
		b.run.Resume = resume
		s.restoreRounds(j, resume)
	}
	b.run.Cancel = func() bool { return j.cancelled.Load() || s.closing.Load() }

	s.opt.Logf("serve: %s running (%s, budget %d)", j.id, j.cfg.Engine, j.budget)
	switch j.cfg.Engine {
	case "sync":
		s.runSync(j, b, stream, rec)
	case "async":
		s.runAsync(j, b, stream, rec)
	case "gossip":
		s.runGossip(j, b, stream, rec)
	default:
		// Configs validate at submission; this only fires on a
		// hand-edited job.json.
		s.fail(j, fmt.Errorf("unknown engine %q", j.cfg.Engine))
	}
}

// runSync executes a synchronous job with per-round persistence: after
// every round the engine's checkpoint sink (on the engine goroutine)
// flushes the trace, then atomically replaces the resume snapshot with
// the new (checkpoint, trace offset) pair. A crash between the two steps
// leaves a stale snapshot plus a trace tail past its offset — which the
// next resume truncates and regenerates, keeping the file byte-identical
// to an uninterrupted run's.
func (s *Server) runSync(j *job, b *built, stream *trace.Stream, rec *trace.Recorder) {
	b.run.CheckpointEvery = 1
	b.run.CheckpointSink = func(ck *fl.Checkpoint) error {
		if err := stream.Flush(rec); err != nil {
			return err
		}
		if err := writeResume(j.dir, ck, stream.Offset()); err != nil {
			return err
		}
		// Past rounds never change (restoreRounds published a resumed
		// job's), so only the new tail is converted.
		s.mu.Lock()
		for i := len(j.rounds); i < len(ck.HistoryRounds); i++ {
			j.rounds = append(j.rounds, roundInfo(&ck.HistoryRounds[i]))
		}
		j.done = len(ck.HistoryRounds)
		s.mu.Unlock()
		return nil
	}

	hist, err := fl.Run(b.run, b.clients, b.test)
	var rounds []RoundInfo
	var done int
	var acc, total float64
	if hist != nil {
		rounds = roundInfos(hist.Rounds)
		done = len(hist.Rounds)
		acc = hist.FinalAccuracy
		total = hist.TotalSeconds
	}
	s.settle(j, stream, rec, err, rounds, done, acc, total)
}

// runAsync executes an asynchronous job. It has no synchronous round
// boundary to checkpoint at, so the whole trace flushes at the end and a
// daemon restart re-runs the job from scratch (deterministically).
func (s *Server) runAsync(j *job, b *built, stream *trace.Stream, rec *trace.Recorder) {
	cfg := fl.AsyncConfig{Config: b.run, MaxUpdates: b.maxUpdates}
	hist, err := fl.RunAsync(cfg, b.clients, b.test)
	var done int
	var acc, total float64
	if hist != nil {
		done = hist.Updates
		acc = hist.FinalAccuracy
		total = hist.VirtualSeconds
	}
	s.settle(j, stream, rec, err, nil, done, acc, total)
}

// runGossip executes a decentralized job; like async it is
// run-to-completion (restart re-runs from scratch).
func (s *Server) runGossip(j *job, b *built, stream *trace.Stream, rec *trace.Recorder) {
	cfg := fl.GossipConfig{Config: b.run, Topology: b.topology}
	hist, err := fl.RunGossip(cfg, b.clients, b.test)
	var done int
	var acc, total float64
	if hist != nil {
		done = hist.Rounds
		acc = hist.MeanAccuracy
		total = hist.TotalSeconds
	}
	s.settle(j, stream, rec, err, nil, done, acc, total)
}

// settle maps a finished engine run onto the job's terminal state — or,
// when the daemon interrupted it, leaves the on-disk state resumable and
// the in-memory state running (the process is about to exit anyway).
func (s *Server) settle(j *job, stream *trace.Stream, rec *trace.Recorder, runErr error, rounds []RoundInfo, done int, acc, total float64) {
	interrupted := errors.Is(runErr, fl.ErrCancelled) && s.closing.Load() && !j.cancelled.Load()
	if interrupted {
		s.opt.Logf("serve: %s interrupted after %d rounds; resumable on restart", j.id, done)
		return
	}

	// Flush whatever the last checkpoint (if any) did not cover: the
	// engine-final events of a sync run, or the entire trace of an
	// async/gossip run. Terminal states need no offset bookkeeping.
	if err := stream.Flush(rec); err != nil && runErr == nil {
		runErr = err
	}

	st := stateFile{State: StateCompleted, RoundsDone: done, FinalAccuracy: acc, TotalSeconds: total}
	switch {
	case runErr == nil:
	case errors.Is(runErr, fl.ErrCancelled):
		st.State = StateCancelled
	default:
		st.State = StateFailed
		st.Error = runErr.Error()
	}

	if rounds == nil {
		rounds = []RoundInfo{}
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, "rounds.json"), rounds); err != nil {
		s.opt.Logf("serve: %s: persist rounds: %v", j.id, err)
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, "state.json"), st); err != nil {
		s.opt.Logf("serve: %s: persist state: %v", j.id, err)
	}
	os.Remove(filepath.Join(j.dir, "resume.bin"))

	s.mu.Lock()
	j.state = st.State
	j.err = st.Error
	j.rounds = rounds
	j.done = done
	j.finalAcc = acc
	j.totalS = total
	s.mu.Unlock()
	s.opt.Logf("serve: %s %s (%d rounds, accuracy %.4f)", j.id, st.State, done, acc)
}

// fail records a pre-run failure (build or I/O error).
func (s *Server) fail(j *job, err error) {
	st := stateFile{State: StateFailed, Error: err.Error()}
	writeJSONAtomic(filepath.Join(j.dir, "state.json"), st)
	s.mu.Lock()
	j.state = StateFailed
	j.err = st.Error
	s.mu.Unlock()
	s.opt.Logf("serve: %s failed: %v", j.id, err)
}

// restoreRounds republishes the checkpointed history so status and
// rounds queries are correct from the moment the resumed job starts.
func (s *Server) restoreRounds(j *job, ck *fl.Checkpoint) {
	s.mu.Lock()
	j.rounds = roundInfos(ck.HistoryRounds)
	j.done = len(ck.HistoryRounds)
	s.mu.Unlock()
}

// resume.bin is the atomically-replaced (trace offset, checkpoint) pair:
// 8 bytes little-endian offset, then the fl.Checkpoint wire format.
func writeResume(dir string, ck *fl.Checkpoint, offset int64) error {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(offset))
	buf.Write(hdr[:])
	if err := ck.Save(&buf); err != nil {
		return err
	}
	path := filepath.Join(dir, "resume.bin")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readResume loads the snapshot; (nil, 0, nil) means a fresh start.
func readResume(dir string) (*fl.Checkpoint, int64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "resume.bin"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < 8 {
		return nil, 0, fmt.Errorf("resume snapshot truncated (%d bytes)", len(raw))
	}
	offset := int64(binary.LittleEndian.Uint64(raw[:8]))
	ck, err := fl.LoadCheckpoint(bytes.NewReader(raw[8:]))
	if err != nil {
		return nil, 0, err
	}
	return ck, offset, nil
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
