// Package serve is the multi-job serving layer: a long-running daemon
// that multiplexes many concurrent federated-learning jobs over the
// engines in internal/fl. Each job is an independent deterministic run —
// its own clients, model, RNG streams and trace — described by a JSON
// fedsched.JobConfig, materialized by fedsched.BuildJob and driven to
// completion on its own goroutine. The Server adds admission control
// over the shared tensor-lane budget, per-round checkpoint/trace
// persistence, and bit-identical resume of in-flight synchronous jobs
// across daemon restarts.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedsched"
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

// JobConfig is the job description accepted by POST /jobs.
type JobConfig = fedsched.JobConfig

// JobStatus is a job's state: the wire form of the status endpoints, the
// in-memory record, and what state.json reads back into.
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

// job is the in-memory record. The status and round history are guarded
// by Server.mu; the cancel flag is polled by the engine from its own
// goroutine.
type job struct {
	JobStatus
	num    int
	cfg    JobConfig
	dir    string
	rounds []RoundInfo
	// budget is the job's admission cost in lanes: Workers resolved the
	// way the engines resolve it (tensor.WorkerCount, no task cap), capped
	// against LaneBudget at dispatch.
	budget int

	cancelled atomic.Bool
}

// newJob fills in what a job's status takes from its (defaulted) config.
func newJob(id string, num int, cfg JobConfig, dir string) *job {
	// The async engine's unit of progress is the update, not the round.
	total := cfg.Rounds
	if cfg.Engine == "async" {
		total = cfg.MaxUpdates
	}
	return &job{
		JobStatus: JobStatus{ID: id, Name: cfg.Name, State: StateQueued, Engine: cfg.Engine, Rounds: total},
		num:       num, cfg: cfg, dir: dir, budget: tensor.WorkerCount(cfg.Workers, math.MaxInt),
	}
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

// jobFile is job.json, written once at submission.
type jobFile struct {
	ID     string    `json:"id"`
	Num    int       `json:"num"`
	Config JobConfig `json:"config"`
}

// persistState writes state.json at a lifecycle transition (atomically):
// the five fields of the status that the job's config does not determine,
// in the layout every earlier daemon wrote.
func persistState(dir string, st JobStatus) error {
	return writeJSONAtomic(filepath.Join(dir, "state.json"), struct {
		State         string  `json:"state"`
		Error         string  `json:"error,omitempty"`
		RoundsDone    int     `json:"rounds_done"`
		FinalAccuracy float64 `json:"final_accuracy,omitempty"`
		TotalSeconds  float64 `json:"total_seconds,omitempty"`
	}{st.State, st.Error, st.RoundsDone, st.FinalAccuracy, st.TotalSeconds})
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
		s.jobs[j.ID] = j
		if j.num >= s.nextNum {
			s.nextNum = j.num + 1
		}
		if j.State == StateQueued || j.State == StateRunning {
			j.Resumed = j.State == StateRunning
			j.State = StateQueued
			s.queue = append(s.queue, j)
		}
	}
	sort.Slice(s.queue, func(a, b int) bool { return s.queue[a].num < s.queue[b].num })
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// loadJob restores one job directory, trusting nothing in it: the config
// must still validate and the state must be one this daemon writes, or
// the job could neither be queued, resumed nor served as terminal.
func loadJob(dir string) (*job, error) {
	var jf jobFile
	if err := readJSON(filepath.Join(dir, "job.json"), &jf); err != nil {
		return nil, err
	}
	if jf.ID == "" {
		return nil, fmt.Errorf("job.json has no id")
	}
	if err := jf.Config.Validate(); err != nil {
		return nil, fmt.Errorf("job.json config: %w", err)
	}
	var st JobStatus
	if err := readJSON(filepath.Join(dir, "state.json"), &st); err != nil {
		return nil, err
	}
	j := newJob(jf.ID, jf.Num, jf.Config, dir)
	j.State, j.Error, j.RoundsDone, j.FinalAccuracy, j.TotalSeconds = st.State, st.Error, st.RoundsDone, st.FinalAccuracy, st.TotalSeconds
	switch j.State {
	case StateQueued, StateRunning:
	case StateCompleted, StateFailed, StateCancelled:
		// Terminal jobs keep their round history queryable across restarts.
		if err := readJSON(filepath.Join(dir, "rounds.json"), &j.rounds); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("state.json has unknown state %q", j.State)
	}
	return j, nil
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
	cfg = cfg.WithDefaults()
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
	id := fmt.Sprintf("job-%d", num)
	j := newJob(id, num, cfg, filepath.Join(s.opt.Dir, "jobs", id))
	if err := persistNewJob(j); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.dispatchLocked()
	st := j.JobStatus
	s.mu.Unlock()
	s.opt.Logf("serve: %s submitted (%s, %s)", j.ID, j.cfg.Engine, j.cfg.Dataset)
	writeJSON(w, http.StatusAccepted, st)
}

func persistNewJob(j *job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, "job.json"), jobFile{ID: j.ID, Num: j.num, Config: j.cfg}); err != nil {
		return err
	}
	return persistState(j.dir, j.JobStatus)
}

// handleList reports every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].num < all[b].num })
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.JobStatus
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
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
	st := j.JobStatus
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
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
		httpError(w, http.StatusNotFound, "no trace yet for %s", j.ID)
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
		st := j.State
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
	st := j.JobStatus
	switch st.State {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.State = StateCancelled
		st = j.JobStatus
		if err := persistState(j.dir, st); err != nil {
			s.opt.Logf("serve: %s: persist state: %v", j.ID, err)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	case StateRunning:
		j.cancelled.Store(true)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
	default:
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s is already %s", st.ID, st.State)
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
		j.State = StateRunning
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
// file and resume store for the duration.
func (s *Server) runJob(j *job) {
	defer s.release(j)

	if err := persistState(j.dir, JobStatus{State: StateRunning}); err != nil {
		s.fail(j, fmt.Errorf("persist state: %w", err))
		return
	}

	tf, err := os.OpenFile(filepath.Join(j.dir, "trace.jsonl"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		s.fail(j, fmt.Errorf("open trace: %w", err))
		return
	}
	defer tf.Close()

	// A resumed job restores the newest (checkpoint, trace offset) pair its
	// resume store holds intact; a fresh or never-checkpointed job starts
	// from zero. Anything in the trace file past the recorded offset is an
	// unacknowledged tail from the interrupted run — the resumed engine
	// re-emits it bit-identically. Only the synchronous engine checkpoints.
	var store *resumeStore
	var resume *fl.Checkpoint
	var base int64
	if j.cfg.Engine == "sync" {
		if store, err = openResumeStore(j.dir); err != nil {
			s.fail(j, fmt.Errorf("open resume store: %w", err))
			return
		}
		defer store.close()
		if j.Resumed {
			if resume, base, err = store.load(tf); err != nil {
				s.opt.Logf("serve: %s: unusable resume snapshot (%v); restarting from scratch", j.ID, err)
			}
		}
		if resume == nil {
			if err := store.reset(); err != nil {
				s.fail(j, fmt.Errorf("reset resume store: %w", err))
				return
			}
		}
	}
	if err := tf.Truncate(base); err != nil {
		s.fail(j, fmt.Errorf("truncate trace: %w", err))
		return
	}
	if _, err := tf.Seek(base, io.SeekStart); err != nil {
		s.fail(j, fmt.Errorf("seek trace: %w", err))
		return
	}
	stream := trace.NewStream(tf, base)

	// A log, not a ring: it only ever holds the events since the last
	// flush, and grows past its initial 256 to the largest such batch
	// instead of dropping.
	rec := trace.NewLog(256)
	run, err := fedsched.BuildJob(j.cfg, rec)
	if err != nil {
		s.fail(j, fmt.Errorf("build job: %w", err))
		return
	}
	if resume != nil {
		// Rebuilding re-ran the scheduler, which re-emitted its schedule
		// and solver events — but the original run's first flush already
		// persisted those. Drop the duplicates, and republish the
		// checkpointed history so status and rounds queries are correct
		// from the moment the resumed job starts.
		rec.Reset()
		run.Resume = resume
		s.publishRounds(j, resume.HistoryRounds)
	}

	// The engines poll Cancel on their own goroutine between rounds (at
	// every virtual event for async) — the same contract as the
	// checkpoint sink, so it doubles as the flush point of the engines
	// without round checkpoints: every poll that finds events writes them.
	var flushErr error
	run.Cancel = func() bool {
		if flushErr == nil {
			flushErr = stream.Flush(rec)
		}
		return flushErr != nil || j.cancelled.Load() || s.closing.Load()
	}
	if j.cfg.Engine == "sync" {
		// Per-round persistence, the one thing only the synchronous engine
		// supports: after every round the sink flushes the trace, then has
		// the store record the (checkpoint, trace offset) pair — see
		// resume.go. A crash between the steps leaves the previous round's
		// slot as the newest intact one plus a trace tail past its offset —
		// which the next resume truncates and regenerates, keeping the file
		// byte-identical to an uninterrupted run's.
		run.CheckpointEvery = 1
		run.CheckpointSink = func(ck *fl.Checkpoint) error {
			if err := stream.Flush(rec); err != nil {
				return err
			}
			if err := store.write(ck, stream.Offset()); err != nil {
				return err
			}
			s.publishRounds(j, ck.HistoryRounds)
			return nil
		}
	}

	s.opt.Logf("serve: %s running (%s, budget %d)", j.ID, j.cfg.Engine, j.budget)
	out, runErr := run.Run()
	if flushErr != nil {
		runErr = flushErr
	}
	if errors.Is(runErr, fl.ErrCancelled) && s.closing.Load() && !j.cancelled.Load() {
		// The daemon interrupted the run: the on-disk state stays
		// resumable and the in-memory state running (the process is about
		// to exit anyway).
		s.opt.Logf("serve: %s interrupted after %d rounds; resumable on restart", j.ID, out.Done)
		return
	}

	// Flush whatever the last checkpoint or poll did not cover. Terminal
	// states need no offset bookkeeping.
	if err := stream.Flush(rec); err != nil && runErr == nil {
		runErr = err
	}
	s.settle(j, out, runErr)
}

// settle maps a finished engine run onto the job's terminal state.
func (s *Server) settle(j *job, out fedsched.Outcome, runErr error) {
	s.mu.Lock()
	st := j.JobStatus
	s.mu.Unlock()
	st.State, st.RoundsDone, st.FinalAccuracy, st.TotalSeconds = StateCompleted, out.Done, out.Accuracy, out.Seconds
	switch {
	case runErr == nil:
	case errors.Is(runErr, fl.ErrCancelled):
		st.State = StateCancelled
	default:
		st.State = StateFailed
		st.Error = runErr.Error()
	}
	rounds := []RoundInfo{}
	if out.Sync != nil {
		rounds = roundInfos(out.Sync.Rounds)
	}

	if err := writeJSONAtomic(filepath.Join(j.dir, "rounds.json"), rounds); err != nil {
		s.opt.Logf("serve: %s: persist rounds: %v", j.ID, err)
	}
	s.persistTerminal(j, st)

	s.mu.Lock()
	j.JobStatus = st
	j.rounds = rounds
	s.mu.Unlock()
	s.opt.Logf("serve: %s %s (%d rounds, accuracy %.4f)", j.ID, st.State, out.Done, out.Accuracy)
}

// fail records a pre-run failure (build or I/O error). By then runJob
// may have created the resume store; like settle, fail removes it.
func (s *Server) fail(j *job, err error) {
	st := JobStatus{State: StateFailed, Error: err.Error()}
	s.persistTerminal(j, st)
	s.mu.Lock()
	j.State, j.Error = st.State, st.Error
	s.mu.Unlock()
	s.opt.Logf("serve: %s failed: %v", j.ID, err)
}

// publishRounds extends the job's queryable history to the engine's.
// Past rounds never change, so only the new tail is converted.
func (s *Server) publishRounds(j *job, hist []fl.RoundStats) {
	s.mu.Lock()
	for i := len(j.rounds); i < len(hist); i++ {
		j.rounds = append(j.rounds, roundInfo(&hist[i]))
	}
	j.RoundsDone = len(hist)
	s.mu.Unlock()
}

// writeAtomic replaces path with data by tmp-write + rename, so a crash
// mid-write never damages the previous good file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, append(data, '\n'))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
