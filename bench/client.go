package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"fedsched/internal/serve"
)

// pollEvery is how often each outstanding job's status is read.
const pollEvery = 5 * time.Millisecond

// newHTTPClient keeps at most one idle connection per core, so the load
// generator never holds more connections than the box has processors.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
			MaxConnsPerHost: runtime.NumCPU(),
		},
	}
}

// jobRun is one job's life as the client saw it.
type jobRun struct {
	Template string // template name (which shape of job)
	Body     []byte // the JSON the daemon received
	ID       string
	Err      string // refusal, transport error, non-completed end state or short round count

	Sent      time.Time // POST sent
	Accepted  time.Time // POST returned
	Running   time.Time // first status that was not "queued"
	Terminal  time.Time // first terminal status
	Status    serve.JobStatus
	Rejected  bool // HTTP 429
	StatusN   int  // status reads
	StatusDur time.Duration

	Rounds []byte // GET /jobs/{id}/rounds
	Trace  []byte // GET /jobs/{id}/trace
}

func (j *jobRun) latency() float64 { return j.Terminal.Sub(j.Sent).Seconds() }

func terminal(state string) bool {
	return state == serve.StateCompleted || state == serve.StateFailed || state == serve.StateCancelled
}

// submit POSTs one job. A refusal or a 5xx is recorded on the run, not
// returned: it counts against failed_share and the workload goes on.
func submit(c *http.Client, base, template string, body []byte) *jobRun {
	j := &jobRun{Template: template, Body: body, Sent: time.Now()}
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	j.Accepted = time.Now()
	if err != nil {
		j.Err = err.Error()
		return j
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		j.Err = err.Error()
		return j
	}
	if resp.StatusCode != http.StatusAccepted {
		j.Rejected = resp.StatusCode == http.StatusTooManyRequests
		j.Err = fmt.Sprintf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return j
	}
	if err := json.Unmarshal(raw, &j.Status); err != nil {
		j.Err = "POST /jobs: " + err.Error()
		return j
	}
	j.ID = j.Status.ID
	return j
}

// awaitAll polls every accepted, unfinished job once per tick until all
// are terminal, stamping the first non-queued and first terminal
// observation of each.
func awaitAll(c *http.Client, base string, jobs []*jobRun, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		open := 0
		for _, j := range jobs {
			if j.Err != "" || !j.Terminal.IsZero() {
				continue
			}
			t0 := time.Now()
			st, err := getStatus(c, base, j.ID)
			now := time.Now()
			j.StatusN++
			j.StatusDur += now.Sub(t0)
			if err != nil {
				j.Err = err.Error()
				continue
			}
			j.Status = st
			if j.Running.IsZero() && st.State != serve.StateQueued {
				j.Running = now
			}
			if terminal(st.State) {
				j.Terminal = now
				switch {
				case st.State != serve.StateCompleted:
					j.Err = fmt.Sprintf("%s ended %s: %s", j.ID, st.State, st.Error)
				case st.RoundsDone != st.Rounds:
					j.Err = fmt.Sprintf("%s completed %d of %d rounds", j.ID, st.RoundsDone, st.Rounds)
				}
				continue
			}
			open++
		}
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, j := range jobs {
				if j.Err == "" && j.Terminal.IsZero() {
					j.Err = fmt.Sprintf("%s not terminal after %s", j.ID, timeout)
				}
			}
			return
		}
		time.Sleep(pollEvery)
	}
}

func getStatus(c *http.Client, base, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	raw, err := get(c, base+"/jobs/"+id)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("GET /jobs/%s: %w", id, err)
	}
	return st, nil
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// fetchOutputs reads a finished job's round history and trace; it runs
// after the timed phase so verification never competes with the jobs.
func fetchOutputs(c *http.Client, base string, j *jobRun) (time.Duration, error) {
	t0 := time.Now()
	var err error
	if j.Rounds, err = get(c, base+"/jobs/"+j.ID+"/rounds"); err != nil {
		return 0, err
	}
	if j.Trace, err = get(c, base+"/jobs/"+j.ID+"/trace"); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
