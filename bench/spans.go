package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (0 = none).
// Times are nanoseconds since the log's first span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Job      string `json:"job"`
	StartNS  int64  `json:"start"`
	EndNS    int64  `json:"end"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so measured code paths are the same with spans on or off.
type spanLog struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
}

// add records a span and returns its ID for use as a parent.
func (l *spanLog) add(parent int, name, job string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.origin.IsZero() {
		l.origin = start
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, Job: job,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds()})
	return id
}

// setEnd closes a span that was opened before its end was known.
func (l *spanLog) setEnd(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndNS = end.Sub(l.origin).Nanoseconds()
	l.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func (l *spanLog) selfByName() map[string]float64 {
	out := map[string]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	self := selfTimes(l.spans)
	for _, s := range l.spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
