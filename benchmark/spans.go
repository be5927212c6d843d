package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark, around its calls into each layer; spans of one request share
// Req. Times are microseconds since the span log was opened. A span's self
// time is its duration minus the part its children cover.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1: no parent
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID for children to name as parent.
func (l *spanLog) add(parent int, name, req string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartUS: us(start.Sub(l.t0)), EndUS: us(end.Sub(l.t0))})
	return id
}

// close moves the end of span id, for a parent opened before its children.
func (l *spanLog) close(id int, end time.Time) {
	l.mu.Lock()
	l.spans[id].EndUS = us(end.Sub(l.t0))
	l.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took.
func (l *spanLog) timed(parent int, name, req string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(parent, name, req, start, end)
	return end.Sub(start)
}

func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
