package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public functions (spans inside the product are a later
// issue). Times are nanoseconds since the recorder was created.
type span struct {
	ID int `json:"id"`
	// Parent is the id of the span that caused this one, 0 for a root.
	Parent int `json:"parent"`
	// Request groups the spans of one replayed request (or probe pass).
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(parent, request int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// time runs fn inside a span under parent, which fn receives as the
// parent of its own spans.
func (r *recorder) time(parent, request int, name string, fn func(self int) error) (time.Duration, error) {
	id := r.start(parent, request, name)
	err := fn(id)
	return r.end(id), err
}

// duration returns a closed span's length.
func (r *recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id-1].EndNs - r.spans[id-1].StartNs)
}

// childTime sums the durations of a span's direct children.
func (r *recorder) childTime(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for _, s := range r.spans {
		if s.Parent == id {
			sum += s.EndNs - s.StartNs
		}
	}
	return time.Duration(sum)
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
