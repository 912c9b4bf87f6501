// Package trace provides lightweight per-query distributed tracing for
// the BSP runtime. A Trace is created per query and handed, as the
// Trace of a dist.Options, to every dist.Cluster the query opens (one for a
// conjunctive query, one per rule execution and recursive-rule
// maintainer for a Datalog program); each records one span per round, one child span per worker per round carrying the
// worker's actual received load (tuples and bits), plus spans for
// join/gather phases and recovery events. Completed traces are kept in
// a bounded in-memory Ring and exported as JSON by mpcserve's
// GET /trace/{queryID} endpoint.
//
// Span identifiers are sequential per trace, so two executions of the
// same plan over different transports produce structurally identical
// span trees (timestamps aside) — the property the trace differential
// test asserts.
package trace

import (
	"sync"
	"time"
)

// Span is a single timed operation within a Trace. Worker is the
// destination worker index for per-worker spans and -1 for
// coordinator-side spans. LoadTuples and LoadBits are the actual
// received load recorded for per-worker round spans; they are the
// observable the planner's predicted L bounds. A gather span records the
// rows it shipped to the coordinator in LoadTuples, and in its Note
// those rows against the view's full count.
type Span struct {
	ID          uint64 `json:"id"`
	Parent      uint64 `json:"parent"`
	Name        string `json:"name"`
	Round       int    `json:"round"`
	Worker      int    `json:"worker"`
	StartUnixNs int64  `json:"startUnixNs"`
	DurationNs  int64  `json:"durationNs"`
	LoadTuples  int64  `json:"loadTuples,omitempty"`
	LoadBits    int64  `json:"loadBits,omitempty"`
	Note        string `json:"note,omitempty"`
}

// Trace accumulates the spans of one query execution. All exported
// fields are written by the owner (serve layer or cluster) before the
// trace is published to a Ring; Snapshot returns a consistent copy for
// rendering.
type Trace struct {
	QueryID string `json:"queryID"`
	TraceID uint64 `json:"traceID"`
	Tenant  string `json:"tenant,omitempty"`
	Query   string `json:"query,omitempty"`
	Engine  string `json:"engine,omitempty"`
	P       int    `json:"p"`

	// PredictedLoadTuples is the planner's predicted per-worker
	// per-round received load L for this plan (plan.CostEstimate
	// .LoadTuples); worker spans record the actual value it bounds.
	PredictedLoadTuples float64 `json:"predictedLoadTuples"`
	// BudgetLoadTuples is the hard cap c·N/p^(1-eps) the executor
	// enforces (0 when unknown).
	BudgetLoadTuples int64 `json:"budgetLoadTuples,omitempty"`

	Replacements int     `json:"replacements"`
	StartUnixNs  int64   `json:"startUnixNs"`
	DurationNs   int64   `json:"durationNs"`
	Spans        []*Span `json:"spans"`

	mu     sync.Mutex
	nextID uint64
	root   uint64
	done   bool
}

// New creates a Trace with an open root span named "query".
func New(queryID string, traceID uint64) *Trace {
	t := &Trace{
		QueryID:     queryID,
		TraceID:     traceID,
		StartUnixNs: time.Now().UnixNano(),
	}
	t.root = t.StartSpan(0, "query", 0, -1)
	return t
}

// Root returns the id of the root "query" span.
func (t *Trace) Root() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// StartSpan opens a span under parent (0 means the root) and returns
// its id. Safe for concurrent use. A nil trace records nothing and
// returns 0, as do EndSpan, SetSpanLoad and Event: an untraced
// execution calls them all the same.
func (t *Trace) StartSpan(parent uint64, name string, round, worker int) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if parent == 0 && t.nextID != 1 {
		parent = t.root
	}
	s := &Span{
		ID:          t.nextID,
		Parent:      parent,
		Name:        name,
		Round:       round,
		Worker:      worker,
		StartUnixNs: time.Now().UnixNano(),
	}
	t.Spans = append(t.Spans, s)
	return s.ID
}

// EndSpan closes the span with the given id. Unknown ids are ignored.
func (t *Trace) EndSpan(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.find(id); s != nil && s.DurationNs == 0 {
		s.DurationNs = time.Now().UnixNano() - s.StartUnixNs
	}
}

// SetSpanLoad records the actual received load on the span with the
// given id.
func (t *Trace) SetSpanLoad(id uint64, tuples, bits int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.find(id); s != nil {
		s.LoadTuples = tuples
		s.LoadBits = bits
	}
}

// SetSpanNote records a note on the span with the given id.
func (t *Trace) SetSpanNote(id uint64, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.find(id); s != nil {
		s.Note = note
	}
}

// Event records an instantaneous span (duration 0 is kept) under
// parent, used for recovery/replacement events.
func (t *Trace) Event(parent uint64, name string, worker int, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.Spans = append(t.Spans, &Span{
		ID:          t.nextID,
		Parent:      parent,
		Name:        name,
		Worker:      worker,
		Note:        note,
		StartUnixNs: time.Now().UnixNano(),
	})
}

// Finish closes the root span and marks the trace complete. It is
// idempotent.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	root := t.root
	t.mu.Unlock()
	t.EndSpan(root)
	t.mu.Lock()
	t.DurationNs = time.Now().UnixNano() - t.StartUnixNs
	t.mu.Unlock()
}

// find returns the span with the given id, or nil. Caller holds mu.
// Span ids are assigned sequentially so the slice is ordered by id.
func (t *Trace) find(id uint64) *Span {
	if id == 0 || id > uint64(len(t.Spans)) {
		return nil
	}
	return t.Spans[id-1]
}

// Snapshot returns a deep copy safe to marshal while the trace may
// still be mutated.
func (t *Trace) Snapshot() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := &Trace{
		QueryID:             t.QueryID,
		TraceID:             t.TraceID,
		Tenant:              t.Tenant,
		Query:               t.Query,
		Engine:              t.Engine,
		P:                   t.P,
		PredictedLoadTuples: t.PredictedLoadTuples,
		BudgetLoadTuples:    t.BudgetLoadTuples,
		Replacements:        t.Replacements,
		StartUnixNs:         t.StartUnixNs,
		DurationNs:          t.DurationNs,
		Spans:               make([]*Span, len(t.Spans)),
	}
	for i, s := range t.Spans {
		c := *s
		cp.Spans[i] = &c
	}
	return cp
}

// WorkerLoad returns, per worker index, the maximum actual per-round
// received load (in tuples) recorded across all worker spans, sized to
// p entries. It is the "actual" column of the predicted-vs-actual
// heatmap.
func (t *Trace) WorkerLoad() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.P <= 0 {
		return nil
	}
	load := make([]int64, t.P)
	for _, s := range t.Spans {
		if s.Worker >= 0 && s.Worker < t.P && s.LoadTuples > load[s.Worker] {
			load[s.Worker] = s.LoadTuples
		}
	}
	return load
}

// Rounds returns the number of distinct round spans recorded.
func (t *Trace) Rounds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.Spans {
		if s.Name == "round" {
			n++
		}
	}
	return n
}
