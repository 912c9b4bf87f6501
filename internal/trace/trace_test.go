package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestTraceSpanTree(t *testing.T) {
	tr := New("q-1", 42)
	root := tr.Root()
	if root != 1 {
		t.Fatalf("root id = %d, want 1", root)
	}
	r1 := tr.StartSpan(root, "round", 1, -1)
	w0 := tr.StartSpan(r1, "worker", 1, 0)
	tr.SetSpanLoad(w0, 10, 640)
	tr.EndSpan(w0)
	tr.EndSpan(r1)
	tr.Event(root, "replace-worker", 2, "timeout")
	tr.Finish()

	if got := len(tr.Spans); got != 4 {
		t.Fatalf("spans = %d, want 4", got)
	}
	if tr.Spans[1].Parent != root || tr.Spans[2].Parent != r1 {
		t.Fatalf("bad parents: %+v", tr.Spans)
	}
	if tr.Spans[2].LoadTuples != 10 || tr.Spans[2].LoadBits != 640 {
		t.Fatalf("load not recorded: %+v", tr.Spans[2])
	}
	if tr.Spans[3].Name != "replace-worker" || tr.Spans[3].Note != "timeout" {
		t.Fatalf("event not recorded: %+v", tr.Spans[3])
	}
	if tr.DurationNs <= 0 {
		t.Fatalf("Finish did not stamp duration")
	}
	// Finish is idempotent.
	d := tr.DurationNs
	tr.Finish()
	if tr.DurationNs != d {
		t.Fatalf("Finish not idempotent")
	}
}

// TestNilTraceRecordsNothing: an untraced execution calls the recording
// methods on a nil trace, which records nothing and hands out span id 0.
func TestNilTraceRecordsNothing(t *testing.T) {
	var tr *Trace
	id := tr.StartSpan(0, "round", 1, -1)
	tr.SetSpanLoad(id, 10, 640)
	tr.EndSpan(id)
	tr.Event(id, "replace-worker", 2, "timeout")
	if id != 0 {
		t.Fatalf("a nil trace opened span %d, want 0", id)
	}
}

func TestTraceWorkerLoadAndRounds(t *testing.T) {
	tr := New("q-2", 1)
	tr.P = 3
	for round := 1; round <= 2; round++ {
		r := tr.StartSpan(0, "round", round, -1)
		for w := 0; w < 3; w++ {
			id := tr.StartSpan(r, "worker", round, w)
			tr.SetSpanLoad(id, int64(10*round+w), 0)
			tr.EndSpan(id)
		}
		tr.EndSpan(r)
	}
	tr.Finish()
	if got := tr.Rounds(); got != 2 {
		t.Fatalf("Rounds = %d, want 2", got)
	}
	load := tr.WorkerLoad()
	want := []int64{20, 21, 22} // max across rounds
	for i := range want {
		if load[i] != want[i] {
			t.Fatalf("WorkerLoad = %v, want %v", load, want)
		}
	}
}

func TestTraceSnapshotIsDeepCopy(t *testing.T) {
	tr := New("q-3", 7)
	id := tr.StartSpan(0, "round", 1, -1)
	snap := tr.Snapshot()
	tr.SetSpanLoad(id, 99, 99)
	if snap.Spans[1].LoadTuples != 0 {
		t.Fatalf("snapshot aliases live span")
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := New("q-4", 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := tr.StartSpan(0, "worker", i, w)
				tr.SetSpanLoad(id, int64(i), 0)
				tr.EndSpan(id)
			}
		}(g)
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.Spans); got != 1+8*50 {
		t.Fatalf("spans = %d, want %d", got, 1+8*50)
	}
	seen := make(map[uint64]bool)
	for _, s := range tr.Spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestRingEvictionAndRecent(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(New(fmt.Sprintf("q-%d", i), uint64(i)))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if _, ok := r.Get("q-1"); ok {
		t.Fatalf("q-1 should be evicted")
	}
	if _, ok := r.Get("q-5"); !ok {
		t.Fatalf("q-5 should be resident")
	}
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].QueryID != "q-5" || recent[1].QueryID != "q-4" {
		t.Fatalf("Recent order wrong: %v", recent)
	}
	// Re-adding an existing id replaces without growing.
	r.Add(New("q-5", 99))
	if r.Len() != 3 {
		t.Fatalf("replace grew ring: %d", r.Len())
	}
}
