package relation

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// reorderedRef is Reordered from the tuples: filter, project, pack at the
// run's field width, sort.
func reorderedRef(run *Run, cols []int, eq [][2]int) []uint64 {
	shift := PackedShift(run.Arity())
	var keys []uint64
rows:
	for _, t := range run.Tuples() {
		for _, e := range eq {
			if t[e[0]] != t[e[1]] {
				continue rows
			}
		}
		var key uint64
		for _, c := range cols {
			key = key<<shift | uint64(t[c])
		}
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// randomRun returns a sealed packed run of n arity-column rows over a
// small domain, so repeated-variable filters keep some rows and drop
// others.
func randomRun(rng *rand.Rand, arity, n int) *Run {
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = make(Tuple, arity)
		for j := range tuples[i] {
			tuples[i][j] = rng.IntN(6)
		}
	}
	return RunOf(arity, tuples)
}

// TestReorderedMatchesReference: every (column order, repeated pairs) a
// trie can ask for, asked in sequence of one sealed run — each answer is
// the reference's whatever was remembered before it, the run's own words
// are untouched, and asking again returns the remembered slice itself.
func TestReorderedMatchesReference(t *testing.T) {
	asks := []struct {
		cols []int
		eq   [][2]int
	}{
		{[]int{1, 0, 2}, nil},
		{[]int{2, 1, 0}, nil},
		{[]int{0, 1}, [][2]int{{0, 2}}}, // R(x,y,x)
		{[]int{0, 1}, [][2]int{{1, 2}}}, // R(x,y,y): same columns, other pairs
		{[]int{1, 0}, [][2]int{{1, 2}}},
		{[]int{0}, [][2]int{{0, 1}, {0, 2}}}, // R(x,x,x)
		{[]int{0, 1}, [][2]int{{0, 2}}},
	}
	rng := rand.New(rand.NewPCG(27, 1))
	run := randomRun(rng, 3, 400)
	words, _ := run.Words()
	before := slices.Clone(words)
	for i, a := range asks {
		got := run.Reordered(a.cols, a.eq)
		if want := reorderedRef(run, a.cols, a.eq); !slices.Equal(got, want) {
			t.Fatalf("ask %d (%v, %v): %d rows, reference %d", i, a.cols, a.eq, len(got), len(want))
		}
		if again := run.Reordered(slices.Clone(a.cols), slices.Clone(a.eq)); len(got) > 0 && &again[0] != &got[0] {
			t.Errorf("ask %d: asked twice, built twice", i)
		}
		if want := 8 * int64(len(words)+len(got)); run.Bytes() != want {
			t.Errorf("ask %d: run keeps %d bytes, want its words and one order: %d", i, run.Bytes(), want)
		}
	}
	if !slices.Equal(words, before) {
		t.Error("Reordered wrote to the run's words")
	}

	// A filter that keeps nothing is remembered like any other.
	none := RunOf(2, []Tuple{{1, 2}, {3, 4}})
	if got := none.Reordered([]int{0}, [][2]int{{0, 1}}); len(got) != 0 {
		t.Errorf("S(x,x) over rows without a repeat: %v", got)
	}

	// An open run is sorted for the caller and remembers nothing.
	open := NewRun(2)
	open.Append(Tuple{5, 1})
	open.Append(Tuple{2, 9})
	if got := open.Reordered([]int{1, 0}, nil); !slices.Equal(got, []uint64{1<<32 | 5, 9<<32 | 2}) {
		t.Errorf("open run reordered: %x", got)
	}
	if open.Bytes() != 16 {
		t.Errorf("open run keeps %d bytes, want its two words", open.Bytes())
	}
	// A flat run keeps its values.
	if flat := RunOf(2, []Tuple{{1 << 40, 1}}); flat.Bytes() != 16 {
		t.Errorf("flat run keeps %d bytes, want 16", flat.Bytes())
	}
}

// TestReorderedIsBuiltOnce: readers that share a sealed run — the
// sessions attached to one resident entry — sort it once between them.
// Run with -race: the remembered order is the one field of a sealed run
// written after Seal.
func TestReorderedIsBuiltOnce(t *testing.T) {
	run := randomRun(rand.New(rand.NewPCG(27, 2)), 2, 5000)
	got := make([][]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run.Reordered([]int{1, 0}, nil)
			_ = run.Bytes()
		}()
	}
	wg.Wait()
	for i, keys := range got {
		if &keys[0] != &got[0][0] {
			t.Errorf("reader %d got its own copy", i)
		}
	}
	if want := reorderedRef(run, []int{1, 0}, nil); !slices.Equal(got[0], want) {
		t.Error("shared order differs from the reference")
	}
}
