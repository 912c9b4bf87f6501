package relation

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
)

// reorderedRef is the keys Index returns, from the tuples: filter,
// project, pack at the run's field width, sort.
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

// directoryBytes is what the level-0 directory of an n-row trie index
// costs: 2^(⌊log₂ n⌋−2) uint32 bucket starts from 64 rows on, nothing
// below.
func directoryBytes(n int) int64 {
	if n < 64 {
		return 0
	}
	return 4 << (bits.Len(uint(n)) - 3)
}

// checkDirectory holds an index's directory to its definition: Starts[b]
// is the first row whose key>>Shift is ≥ b, the largest key falls in a
// bucket the directory has, and the bucket count follows directoryBytes.
func checkDirectory(t *testing.T, what string, ix TrieIndex) {
	t.Helper()
	n := len(ix.Keys)
	if got := 4 * int64(len(ix.Starts)); got != directoryBytes(n) {
		t.Fatalf("%s: %d rows have a %d-byte directory, want %d", what, n, got, directoryBytes(n))
	}
	if n == 0 || ix.Starts == nil {
		return
	}
	if top := ix.Keys[n-1] >> ix.Shift; top >= uint64(len(ix.Starts)) {
		t.Fatalf("%s: the largest key is in bucket %d of %d", what, top, len(ix.Starts))
	}
	for b, s := range ix.Starts {
		want := sort.Search(n, func(i int) bool { return ix.Keys[i]>>ix.Shift >= uint64(b) })
		if int(s) != want {
			t.Fatalf("%s: bucket %d starts at row %d, want %d", what, b, s, want)
		}
	}
}

// TestReorderedMatchesReference: every (column order, repeated pairs) a
// trie can ask for, the run's own order among them, asked in sequence of
// one sealed run — each index's keys are the reference's whatever was
// remembered before it and its directory is the one its keys define, the
// run's own words are untouched (and are the keys of its own order),
// asking again returns the remembered slices themselves, and Bytes counts
// the words, one permuted copy and both directories exactly.
func TestReorderedMatchesReference(t *testing.T) {
	asks := []struct {
		cols []int
		eq   [][2]int
	}{
		{[]int{1, 0, 2}, nil},
		{[]int{0, 1, 2}, nil}, // the run's own order
		{[]int{2, 1, 0}, nil},
		{[]int{0, 1}, [][2]int{{0, 2}}}, // R(x,y,x)
		{[]int{0, 1}, [][2]int{{1, 2}}}, // R(x,y,y): same columns, other pairs
		{[]int{1, 0}, [][2]int{{1, 2}}},
		{[]int{0}, [][2]int{{0, 1}, {0, 2}}}, // R(x,x,x)
		{[]int{0, 1}, [][2]int{{0, 2}}},
		{[]int{0, 1, 2}, nil},
	}
	rng := rand.New(rand.NewPCG(27, 1))
	run := randomRun(rng, 3, 400)
	words, _ := run.Words()
	before := slices.Clone(words)
	own := int64(0) // the own order's directory, once asked for
	other := 0      // rows of the permuted copy standing
	for i, a := range asks {
		what := fmt.Sprintf("ask %d (%v, %v)", i, a.cols, a.eq)
		got := run.Index(a.cols, a.eq)
		if want := reorderedRef(run, a.cols, a.eq); !slices.Equal(got.Keys, want) {
			t.Fatalf("%s: %d rows, reference %d", what, len(got.Keys), len(want))
		}
		checkDirectory(t, what, got)
		again := run.Index(slices.Clone(a.cols), slices.Clone(a.eq))
		if len(got.Keys) > 0 && &again.Keys[0] != &got.Keys[0] || len(got.Starts) > 0 && &again.Starts[0] != &got.Starts[0] {
			t.Errorf("%s: asked twice, built twice", what)
		}
		if len(a.eq) == 0 && slices.Equal(a.cols, []int{0, 1, 2}) {
			if &got.Keys[0] != &words[0] {
				t.Errorf("%s: the own order copied the words", what)
			}
			own = directoryBytes(len(words))
		} else {
			other = len(got.Keys)
		}
		if want := 8*int64(len(words)+other) + own + directoryBytes(other); run.Bytes() != want {
			t.Errorf("%s: run keeps %d bytes, want its words, one permuted copy and the directories: %d", what, run.Bytes(), want)
		}
	}
	if own == 0 {
		t.Fatal("the run has no own-order directory to count")
	}
	if !slices.Equal(words, before) {
		t.Error("Index wrote to the run's words")
	}

	// A filter that keeps nothing is remembered like any other.
	none := RunOf(2, []Tuple{{1, 2}, {3, 4}})
	if got := none.Index([]int{0}, [][2]int{{0, 1}}); len(got.Keys) != 0 || got.Starts != nil {
		t.Errorf("S(x,x) over rows without a repeat: %+v", got)
	}

	// An open run is sorted for the caller and remembers nothing.
	open := NewRun(2)
	open.Append(Tuple{5, 1})
	open.Append(Tuple{2, 9})
	if got := open.Index([]int{1, 0}, nil); !slices.Equal(got.Keys, []uint64{1<<32 | 5, 9<<32 | 2}) {
		t.Errorf("open run reordered: %x", got.Keys)
	}
	if got := open.Index([]int{0, 1}, nil); !slices.Equal(got.Keys, []uint64{2<<32 | 9, 5<<32 | 1}) {
		t.Errorf("open run in its own order: %x", got.Keys)
	}
	if open.Bytes() != 16 {
		t.Errorf("open run keeps %d bytes, want its two words", open.Bytes())
	}
	// A flat run keeps its values.
	if flat := RunOf(2, []Tuple{{1 << 40, 1}}); flat.Bytes() != 16 {
		t.Errorf("flat run keeps %d bytes, want 16", flat.Bytes())
	}
}

// TestTrieIndexDirectory: the directory over keys the join meets at its
// extremes — row counts on both sides of each power of two from 63 on,
// one heavy top value filling a bucket with empty buckets around it, keys
// crowding 0 or the full word, arity-1 words up to math.MaxInt.
func TestTrieIndexDirectory(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	kinds := []struct {
		name string
		gen  func() uint64
	}{
		{"uniform", func() uint64 { return rng.Uint64() >> 1 }},
		{"heavy", func() uint64 {
			if rng.IntN(2) == 0 {
				return 7 << 40
			}
			return rng.Uint64N(1 << 44)
		}},
		{"small", func() uint64 { return rng.Uint64N(5) }},
		{"max", func() uint64 { return math.MaxInt - rng.Uint64N(3) }},
	}
	for _, n := range []int{63, 64, 65, 127, 128, 1000, 4096, 5000} {
		for _, k := range kinds {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = k.gen()
			}
			slices.Sort(keys)
			run, err := NewRunFromWords(1, keys)
			if err != nil {
				t.Fatal(err)
			}
			ix := run.Index([]int{0}, nil)
			checkDirectory(t, fmt.Sprintf("%s/%d", k.name, n), ix)
			if again := run.Index([]int{0}, nil); len(ix.Starts) > 0 && &again.Starts[0] != &ix.Starts[0] {
				t.Errorf("%s/%d: the own order's directory was built twice", k.name, n)
			}
		}
	}
}

// TestReorderedIsBuiltOnce: readers that share a sealed run — the
// sessions attached to one resident entry — build each index once between
// them, keys and directory, whether they read the run in another order or
// in its own. Run with -race: the remembered indexes are the one field of
// a sealed run written after Seal.
func TestReorderedIsBuiltOnce(t *testing.T) {
	run := randomRun(rand.New(rand.NewPCG(27, 2)), 2, 5000)
	orders := [][]int{{1, 0}, {0, 1}}
	got := make([]TrieIndex, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run.Index(orders[i%2], nil)
			_ = run.Bytes()
		}()
	}
	wg.Wait()
	for i, ix := range got {
		first := got[i%2]
		if &ix.Keys[0] != &first.Keys[0] || &ix.Starts[0] != &first.Starts[0] {
			t.Errorf("reader %d got its own copy", i)
		}
	}
	for i, cols := range orders {
		if want := reorderedRef(run, cols, nil); !slices.Equal(got[i].Keys, want) {
			t.Errorf("shared order %v differs from the reference", cols)
		}
		checkDirectory(t, fmt.Sprint(cols), got[i])
	}
}

// TestRunMaxValueIsRemembered: a sealed run answers MaxValue from one
// walk, whoever asks first and however many ask at once (-race); an
// open run, which appends may still raise, walks every time.
func TestRunMaxValueIsRemembered(t *testing.T) {
	open := NewRun(2)
	open.Append(Tuple{3, 9})
	if got := open.MaxValue(); got != 9 {
		t.Fatalf("open run: MaxValue %d, want 9", got)
	}
	open.Append(Tuple{12, 1})
	if got := open.MaxValue(); got != 12 {
		t.Fatalf("open run after an append: MaxValue %d, want 12", got)
	}
	for _, sealed := range []*Run{RunOf(2, []Tuple{{3, 9}, {12, 1}}), RunOf(2, []Tuple{{1 << 40, 3}, {2, 5}}), RunOf(2, nil)} {
		want := sealed.maxOf()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := sealed.MaxValue(); got != want {
					t.Errorf("sealed run: MaxValue %d, want %d", got, want)
				}
			}()
		}
		wg.Wait()
		if sealed.maxValue.v++; sealed.MaxValue() != want+1 {
			t.Fatal("a sealed run walked itself again")
		}
	}
}

// TestRunPrefix: a prefix of a sealed run is its first k rows, sealed,
// on the run's own memory — on both layouts, and at every edge of k.
func TestRunPrefix(t *testing.T) {
	packed := RunOf(2, []Tuple{{5, 1}, {1, 2}, {3, 3}, {1, 2}, {9, 0}})
	flat := RunOf(2, []Tuple{{1 << 40, 1}, {2, 2}, {3, 1 << 41}, {2, 2}})
	for _, run := range []*Run{packed, flat} {
		all := run.Tuples()
		for _, k := range []int{-1, 0, 1, run.Len() - 1, run.Len(), run.Len() + 5} {
			got := run.Prefix(k)
			want := all[:min(max(k, 0), len(all))]
			if !slices.EqualFunc(got.Tuples(), want, Tuple.Equal) || got.Len() != len(want) {
				t.Fatalf("packed=%v k=%d: prefix %v, want %v", run.packed, k, got.Tuples(), want)
			}
			if got == nil {
				continue
			}
			if !got.Sealed() || got.Arity() != run.Arity() {
				t.Fatalf("packed=%v k=%d: sealed %v arity %d", run.packed, k, got.Sealed(), got.Arity())
			}
			if run.packed && &got.words[0] != &run.words[0] || !run.packed && &got.flat[0] != &run.flat[0] {
				t.Fatalf("packed=%v k=%d: the prefix copied the run", run.packed, k)
			}
		}
	}
}
