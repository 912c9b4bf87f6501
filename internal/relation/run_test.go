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

// reorderedRef is the rows Index returns, from the tuples: filter,
// project, encode at the run's field width and fields a word, sort.
func reorderedRef(run *Run, cols []int, eq [][2]int) []uint64 {
	l := layout{arity: len(cols), stride: (len(cols) + run.per - 1) / run.per, per: run.per, width: run.width, mask: run.mask, flip: run.flip}
	var keys []uint64
	var rows [][]uint64
	for _, t := range run.Tuples() {
		if slices.ContainsFunc(eq, func(e [2]int) bool { return t[e[0]] != t[e[1]] }) {
			continue
		}
		sel := make(Tuple, len(cols))
		for d, c := range cols {
			sel[d] = t[c]
		}
		row := make([]uint64, l.stride)
		l.encode(sel, row)
		rows = append(rows, row)
	}
	slices.SortFunc(rows, slices.Compare)
	for _, row := range rows {
		keys = append(keys, row...)
	}
	return keys
}

// rowsOf interleaves an index's words back into rows.
func rowsOf(ix TrieIndex) []uint64 {
	var out []uint64
	for i := range ix.Col(0) {
		for w := range max(len(ix.cols), 1) {
			out = append(out, ix.Col(w)[i])
		}
	}
	return out
}

// randomRun returns a sealed run of n arity-column rows over a small
// domain, so repeated-variable filters keep some rows and drop others,
// with every value offset by base (a large base widens the rows).
func randomRun(rng *rand.Rand, arity, n, base int) *Run {
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = make(Tuple, arity)
		for j := range tuples[i] {
			tuples[i][j] = base + rng.IntN(6)
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

// checkDirectory holds an index's directory to its definition: Base is
// the first row's first word, Starts[b] is the first row whose
// (first word−Base)>>Shift is ≥ b, the largest first word falls in a
// bucket the directory has, and the bucket count follows directoryBytes.
func checkDirectory(t *testing.T, what string, ix TrieIndex) {
	t.Helper()
	keys := ix.Col(0)
	n := len(keys)
	if got := 4 * int64(len(ix.Starts)); got != directoryBytes(n) {
		t.Fatalf("%s: %d rows have a %d-byte directory, want %d", what, n, got, directoryBytes(n))
	}
	if n == 0 || ix.Starts == nil {
		return
	}
	if ix.Base != keys[0] {
		t.Fatalf("%s: directory based at %#x, want the first word %#x", what, ix.Base, keys[0])
	}
	if top := (keys[n-1] - ix.Base) >> ix.Shift; top >= uint64(len(ix.Starts)) {
		t.Fatalf("%s: the largest key is in bucket %d of %d", what, top, len(ix.Starts))
	}
	for b, s := range ix.Starts {
		want := sort.Search(n, func(i int) bool { return (keys[i]-ix.Base)>>ix.Shift >= uint64(b) })
		if int(s) != want {
			t.Fatalf("%s: bucket %d starts at row %d, want %d", what, b, s, want)
		}
	}
}

// TestReorderedMatchesReference: every (column order, repeated pairs) a
// trie can ask for, the run's own order among them, asked in sequence of
// one sealed run — of one word a row, and of two — each index's rows are
// the reference's whatever was remembered before it and its directory is
// the one its first words define, the run's own words are untouched (and
// are the rows of its own order, aliased when a row is one word), asking
// again returns the remembered slices themselves, and Bytes counts the
// words, the own order's copy, one permuted copy and both directories
// exactly.
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
	for _, base := range []int{0, 1 << 22} {
		run := randomRun(rng, 3, 400, base)
		if want := 1 + min(base, 1); run.Stride() != want {
			t.Fatalf("base %d: %d words a row, want %d", base, run.Stride(), want)
		}
		words := run.Words()
		before := slices.Clone(words)
		own := int64(0) // the own order's directory and copy, once asked for
		other := 0      // words of the permuted copy standing
		otherRows := 0
		for i, a := range asks {
			what := fmt.Sprintf("base %d, ask %d (%v, %v)", base, i, a.cols, a.eq)
			got := run.Index(a.cols, a.eq)
			if want := reorderedRef(run, a.cols, a.eq); !slices.Equal(rowsOf(got), want) {
				t.Fatalf("%s: %d words, reference %d", what, len(rowsOf(got)), len(want))
			}
			checkDirectory(t, what, got)
			again := run.Index(slices.Clone(a.cols), slices.Clone(a.eq))
			if len(got.Col(0)) > 0 && &again.Col(0)[0] != &got.Col(0)[0] || len(got.Starts) > 0 && &again.Starts[0] != &got.Starts[0] {
				t.Errorf("%s: asked twice, built twice", what)
			}
			if len(a.eq) == 0 && slices.Equal(a.cols, []int{0, 1, 2}) {
				own = directoryBytes(run.Len())
				if run.Stride() == 1 && &got.Col(0)[0] != &words[0] {
					t.Errorf("%s: the own order copied the words", what)
				}
				if run.Stride() > 1 {
					own += 8 * int64(len(words))
				}
			} else {
				other, otherRows = len(rowsOf(got)), len(got.Col(0))
			}
			if want := 8*int64(len(words)+other) + own + directoryBytes(otherRows); run.Bytes() != want {
				t.Errorf("%s: run keeps %d bytes, want its words, the own order, one permuted copy and the directories: %d", what, run.Bytes(), want)
			}
		}
		if own == 0 {
			t.Fatal("the run has no own-order directory to count")
		}
		if !slices.Equal(words, before) {
			t.Error("Index wrote to the run's words")
		}
	}

	// A filter that keeps nothing is remembered like any other.
	none := RunOf(2, []Tuple{{1, 2}, {3, 4}})
	if got := none.Index([]int{0}, [][2]int{{0, 1}}); len(got.Col(0)) != 0 || got.Starts != nil {
		t.Errorf("S(x,x) over rows without a repeat: %+v", got)
	}

	// An open run is sorted for the caller and remembers nothing.
	open := NewRun(2)
	open.Append(Tuple{5, 1})
	open.Append(Tuple{2, 9})
	if got := open.Index([]int{1, 0}, nil); !slices.Equal(got.Col(0), []uint64{1<<32 | 5, 9<<32 | 2}) {
		t.Errorf("open run reordered: %x", got.Col(0))
	}
	if got := open.Index([]int{0, 1}, nil); !slices.Equal(got.Col(0), []uint64{2<<32 | 9, 5<<32 | 1}) {
		t.Errorf("open run in its own order: %x", got.Col(0))
	}
	if open.Bytes() != 16 {
		t.Errorf("open run keeps %d bytes, want its two words", open.Bytes())
	}
	// A row of two words keeps both.
	if wide := RunOf(2, []Tuple{{1 << 40, 1}}); wide.Bytes() != 16 {
		t.Errorf("a two-word run keeps %d bytes, want 16", wide.Bytes())
	}
}

// TestTrieIndexDirectory: the directory over keys the join meets at its
// extremes — row counts on both sides of each power of two from 63 on,
// one heavy top value filling a bucket with empty buckets around it, keys
// crowding 0 or the full word, arity-1 values up to math.MaxInt (a
// lone field is 64 bits wide and holds its value sign-flipped).
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
			for i := range keys {
				keys[i] ^= signBit
			}
			slices.Sort(keys)
			run, err := NewRunFromWords(1, 1, keys)
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
	run := randomRun(rand.New(rand.NewPCG(27, 2)), 2, 5000, 0)
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
		if &ix.Col(0)[0] != &first.Col(0)[0] || &ix.Starts[0] != &first.Starts[0] {
			t.Errorf("reader %d got its own copy", i)
		}
	}
	for i, cols := range orders {
		if want := reorderedRef(run, cols, nil); !slices.Equal(rowsOf(got[i]), want) {
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
// on the run's own memory — of one word a row and of two, and at every
// edge of k.
func TestRunPrefix(t *testing.T) {
	narrow := RunOf(2, []Tuple{{5, 1}, {1, 2}, {3, 3}, {1, 2}, {9, 0}})
	wide := RunOf(2, []Tuple{{1 << 40, 1}, {2, 2}, {3, 1 << 41}, {2, 2}})
	for _, run := range []*Run{narrow, wide} {
		all := run.Tuples()
		for _, k := range []int{-1, 0, 1, run.Len() - 1, run.Len(), run.Len() + 5} {
			got := run.Prefix(k)
			want := all[:min(max(k, 0), len(all))]
			if !slices.EqualFunc(got.Tuples(), want, Tuple.Equal) || got.Len() != len(want) {
				t.Fatalf("stride %d k=%d: prefix %v, want %v", run.Stride(), k, got.Tuples(), want)
			}
			if got == nil {
				continue
			}
			if !got.Sealed() || got.Arity() != run.Arity() || got.Stride() != run.Stride() {
				t.Fatalf("stride %d k=%d: sealed %v arity %d stride %d", run.Stride(), k, got.Sealed(), got.Arity(), got.Stride())
			}
			if &got.words[0] != &run.words[0] {
				t.Fatalf("stride %d k=%d: the prefix copied the run", run.Stride(), k)
			}
		}
	}
}

// TestRunResetKeepsCapacity: a scratch run that alternates between an
// answer of one word a row and one that re-strides to three keeps its
// payload's capacity through Reset, so once it has held the wider one it
// builds either again without allocating; a Clone of it is exact-size
// and unaffected by what the scratch holds next.
func TestRunResetKeepsCapacity(t *testing.T) {
	narrow := []Tuple{{1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {7, 8, 9, 10, 11}}
	wide := []Tuple{{1, 2, 3, 4, 5}, {1 << 16, 2, 3, 4, 5}, {6, 7, 8, 9, 1 << 30}}
	s := new(Run)
	fill := func(tuples []Tuple) {
		s.Reset(len(tuples[0]))
		for _, tu := range tuples {
			s.Append(tu)
		}
	}
	fill(narrow)
	if s.Stride() != 1 {
		t.Fatalf("small values take %d words a row", s.Stride())
	}
	fill(wide)
	if s.Stride() != 3 || !slices.EqualFunc(s.Tuples(), wide, slices.Equal) {
		t.Fatalf("after re-striding: %d words a row, %v", s.Stride(), s.Tuples())
	}
	kept := s.Clone()
	if allocs := testing.AllocsPerRun(20, func() { fill(narrow); fill(wide) }); allocs != 0 {
		t.Errorf("refilling a scratch allocated %.0f times", allocs)
	}
	words := kept.Words()
	if kept.Sealed() || cap(words) != len(words) || !slices.EqualFunc(kept.Tuples(), wide, slices.Equal) {
		t.Errorf("clone: sealed %v, cap %d len %d, %v", kept.Sealed(), cap(words), len(words), kept.Tuples())
	}
	fill(narrow)
	if len(s.Words()) != len(narrow) || !slices.EqualFunc(kept.Tuples(), wide, slices.Equal) {
		t.Errorf("the scratch's next fill reached its clone: %v", kept.Tuples())
	}
}

// TestRunRestridesInPlace: rows appended one at a time, each possibly
// outgrowing the fields of the rows before it, read back as appended at
// every arity from 1 to 9 and every stride a value forces; the run ends at
// the fewest words its largest value allows, and a negative value takes
// a 64-bit field.
func TestRunRestridesInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	for arity := 1; arity <= 9; arity++ {
		for _, top := range []uint{4, 12, 20, 30, 40, 63, 64} {
			var want []Tuple
			run := NewRun(arity)
			need := uint(1)
			for i := 0; i < 50; i++ {
				tu := make(Tuple, arity)
				for j := range tu {
					tu[j] = rng.IntN(8)
					if rng.IntN(20) == 0 {
						switch {
						case top == 64:
							tu[j] = -1 - rng.IntN(1<<20)
						default:
							tu[j] = int(rng.Uint64N(1 << top))
						}
					}
					need = max(need, bitsFor(tu[j]))
				}
				run.Append(tu)
				want = append(want, tu)
			}
			if !slices.EqualFunc(run.Tuples(), want, Tuple.Equal) {
				t.Fatalf("arity %d, top %d: rows changed on re-striding", arity, top)
			}
			if s := strideFor(arity, need); run.Stride() != s {
				t.Errorf("arity %d, top %d: %d words a row, want %d", arity, top, run.Stride(), s)
			}
			run.Seal()
			slices.SortFunc(want, Tuple.Compare)
			if !slices.EqualFunc(run.Tuples(), want, Tuple.Equal) {
				t.Fatalf("arity %d, top %d: row order is not tuple order", arity, top)
			}
			if again, err := NewRunFromWords(arity, run.Stride(), slices.Clone(run.Words())); (err == nil) != (need < 64) {
				t.Errorf("arity %d, top %d: adopting the sealed words: %v", arity, top, err)
			} else if err == nil && !slices.EqualFunc(again.Tuples(), want, Tuple.Equal) {
				t.Errorf("arity %d, top %d: adopted words read back otherwise", arity, top)
			}
		}
	}
}
