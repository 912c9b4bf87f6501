package relation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Run holds same-arity tuples as rows of uint64 words — the currency of
// everything between a scatter and a gather: what a sender partitions
// into, what the wire carries, what a worker stores, joins and returns,
// and what the coordinator's set algebra (Merge, Diff, Project) works
// on. A row takes stride words: the fewest for which ⌈arity/stride⌉
// fields per word, each 64/⌈arity/stride⌉ bits wide, hold every value
// the run holds. Fields go most significant first within a word and
// words go in order, so uint64-lexicographic row order is lexicographic
// tuple order; a 64-bit field holds its value with the sign bit flipped
// (see signBit), so negative values order right too. A run starts at the
// fewest words its arity allows — one, up to arity 64 — and Append
// re-strides it in place when a value outgrows its field. A sealed run
// is sorted and immutable — which is what lets it remember the trie
// index a join derives from it (Index): nothing can invalidate it, and
// it is freed with the run.
type Run struct {
	layout
	words  []uint64 // row-major, stride words a row
	sealed bool
	// maxValue is MaxValue of a sealed run, computed on the first call.
	maxValue struct {
		sync.Once
		v int
	}
	// index is the other field written after Seal, under its own lock: the
	// trie index of the run's own column order and of the last other order
	// Index was asked for.
	index struct {
		sync.Mutex
		own   TrieIndex
		cols  []int
		eq    [][2]int
		other TrieIndex
	}
}

// layout is where the fields of a row sit in its words: field f lives in
// word f/per, the fields of a word most significant first and the
// word's last field in its lowest bits; the bits above a word's fields
// are zero.
type layout struct {
	arity  int
	stride int    // words a row
	per    int    // fields a word: ⌈arity/stride⌉; the last word may hold fewer
	width  uint   // bits a field: 64/per
	mask   uint64 // extracts one field
	flip   uint64 // XORed with a value to give its code: the sign bit in a 64-bit field, else 0
}

// layoutOf returns the layout of arity fields in stride words a row.
func layoutOf(arity, stride int) layout {
	if arity < 1 || stride < 1 {
		return layout{arity: arity}
	}
	per := (arity + stride - 1) / stride
	l := layout{arity: arity, stride: stride, per: per, width: uint(64 / per)}
	l.mask = ^uint64(0) >> (64 - l.width)
	if l.width == 64 {
		l.flip = signBit
	}
	return l
}

// strideFor returns the fewest words a row of arity fields takes when
// every field needs need bits.
func strideFor(arity int, need uint) int {
	per := 64 / max(int(need), 1) // fields a word takes
	return (arity + per - 1) / per
}

// bitsFor returns the field width v needs: its bit length, or all 64
// bits for a negative value.
func bitsFor(v int) uint {
	if v < 0 {
		return 64
	}
	return uint(bits.Len(uint(v)))
}

// encode writes t as one row; false when a value does not fit its
// field.
func (l *layout) encode(t Tuple, row []uint64) bool {
	f := 0
	for w := range row {
		var word uint64
		for end := min(f+l.per, len(t)); f < end; f++ {
			v := uint64(t[f])
			if v > l.mask { // a negative value in a narrow field too
				return false
			}
			word = word<<(l.width&63) | (v ^ l.flip) // a 64-bit field's word is 0 before it
		}
		row[w] = word
	}
	return true
}

// decode reads the row at the head of words into t, from its last field
// back.
func (l *layout) decode(words []uint64, t Tuple) {
	f := len(t)
	for w := l.stride - 1; w >= 0; w-- {
		word := words[w]
		for first := w * l.per; f > first; {
			f--
			t[f] = int(word&l.mask ^ l.flip)
			word >>= l.width & 63 // a 64-bit field is its word's last
		}
	}
}

// field returns the word of a row that holds column c and the field's
// bit offset in it.
func (l *layout) field(c int) (word int, off uint) {
	word = c / l.per
	fields := min(l.per, l.arity-word*l.per)
	return word, uint(fields-1-(c-word*l.per)) * l.width
}

// fieldAt is where a field sits in a row: its word and bit offset.
type fieldAt struct {
	word int
	off  uint
}

// fieldsAt returns where each of the columns cols sits in a row.
func (l *layout) fieldsAt(cols []int) []fieldAt {
	at := make([]fieldAt, len(cols))
	for i, c := range cols {
		at[i].word, at[i].off = l.field(c)
	}
	return at
}

// TrieIndex is what a trie reads of a run: its rows in one column order,
// sorted, read one word of a row at a time (Col), and a level-0
// directory over the first word. A row holds its fields as a run does —
// Fields to a word, Width bits each, the word's last field in its lowest
// bits, a 64-bit field's value with its sign bit flipped. The directory
// splits the first words by the top bits of their distance from the
// first row's, (word−Base)>>Shift: Starts[b] is the first row whose top
// bits are ≥ b, so bucket b holds the rows from Starts[b] up to
// Starts[b+1] (the last bucket up to the row count), and a search for a
// word reads two entries and looks only inside that word's bucket. Under
// 64 rows there is no directory (Starts is nil). Every slice is
// read-only.
type TrieIndex struct {
	keys   []uint64   // the rows, when a row is one word
	cols   [][]uint64 // cols[w][i] is word w of row i, when a row is more
	Starts []uint32
	Base   uint64
	Shift  uint
	Fields int
	Width  uint
}

// Col returns word w of every row, in row order.
func (ix TrieIndex) Col(w int) []uint64 {
	if ix.cols == nil {
		return ix.keys
	}
	return ix.cols[w]
}

// newTrieIndex returns sorted rows of stride words — as they are at one
// word a row, else as one slice per word — with their directory. The
// bucket count follows from the row count n: 2^(⌊log₂ n⌋−2) buckets, 4–8
// rows each when the first words spread over their range, as uint32 row
// numbers — at most one byte per row beside the words' eight. Shift keeps
// as many top bits of the largest distance from Base as there are
// buckets, so the buckets span the first words' range, wherever it lies.
func newTrieIndex(rows []uint64, stride int, l layout) TrieIndex {
	ix := TrieIndex{keys: rows, Fields: l.per, Width: l.width}
	n := len(rows) / stride
	if stride > 1 {
		ix.keys, ix.cols = nil, make([][]uint64, stride)
		arena := make([]uint64, len(rows))
		for w := range ix.cols {
			col := arena[w*n : (w+1)*n : (w+1)*n]
			for i := range col {
				col[i] = rows[i*stride+w]
			}
			ix.cols[w] = col
		}
	}
	keys := ix.Col(0)
	if n < 64 || n > math.MaxUint32 {
		return ix
	}
	k := bits.Len(uint(n)) - 3 // log₂ of the bucket count
	base := keys[0]
	shift := uint(max(bits.Len64(keys[n-1]-base)-k, 0))
	starts := make([]uint32, 1<<k)
	b := 0
	for i, key := range keys {
		for top := int((key - base) >> shift); b <= top; b++ {
			starts[b] = uint32(i)
		}
	}
	for ; b < len(starts); b++ {
		starts[b] = uint32(n)
	}
	ix.Starts, ix.Base, ix.Shift = starts, base, shift
	return ix
}

// NewRun returns an empty run for tuples of the given arity.
func NewRun(arity int) *Run {
	b := new(Run)
	b.Reset(arity)
	return b
}

// Reset empties the run for tuples of the given arity — open, at the
// fewest words a row its arity allows — keeping the payload's capacity,
// so a scratch run reused from one build to the next grows once. It
// forgets whatever a sealed run remembered: only a run no one else reads
// may be reset.
func (b *Run) Reset(arity int) {
	*b = Run{layout: layoutOf(arity, strideFor(arity, 1)), words: b.words[:0]}
}

// Clone returns a copy of the run that shares no memory with it, sealed
// when b is, whose payload is exactly the size of its rows (cap = len) —
// how a run built in a reused scratch is kept.
func (b *Run) Clone() *Run {
	c := &Run{layout: b.layout, sealed: b.sealed, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// RunOf returns the tuples as one sealed run: sorted, every occurrence
// kept (Dedup drops the repeats). It is the one way tuples become a run.
func RunOf(arity int, tuples []Tuple) *Run {
	b := NewRun(arity)
	b.Grow(len(tuples))
	for _, t := range tuples {
		b.Append(t)
	}
	b.Seal()
	return b
}

// Arity returns the tuple arity.
func (b *Run) Arity() int { return b.arity }

// Stride returns the words a row takes.
func (b *Run) Stride() int { return b.stride }

// Len returns the number of tuples held; a nil run is empty.
func (b *Run) Len() int {
	if b == nil || b.stride == 0 {
		return 0
	}
	if b.stride == 1 {
		return len(b.words)
	}
	return len(b.words) / b.stride
}

// Bits returns the communication cost of the run at the given
// per-value bit width: tuples × arity × bitsPerValue.
func (b *Run) Bits(bitsPerValue int) int64 {
	return int64(b.Len()) * int64(b.arity) * int64(bitsPerValue)
}

// Grow reserves capacity for n more tuples at the current stride, so a
// caller that knows its output size appends without regrowth.
func (b *Run) Grow(n int) {
	b.words = slices.Grow(b.words, n*b.stride)
}

// Append adds a copy of t. It panics on arity mismatch (runs are
// per-relation, so mixed arities indicate a routing bug) and on a
// sealed run. A value its field cannot hold re-strides the run first.
func (b *Run) Append(t Tuple) {
	if len(t) != b.arity {
		panic(fmt.Sprintf("relation: tuple arity %d appended to arity-%d run", len(t), b.arity))
	}
	if b.sealed {
		panic("relation: append to sealed run")
	}
	if b.stride == 1 { // one word a row: appended as the word it encodes to
		var key [1]uint64
		if b.encode(t, key[:]) {
			b.words = append(b.words, key[0])
			return
		}
	} else {
		n := len(b.words)
		if b.words = slices.Grow(b.words, b.stride); b.encode(t, b.words[n:n+b.stride]) {
			b.words = b.words[:n+b.stride]
			return
		}
	}
	b.widen(t)
	b.Append(t)
}

// widen re-strides the run to the fewest words a row that hold t's
// values besides its own.
func (b *Run) widen(t Tuple) {
	need := b.width + 1
	for _, v := range t {
		need = max(need, bitsFor(v))
	}
	b.restride(layoutOf(b.arity, strideFor(b.arity, need)))
}

// restride re-encodes the rows in layout l, whose fields are wider, in
// place from the last row back: a row only moves up, into words its
// successors have left.
func (b *Run) restride(l layout) {
	old, n := b.layout, b.Len()
	b.words = slices.Grow(b.words, n*(l.stride-old.stride))[:n*l.stride]
	var small [16]int
	row := rowIn(&small, b.arity)
	for i := n - 1; i >= 0; i-- {
		old.decode(b.words[i*old.stride:(i+1)*old.stride], row)
		l.encode(row, b.words[i*l.stride:(i+1)*l.stride])
	}
	b.layout = l
}

// rowIn returns a tuple of the given arity over buf when it fits, so a
// caller that decodes a row on the way to encoding it allocates nothing.
func rowIn(buf *[16]int, arity int) Tuple {
	if arity <= len(buf) {
		return buf[:arity]
	}
	return make(Tuple, arity)
}

// AppendRow adds row i of src, a run of the same arity, as src holds it:
// a narrower run takes src's stride first, so the row is copied, not
// decoded and encoded again.
func (b *Run) AppendRow(src *Run, i int) {
	if b.stride == src.stride && b.arity == src.arity && !b.sealed { // the same layout
		if b.stride == 1 {
			b.words = append(b.words, src.words[i])
		} else {
			b.words = append(b.words, src.words[i*b.stride:(i+1)*b.stride]...)
		}
		return
	}
	if b.arity == src.arity && b.stride < src.stride && !b.sealed {
		b.restride(src.layout)
		b.AppendRow(src, i)
		return
	}
	var small [16]int
	b.Append(src.Row(i, rowIn(&small, src.arity)))
}

// Seal sorts the run lexicographically and freezes it; sealed runs are
// safe for concurrent readers. Rows sort as words, which (fields most
// significant first at a uniform width) coincides with lexicographic
// tuple order. Rows that are already ascending — any partition of a
// source that was in order, such as a generated matching or a
// re-scattered sealed run — cost one linear check; anything else goes
// through sortRows, the one sort this repo has for rows of words.
func (b *Run) Seal() {
	if b.sealed {
		return
	}
	if !rowsSorted(b.words, b.stride) {
		sortRows(b.words, b.stride)
	}
	b.sealed = true
}

// MaxValue returns the largest value the run holds, or 0 when it holds
// none. A sealed run walks itself once and remembers the answer.
func (b *Run) MaxValue() int {
	if b == nil || !b.sealed {
		return b.maxOf()
	}
	b.maxValue.Do(func() { b.maxValue.v = b.maxOf() })
	return b.maxValue.v
}

// maxOf is MaxValue's walk, over every field of every word: a narrow
// field's padding reads 0, which no non-negative maximum notices, and a
// 64-bit field has none.
func (b *Run) maxOf() int {
	if b.Len() == 0 {
		return 0
	}
	mx, mask, flip := math.MinInt, b.mask, b.flip
	for _, w := range b.words {
		for range b.per {
			mx = max(mx, int(w&mask^flip))
			w >>= b.width
		}
	}
	return mx
}

// column writes column col of a sealed run into keys (len(keys) =
// Len()) as order-preserving keys (see signBit), sorted. Column 0 of a
// sealed run is in order already and costs no sort.
func (b *Run) column(col int, keys []uint64) {
	w, off := b.field(col)
	mask, flip := b.mask, b.flip^signBit
	for i := range keys {
		keys[i] = b.words[i*b.stride+w]>>off&mask ^ flip
	}
	if col > 0 {
		sortRows(keys, 1)
	}
}

// Sealed reports whether the run has been sealed.
func (b *Run) Sealed() bool { return b.sealed }

// Dedup seals the run, drops repeated tuples in place (sealed order
// puts equal tuples next to each other) and returns it. It finishes an
// answer run built with Append; like Seal it must happen before the run
// is shared with readers.
func (b *Run) Dedup() *Run {
	b.Seal()
	s := b.stride
	if s <= 1 {
		b.words = slices.Compact(b.words)
		return b
	}
	kept := 0
	for r := 0; r < len(b.words); r += s {
		if row := b.words[r : r+s]; kept == 0 || !slices.Equal(row, b.words[kept-s:kept]) {
			kept += copy(b.words[kept:], row)
		}
	}
	b.words = b.words[:kept]
	return b
}

// Prefix returns the sealed run's first k rows as a sealed run sharing
// its memory — a sealed run is immutable, so nothing is copied; the run
// itself when it holds no more than k, nil when k ≤ 0.
func (b *Run) Prefix(k int) *Run {
	if k <= 0 {
		return nil
	}
	if k >= b.Len() {
		return b
	}
	if !b.sealed {
		panic("relation: prefix of an unsealed run")
	}
	n := k * b.stride
	return &Run{layout: b.layout, words: b.words[:n:n], sealed: true}
}

// AppendTuples materializes the run's tuples onto dst. Every call
// allocates fresh backing storage, so callers receive stable views:
// mutating the returned tuples, or appending to one, cannot corrupt the
// run, a neighbouring tuple or any other caller's view.
func (b *Run) AppendTuples(dst []Tuple) []Tuple {
	n := b.Len()
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	a := b.arity
	backing := make([]int, n*a)
	for i := range n {
		row := backing[i*a : (i+1)*a : (i+1)*a]
		dst = append(dst, b.Row(i, row))
	}
	return dst
}

// Tuples materializes the run's tuples over one fresh backing array
// (nil for a nil or empty run) — the one point where a run that stayed
// columnar through the coordinator becomes a caller-owned answer.
func (b *Run) Tuples() []Tuple {
	if b.Len() == 0 {
		return nil
	}
	return b.AppendTuples(nil)
}

// Row decodes the i-th tuple into dst, which must have the run's
// arity, and returns it — the allocation-free read for consumers that
// look at one tuple at a time through a reused scratch tuple.
func (b *Run) Row(i int, dst Tuple) Tuple {
	b.decode(b.words[i*b.stride:], dst)
	return dst
}

// Contains reports whether the sealed run holds t: one binary search over
// its rows. A nil run holds nothing.
func (b *Run) Contains(t Tuple) bool {
	n := b.Len()
	if n == 0 || len(t) != b.arity {
		return false
	}
	var small [16]uint64 // the encoded key, off the heap up to 16 words
	s, key := b.stride, small[:0]
	if s <= len(small) {
		key = small[:s]
	} else {
		key = make([]uint64, s)
	}
	if !b.encode(t, key) {
		return false
	}
	lo, hi := 0, n // the first row ≥ key is in [lo, hi]
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); compareRows(b.words[mid*s:(mid+1)*s], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < n && slices.Equal(b.words[lo*s:(lo+1)*s], key)
}

// Each calls yield with every tuple of the run in order, through one
// reused scratch tuple that yield must not retain — how Fold reads an
// answer into an Accumulator without materializing it. A nil run yields
// nothing.
func (b *Run) Each(yield func(Tuple)) {
	n := b.Len()
	if n == 0 {
		return
	}
	row := make(Tuple, b.arity)
	for i := 0; i < n; i++ {
		yield(b.Row(i, row))
	}
}

// Words returns the run's payload: Stride words a row, rows in order
// once sealed. The slice aliases the run; callers must treat it as
// read-only. It is the wire representation internal/wire serializes.
func (b *Run) Words() []uint64 { return b.words }

// at returns the run's rows in layout l, which must have the run's arity
// and fields at least as wide: its own words when l is its layout, else
// a fresh copy.
func (b *Run) at(l layout) []uint64 {
	if b.layout == l {
		return b.words
	}
	n := b.Len()
	out := make([]uint64, n*l.stride)
	row := make(Tuple, b.arity)
	for i := range n {
		l.encode(b.Row(i, row), out[i*l.stride:(i+1)*l.stride])
	}
	return out
}

// widest returns the layout among the runs' whose fields are widest —
// the one that holds every run's values.
func widest(runs ...*Run) layout {
	l := runs[0].layout
	for _, r := range runs[1:] {
		if r.stride > l.stride {
			l = r.layout
		}
	}
	return l
}

// Index returns a run's trie index for one column order: the rows
// holding equal values at every position pair of eq, reduced to the
// positions cols in that order — at the run's field width, first of cols
// most significant — sorted, every occurrence kept, with their level-0
// directory. In a sealed run's own order (cols 0…arity−1, no eq) the rows
// are its words, which the index aliases when a row is one word. A sealed
// run remembers its own order's index and the last other (cols, eq) it
// was asked for, so its readers — every session that attached it — build
// each once between them, and a run never holds more than one permuted
// copy: a peer varying its atom patterns makes it rebuild, not grow. An
// open run is sorted for the caller and remembers nothing.
func (b *Run) Index(cols []int, eq [][2]int) TrieIndex {
	if !b.sealed {
		return b.reorder(cols, eq)
	}
	ix := &b.index
	ix.Lock()
	defer ix.Unlock()
	if b.ownOrder(cols, eq) {
		if ix.own.Fields == 0 {
			ix.own = newTrieIndex(b.words, b.stride, b.layout)
		}
		return ix.own
	}
	if ix.cols == nil || !slices.Equal(ix.cols, cols) || !slices.Equal(ix.eq, eq) {
		ix.cols, ix.eq, ix.other = slices.Clone(cols), slices.Clone(eq), b.reorder(cols, eq)
	}
	return ix.other
}

// ownOrder reports whether (cols, eq) asks for the run's own order: every
// column in place, no repeated-variable pair.
func (b *Run) ownOrder(cols []int, eq [][2]int) bool {
	if len(eq) > 0 || len(cols) != b.arity {
		return false
	}
	for d, c := range cols {
		if c != d {
			return false
		}
	}
	return true
}

// reorder builds the index Index returns for another order: the rows'
// fields moved as codes, never decoded, into rows of ⌈len(cols)/per⌉
// words, sorted.
func (b *Run) reorder(cols []int, eq [][2]int) TrieIndex {
	from := b.fieldsAt(cols)
	eqAt := make([][2]fieldAt, len(eq))
	for i, e := range eq {
		at := b.fieldsAt(e[:])
		eqAt[i] = [2]fieldAt{at[0], at[1]}
	}
	mask, per := b.mask, b.per
	stride := max((len(cols)+per-1)/per, 1)
	keys := make([]uint64, 0, b.Len()*stride)
rows:
	for r := 0; r < len(b.words); r += b.stride {
		row := b.words[r : r+b.stride]
		for _, e := range eqAt {
			if row[e[0].word]>>e[0].off&mask != row[e[1].word]>>e[1].off&mask {
				continue rows
			}
		}
		for d := 0; d < len(from); d += per {
			var key uint64
			for _, f := range from[d:min(d+per, len(from))] {
				key = key<<b.width | row[f.word]>>f.off&mask
			}
			keys = append(keys, key)
		}
	}
	sortRows(keys, stride)
	return newTrieIndex(keys, stride, b.layout)
}

// Bytes returns the payload bytes the run keeps alive: its words, and
// the trie indexes a sealed run remembers — the own order's copy when a
// row is wider than a word, the permuted copy, and both directories.
func (b *Run) Bytes() int64 {
	ix := &b.index
	ix.Lock()
	defer ix.Unlock()
	words := len(b.words) + len(ix.other.keys)
	for _, cols := range [2][][]uint64{ix.own.cols, ix.other.cols} {
		for _, col := range cols {
			words += len(col)
		}
	}
	return 8*int64(words) + 4*int64(len(ix.own.Starts)+len(ix.other.Starts))
}

// NewRunFromWords adopts a wire payload of rows of stride words as a
// sealed run, taking ownership of words. It checks what a sealed run
// guarantees and reorders nothing: the stride is a layout of the arity,
// the words are whole rows in order, no word sets a bit outside its
// fields (padding included: two distinct rows must never decode to the
// same tuple, or row order would stop coinciding with tuple order), and
// no 64-bit field holds a negative value (tuple values are domain
// elements). At stride 1 the first and last words decide the last two.
func NewRunFromWords(arity, stride int, words []uint64) (*Run, error) {
	l := layoutOf(arity, stride)
	if arity < 1 || stride < 1 || stride > arity || l.per > 64 || (arity+l.per-1)/l.per != stride {
		return nil, fmt.Errorf("relation: stride %d is no layout of arity %d", stride, arity)
	}
	if len(words)%stride != 0 {
		return nil, fmt.Errorf("relation: %d words are not whole rows of %d", len(words), stride)
	}
	if !rowsSorted(words, stride) {
		return nil, fmt.Errorf("relation: rows not sorted")
	}
	if len(words) == 0 {
		return &Run{layout: l, words: words, sealed: true}, nil
	}
	for w := range stride {
		// The bits word w of any row sets, and the bits it sets in every
		// row: at stride 1 the last and first words bound them all.
		used, low := words[len(words)-stride+w], words[w]
		for r := w; stride > 1 && r < len(words); r += stride {
			used, low = used|words[r], low&words[r]
		}
		if top := uint(min(l.per, arity-w*l.per)) * l.width; top < 64 && used>>top != 0 {
			return nil, fmt.Errorf("relation: word %d of a row sets bits above %d", w, top)
		}
		if l.width == 64 && low < signBit {
			return nil, fmt.Errorf("relation: negative value in a 64-bit field")
		}
	}
	return &Run{layout: l, words: words, sealed: true}, nil
}
