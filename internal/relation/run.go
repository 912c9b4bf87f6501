package relation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Run holds same-arity tuples in packed columnar form — the currency of
// everything between a scatter and a gather: what a sender partitions
// into, what the wire carries, what a worker stores, joins and returns,
// and what the coordinator's set algebra (Merge, Diff, Project) works
// on. When every value fits in ⌊64/arity⌋ bits (the packed-key scheme of
// PackedShift) the run stores one uint64 word per tuple, values
// most-significant first, so it sorts as a plain integer slice and word
// order is lexicographic tuple order; otherwise it transparently
// migrates to a flat row-major []int with stride = arity. A sealed run
// is sorted lexicographically and immutable — which is what lets it
// remember the trie index a join derives from it (Index): nothing can
// invalidate it, and it is freed with the run.
type Run struct {
	arity  int
	shift  uint
	words  []uint64 // packed path (nil after migration)
	flat   []int    // fallback path, row-major
	packed bool
	sealed bool
	// maxValue is MaxValue of a sealed run, computed on the first call.
	maxValue struct {
		sync.Once
		v int
	}
	// index is the other field written after Seal, under its own lock: the
	// trie index of the run's own column order (its keys are the words, so
	// only its directory is built) and of the last other order Index was
	// asked for.
	index struct {
		sync.Mutex
		own   TrieIndex
		cols  []int
		eq    [][2]int
		other TrieIndex
	}
}

// TrieIndex is what a trie reads of a packed run: the rows in one column
// order, sorted (Keys), and a level-0 directory over them. The directory
// splits the keys by their top bits, key>>Shift: Starts[b] is the first
// row whose top bits are ≥ b, so bucket b holds the rows from Starts[b] up
// to Starts[b+1] (the last bucket up to len(Keys)), and a search for a key
// reads two entries and looks only inside that key's bucket. Under 64 rows
// there is no directory (Starts is nil). Every slice is read-only.
type TrieIndex struct {
	Keys   []uint64
	Starts []uint32
	Shift  uint
}

// newTrieIndex returns sorted keys with their directory. The bucket count
// follows from the row count n: 2^(⌊log₂ n⌋−2) buckets, 4–8 rows each when
// the keys spread over their range, as uint32 row numbers — at most one
// byte per row beside the keys' eight. Shift keeps as many top bits of the
// largest key as there are buckets.
func newTrieIndex(keys []uint64) TrieIndex {
	n := len(keys)
	if n < 64 || n > math.MaxUint32 {
		return TrieIndex{Keys: keys}
	}
	k := bits.Len(uint(n)) - 3 // log₂ of the bucket count
	shift := uint(max(bits.Len64(keys[n-1])-k, 0))
	starts := make([]uint32, 1<<k)
	b := 0
	for i, key := range keys {
		for top := int(key >> shift); b <= top; b++ {
			starts[b] = uint32(i)
		}
	}
	for ; b < len(starts); b++ {
		starts[b] = uint32(n)
	}
	return TrieIndex{Keys: keys, Starts: starts, Shift: shift}
}

// NewRun returns an empty run for tuples of the given arity.
func NewRun(arity int) *Run {
	b := &Run{arity: arity}
	if shift := PackedShift(arity); shift > 0 {
		b.shift = shift
		b.packed = true
	}
	return b
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

// Len returns the number of tuples held; a nil run is empty.
func (b *Run) Len() int {
	if b == nil {
		return 0
	}
	if b.packed {
		return len(b.words)
	}
	if b.arity == 0 {
		return 0
	}
	return len(b.flat) / b.arity
}

// Bits returns the communication cost of the run at the given
// per-value bit width: tuples × arity × bitsPerValue.
func (b *Run) Bits(bitsPerValue int) int64 {
	return int64(b.Len()) * int64(b.arity) * int64(bitsPerValue)
}

// Grow reserves capacity for n more tuples, so a caller that knows
// its output size appends without regrowth.
func (b *Run) Grow(n int) {
	if b.packed {
		b.words = slices.Grow(b.words, n)
	} else {
		b.flat = slices.Grow(b.flat, n*b.arity)
	}
}

// Append adds a copy of t. It panics on arity mismatch (runs are
// per-relation, so mixed arities indicate a routing bug) and on a
// sealed run.
func (b *Run) Append(t Tuple) {
	if len(t) != b.arity {
		panic(fmt.Sprintf("relation: tuple arity %d appended to arity-%d run", len(t), b.arity))
	}
	if b.sealed {
		panic("relation: append to sealed run")
	}
	if b.packed {
		if key, ok := b.pack(t); ok {
			b.words = append(b.words, key)
			return
		}
		b.migrate()
	}
	b.flat = append(b.flat, t...)
}

// AppendRow adds row i of src, a run of the same arity, as src holds it:
// a packed word is copied, not decoded and packed again.
func (b *Run) AppendRow(src *Run, i int) {
	switch {
	case !src.packed:
		b.Append(src.flat[i*src.arity : (i+1)*src.arity])
	case b.packed && src.arity == b.arity && !b.sealed:
		b.words = append(b.words, src.words[i])
	default: // b left the packed path, or the pair is one Append refuses
		b.Append(src.Row(i, make(Tuple, src.arity)))
	}
}

// pack encodes t as one word; ok is false when a value is negative or
// needs more than shift bits.
func (b *Run) pack(t Tuple) (uint64, bool) {
	var key uint64
	for _, v := range t {
		if !FitsPacked(v, b.shift) {
			return 0, false
		}
		key = key<<b.shift | uint64(v)
	}
	return key, true
}

// migrate switches to the flat path, decoding all packed words (packing
// is exact, so nothing is lost).
func (b *Run) migrate() {
	b.flat = make([]int, 0, (len(b.words)+1)*b.arity)
	mask := PackedMask(b.shift)
	for _, key := range b.words {
		base := len(b.flat)
		b.flat = append(b.flat, make([]int, b.arity)...)
		for i := b.arity - 1; i >= 0; i-- {
			b.flat[base+i] = int(key & mask)
			key >>= b.shift
		}
	}
	b.words = nil
	b.packed = false
}

// Seal sorts the run lexicographically and freezes it; sealed runs are
// safe for concurrent readers. Packed runs sort by word value, which
// (values packed most-significant-first at a uniform width) coincides
// with lexicographic tuple order. Words that are already ascending —
// any partition of a source that was in order, such as a generated
// matching or a re-scattered sealed run — cost one linear check;
// anything else goes through SortWords, the one sort this repo has for
// packed words.
func (b *Run) Seal() {
	if b.sealed {
		return
	}
	if b.packed {
		if !slices.IsSorted(b.words) {
			SortWords(b.words)
		}
	} else if fs := (&flatSorter{flat: b.flat, stride: b.arity, n: b.Len()}); !sort.IsSorted(fs) {
		sort.Sort(fs)
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

// maxOf is MaxValue's walk.
func (b *Run) maxOf() int {
	if b.Len() == 0 {
		return 0
	}
	if !b.packed {
		return slices.Max(b.flat)
	}
	mx, mask := 0, PackedMask(b.shift)
	for _, w := range b.words {
		for j := 0; j < b.arity; j++ {
			mx = max(mx, int(w&mask))
			w >>= b.shift
		}
	}
	return mx
}

// column writes column col of a sealed run into keys (len(keys) =
// Len()) as order-preserving keys (see signBit), sorted. Column 0 of a
// sealed run is in order already and costs no sort.
func (b *Run) column(col int, keys []uint64) {
	if b.packed {
		off, mask := uint(b.arity-1-col)*b.shift, PackedMask(b.shift)
		for i, w := range b.words {
			keys[i] = w>>off&mask ^ signBit
		}
	} else {
		for i := range keys {
			keys[i] = uint64(b.flat[i*b.arity+col]) ^ signBit
		}
	}
	if col > 0 {
		SortWords(keys)
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
	if b.packed {
		b.words = slices.Compact(b.words)
		return b
	}
	if b.arity == 0 {
		return b
	}
	a := b.arity
	kept := 0
	for i := 0; i < len(b.flat); i += a {
		row := b.flat[i : i+a]
		if kept > 0 && slices.Equal(row, b.flat[kept-a:kept]) {
			continue
		}
		copy(b.flat[kept:kept+a], row)
		kept += a
	}
	b.flat = b.flat[:kept]
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
	if b.packed {
		return &Run{arity: b.arity, shift: b.shift, words: b.words[:k:k], packed: true, sealed: true}
	}
	return &Run{arity: b.arity, flat: b.flat[: k*b.arity : k*b.arity], sealed: true}
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
	backing := make([]int, n*b.arity)
	if b.packed {
		mask := PackedMask(b.shift)
		for i, key := range b.words {
			row := backing[i*b.arity : (i+1)*b.arity : (i+1)*b.arity]
			for j := b.arity - 1; j >= 0; j-- {
				row[j] = int(key & mask)
				key >>= b.shift
			}
			dst = append(dst, Tuple(row))
		}
		return dst
	}
	copy(backing, b.flat)
	for i := 0; i < n; i++ {
		dst = append(dst, Tuple(backing[i*b.arity:(i+1)*b.arity:(i+1)*b.arity]))
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
	if !b.packed {
		copy(dst, b.flat[i*b.arity:(i+1)*b.arity])
		return dst
	}
	key, mask := b.words[i], PackedMask(b.shift)
	for j := b.arity - 1; j >= 0; j-- {
		dst[j] = int(key & mask)
		key >>= b.shift
	}
	return dst
}

// Contains reports whether the sealed run holds t: one binary search over
// its words, or over its rows on the flat layout. A nil run holds nothing.
func (b *Run) Contains(t Tuple) bool {
	n := b.Len()
	if n == 0 || len(t) != b.arity {
		return false
	}
	if b.packed {
		key, ok := b.pack(t)
		if !ok {
			return false
		}
		_, found := slices.BinarySearch(b.words, key)
		return found
	}
	a, row := b.arity, []int(t)
	i := sort.Search(n, func(i int) bool { return compareRows(b.flat[i*a:(i+1)*a], row) >= 0 })
	return i < n && slices.Equal(b.flat[i*a:(i+1)*a], row)
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

// rows returns the run's tuples as row-major values: the flat payload
// itself, or a packed payload decoded into a fresh slice.
func (b *Run) rows() []int {
	if !b.packed {
		return b.flat
	}
	out := make([]int, len(b.words)*b.arity)
	for i := range b.words {
		b.Row(i, out[i*b.arity:(i+1)*b.arity])
	}
	return out
}

// Words returns the packed uint64 payload and true when the run is on
// the packed path (one word per tuple, values most-significant first at
// the packed-key width). The slice aliases the run; callers must treat
// it as read-only. It is the wire representation internal/wire
// serializes.
func (b *Run) Words() ([]uint64, bool) {
	if !b.packed {
		return nil, false
	}
	return b.words, true
}

// Flat returns the row-major []int payload of a run on the flat
// fallback path (stride = arity). It returns nil for packed runs; check
// Words first. The slice aliases the run; callers must treat it as
// read-only.
func (b *Run) Flat() []int {
	if b.packed {
		return nil
	}
	return b.flat
}

// Index returns a packed run's trie index for one column order: the rows
// holding equal values at every position pair of eq, reduced to the
// positions cols in that order — one word per row at the run's own field
// width, first of cols most significant — sorted, every occurrence kept,
// with their level-0 directory. In a sealed run's own order (cols
// 0…arity−1, no eq) the keys are its words. A sealed run remembers its own
// order's directory and the last other (cols, eq) it was asked for, so its
// readers — every session that attached it — build each once between
// them, and a run never holds more than one permuted copy: a peer varying
// its atom patterns makes it rebuild, not grow. An open run is sorted for
// the caller and remembers nothing.
func (b *Run) Index(cols []int, eq [][2]int) TrieIndex {
	if !b.sealed {
		return newTrieIndex(b.reorder(cols, eq))
	}
	ix := &b.index
	ix.Lock()
	defer ix.Unlock()
	if b.ownOrder(cols, eq) {
		if ix.own.Keys == nil {
			ix.own = newTrieIndex(b.words)
		}
		return ix.own
	}
	if ix.cols == nil || !slices.Equal(ix.cols, cols) || !slices.Equal(ix.eq, eq) {
		ix.cols, ix.eq, ix.other = slices.Clone(cols), slices.Clone(eq), newTrieIndex(b.reorder(cols, eq))
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

// reorder builds the keys Index returns: a sorted copy, whatever the
// order.
func (b *Run) reorder(cols []int, eq [][2]int) []uint64 {
	offset := func(col int) uint { return uint(b.arity-1-col) * b.shift }
	from := make([]uint, len(cols))
	for d, c := range cols {
		from[d] = offset(c)
	}
	eqAt := make([][2]uint, len(eq))
	for i, e := range eq {
		eqAt[i] = [2]uint{offset(e[0]), offset(e[1])}
	}
	mask := PackedMask(b.shift)
	keys := make([]uint64, 0, len(b.words))
rows:
	for _, w := range b.words {
		for _, e := range eqAt {
			if w>>e[0]&mask != w>>e[1]&mask {
				continue rows
			}
		}
		var key uint64
		for _, f := range from {
			key = key<<b.shift | w>>f&mask
		}
		keys = append(keys, key)
	}
	SortWords(keys)
	return keys
}

// Bytes returns the payload bytes the run keeps alive: its words or flat
// values, and the trie indexes a sealed run remembers — the permuted
// copy's keys and both directories.
func (b *Run) Bytes() int64 {
	ix := &b.index
	ix.Lock()
	defer ix.Unlock()
	return 8*int64(len(b.words)+len(b.flat)+len(ix.other.Keys)) + 4*int64(len(ix.own.Starts)+len(ix.other.Starts))
}

// NewRunFromWords adopts a wire payload of one packed word per tuple as
// a sealed run, taking ownership of words. It checks what a sealed
// packed run guarantees and reorders nothing: the arity admits packing,
// the words are non-decreasing, and none sets bits above arity·shift
// (two distinct words must never decode to the same tuple, or word
// order would stop coinciding with lexicographic tuple order) — which,
// the words being in order, is a property of the last one.
func NewRunFromWords(arity int, words []uint64) (*Run, error) {
	if arity < 1 {
		return nil, fmt.Errorf("relation: packed run arity %d, need ≥ 1", arity)
	}
	shift := PackedShift(arity)
	if shift == 0 {
		return nil, fmt.Errorf("relation: arity %d does not admit packed words", arity)
	}
	if !slices.IsSorted(words) {
		return nil, fmt.Errorf("relation: packed words not sorted")
	}
	if used := uint(arity) * shift; used < 64 && len(words) > 0 && words[len(words)-1]>>used != 0 {
		return nil, fmt.Errorf("relation: packed word %#x sets bits above %d", words[len(words)-1], used)
	}
	return &Run{arity: arity, shift: shift, words: words, packed: true, sealed: true}, nil
}

// NewRunFromFlat adopts a row-major wire payload (stride = arity) as a
// sealed flat-path run, taking ownership of flat. It checks, and
// reorders nothing: a whole number of rows, every value non-negative
// (tuple values are domain elements), rows in lexicographic order.
func NewRunFromFlat(arity int, flat []int) (*Run, error) {
	if arity < 1 {
		return nil, fmt.Errorf("relation: flat run arity %d, need ≥ 1", arity)
	}
	if len(flat)%arity != 0 {
		return nil, fmt.Errorf("relation: flat payload of %d values is not a multiple of arity %d", len(flat), arity)
	}
	for i := 0; i < len(flat); i += arity {
		row := flat[i : i+arity]
		for _, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("relation: negative value %d in flat payload", v)
			}
		}
		if i > 0 && slices.Compare(flat[i-arity:i], row) > 0 {
			return nil, fmt.Errorf("relation: flat rows not sorted at row %d", i/arity)
		}
	}
	return &Run{arity: arity, flat: flat, sealed: true}, nil
}

// flatSorter sorts row-major flat rows of the given stride
// lexicographically.
type flatSorter struct {
	flat   []int
	stride int
	n      int
}

func (s *flatSorter) Len() int { return s.n }

func (s *flatSorter) Less(i, j int) bool {
	a := s.flat[i*s.stride : (i+1)*s.stride]
	b := s.flat[j*s.stride : (j+1)*s.stride]
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func (s *flatSorter) Swap(i, j int) {
	a := s.flat[i*s.stride : (i+1)*s.stride]
	b := s.flat[j*s.stride : (j+1)*s.stride]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}
