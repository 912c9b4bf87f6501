// Package exchange is the columnar shuffle subsystem of the MPC
// cluster: the one hot path through which every engine (hypercube,
// multiround, skew, cc) moves tuples between workers.
//
// The paper measures algorithms purely by communication — per-worker
// per-round received bits — so the shuffle is the natural first-class
// subsystem. Instead of routing per-tuple messages through shared maps,
// senders partition their source shards in parallel (one goroutine per
// shard) into per-destination Buffers. A Buffer stores same-schema
// tuples in packed columnar form: when the arity admits it, each tuple
// becomes a single uint64 word (the same bit-packing scheme as
// relation.TupleSet, ⌊64/arity⌋ bits per value), so partitioning is
// allocation-free per tuple, buffers sort as plain integer slices, and
// round statistics (total bits, max per-worker load, cap enforcement)
// fall out of buffer sizes with no per-message accounting.
//
// Receivers accumulate sealed (sorted) runs in a Column; deduplicated
// global answers come from a k-way merge over sorted runs (Merge)
// instead of concatenate-then-sort, and the coordinator's set algebra
// on gathered views (Merge, Diff, Project) stays on sealed runs.
//
// Routing policy is pluggable through the Partitioner interface; the
// three disciplines of the engines — plain hash partitioning, hypercube
// grid replication, and skew-aware heavy-hitter routing — are all
// Partitioners (see HashPartitioner here, hypercube.NewGridPartitioner,
// and the skew package).
package exchange

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/relation"
)

// Buffer holds same-arity tuples bound for one destination in packed
// columnar form. When every value fits in ⌊64/arity⌋ bits (the
// relation packed-key scheme) the buffer stores one uint64 word per
// tuple; otherwise it transparently migrates to a flat row-major []int
// with stride = arity. A sealed buffer is sorted lexicographically and
// immutable.
type Buffer struct {
	arity  int
	shift  uint
	words  []uint64 // packed path (nil after migration)
	flat   []int    // fallback path, row-major
	packed bool
	sealed bool
}

// NewBuffer returns an empty buffer for tuples of the given arity.
func NewBuffer(arity int) *Buffer {
	b := &Buffer{arity: arity}
	if shift := relation.PackedShift(arity); shift > 0 {
		b.shift = shift
		b.packed = true
	}
	return b
}

// Arity returns the tuple arity.
func (b *Buffer) Arity() int { return b.arity }

// Len returns the number of buffered tuples; a nil buffer is empty.
func (b *Buffer) Len() int {
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

// Bits returns the communication cost of the buffer at the given
// per-value bit width: tuples × arity × bitsPerValue.
func (b *Buffer) Bits(bitsPerValue int) int64 {
	return int64(b.Len()) * int64(b.arity) * int64(bitsPerValue)
}

// Grow reserves capacity for n more tuples, so a caller that knows
// its output size appends without regrowth.
func (b *Buffer) Grow(n int) {
	if b.packed {
		b.words = slices.Grow(b.words, n)
	} else {
		b.flat = slices.Grow(b.flat, n*b.arity)
	}
}

// Append adds a copy of t. It panics on arity mismatch (buffers are
// per-relation, so mixed arities indicate a routing bug) and on a
// sealed buffer.
func (b *Buffer) Append(t relation.Tuple) {
	if len(t) != b.arity {
		panic(fmt.Sprintf("exchange: tuple arity %d appended to arity-%d buffer", len(t), b.arity))
	}
	if b.sealed {
		panic("exchange: append to sealed buffer")
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

// pack encodes t as one word; ok is false when a value is negative or
// needs more than shift bits.
func (b *Buffer) pack(t relation.Tuple) (uint64, bool) {
	var key uint64
	for _, v := range t {
		if !relation.FitsPacked(v, b.shift) {
			return 0, false
		}
		key = key<<b.shift | uint64(v)
	}
	return key, true
}

// migrate switches to the flat path, decoding all packed words (packing
// is exact, so nothing is lost).
func (b *Buffer) migrate() {
	b.flat = make([]int, 0, (len(b.words)+1)*b.arity)
	mask := relation.PackedMask(b.shift)
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

// Seal sorts the buffer lexicographically and freezes it; sealed
// buffers are safe for concurrent readers. Packed buffers sort by word
// value, which (values packed most-significant-first at a uniform
// width) coincides with lexicographic tuple order. Words that are
// already ascending — any partition of a source that was in order, such
// as a generated matching or a re-scattered sealed run — cost one
// linear check; anything else goes through relation.SortWords, the one
// sort this repo has for packed words.
func (b *Buffer) Seal() {
	if b.sealed {
		return
	}
	if b.packed {
		if !slices.IsSorted(b.words) {
			relation.SortWords(b.words)
		}
	} else if b.arity > 0 {
		sortFlat(b.flat, b.arity)
	}
	b.sealed = true
}

// Sealed reports whether the buffer has been sealed.
func (b *Buffer) Sealed() bool { return b.sealed }

// Dedup seals the buffer and drops repeated tuples in place (sealed
// order puts equal tuples next to each other). It finishes an answer
// run built with Append; like Seal it must happen before the buffer is
// shared with readers.
func (b *Buffer) Dedup() {
	b.Seal()
	if b.packed {
		b.words = slices.Compact(b.words)
		return
	}
	if b.arity == 0 {
		return
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
}

// AppendTuples materializes the buffered tuples onto dst. Every call
// allocates fresh backing storage, so callers receive stable views:
// mutating the returned tuples cannot corrupt the buffer or any other
// caller's view.
func (b *Buffer) AppendTuples(dst []relation.Tuple) []relation.Tuple {
	n := b.Len()
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	backing := make([]int, n*b.arity)
	if b.packed {
		mask := relation.PackedMask(b.shift)
		for i, key := range b.words {
			row := backing[i*b.arity : (i+1)*b.arity]
			for j := b.arity - 1; j >= 0; j-- {
				row[j] = int(key & mask)
				key >>= b.shift
			}
			dst = append(dst, relation.Tuple(row))
		}
		return dst
	}
	copy(backing, b.flat)
	for i := 0; i < n; i++ {
		dst = append(dst, relation.Tuple(backing[i*b.arity:(i+1)*b.arity]))
	}
	return dst
}

// Tuples materializes the buffered tuples over one fresh backing array
// (nil for a nil or empty buffer) — the one point where a run that
// stayed columnar through the coordinator becomes a caller-owned
// answer.
func (b *Buffer) Tuples() []relation.Tuple {
	if b.Len() == 0 {
		return nil
	}
	return b.AppendTuples(nil)
}

// Row decodes the i-th tuple into dst, which must have the buffer's
// arity, and returns it — the allocation-free read for consumers that
// look at one tuple at a time through a reused scratch tuple.
func (b *Buffer) Row(i int, dst relation.Tuple) relation.Tuple {
	if !b.packed {
		copy(dst, b.flat[i*b.arity:(i+1)*b.arity])
		return dst
	}
	key, mask := b.words[i], relation.PackedMask(b.shift)
	for j := b.arity - 1; j >= 0; j-- {
		dst[j] = int(key & mask)
		key >>= b.shift
	}
	return dst
}

// rows returns the buffer's tuples as row-major values: the flat
// payload itself, or a packed payload decoded into a fresh slice.
func (b *Buffer) rows() []int {
	if !b.packed {
		return b.flat
	}
	out := make([]int, len(b.words)*b.arity)
	for i := range b.words {
		b.Row(i, out[i*b.arity:(i+1)*b.arity])
	}
	return out
}

// Words returns the packed uint64 payload and true when the buffer is
// on the packed path (one word per tuple, values most-significant
// first at the relation packed-key width). The slice aliases the
// buffer; callers must treat it as read-only. It is the wire
// representation internal/wire serializes.
func (b *Buffer) Words() ([]uint64, bool) {
	if !b.packed {
		return nil, false
	}
	return b.words, true
}

// Flat returns the row-major []int payload of a buffer on the flat
// fallback path (stride = arity). It returns nil for packed buffers;
// check Words first. The slice aliases the buffer; callers must treat
// it as read-only.
func (b *Buffer) Flat() []int {
	if b.packed {
		return nil
	}
	return b.flat
}

// NewBufferFromWords adopts a wire payload of one packed word per tuple
// as a sealed buffer, taking ownership of words. It checks what a sealed
// packed buffer guarantees and reorders nothing: the arity admits
// packing, the words are non-decreasing, and none sets bits above
// arity·shift (two distinct words must never decode to the same tuple,
// or word order would stop coinciding with lexicographic tuple order) —
// which, the words being in order, is a property of the last one.
func NewBufferFromWords(arity int, words []uint64) (*Buffer, error) {
	if arity < 1 {
		return nil, fmt.Errorf("exchange: packed buffer arity %d, need ≥ 1", arity)
	}
	shift := relation.PackedShift(arity)
	if shift == 0 {
		return nil, fmt.Errorf("exchange: arity %d does not admit packed words", arity)
	}
	if !slices.IsSorted(words) {
		return nil, fmt.Errorf("exchange: packed words not sorted")
	}
	if used := uint(arity) * shift; used < 64 && len(words) > 0 && words[len(words)-1]>>used != 0 {
		return nil, fmt.Errorf("exchange: packed word %#x sets bits above %d", words[len(words)-1], used)
	}
	return &Buffer{arity: arity, shift: shift, words: words, packed: true, sealed: true}, nil
}

// NewBufferFromFlat adopts a row-major wire payload (stride = arity) as
// a sealed flat-path buffer, taking ownership of flat. It checks, and
// reorders nothing: a whole number of rows, every value non-negative
// (tuple values are domain elements), rows in lexicographic order.
func NewBufferFromFlat(arity int, flat []int) (*Buffer, error) {
	if arity < 1 {
		return nil, fmt.Errorf("exchange: flat buffer arity %d, need ≥ 1", arity)
	}
	if len(flat)%arity != 0 {
		return nil, fmt.Errorf("exchange: flat payload of %d values is not a multiple of arity %d", len(flat), arity)
	}
	for i := 0; i < len(flat); i += arity {
		row := flat[i : i+arity]
		for _, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("exchange: negative value %d in flat payload", v)
			}
		}
		if i > 0 && slices.Compare(flat[i-arity:i], row) > 0 {
			return nil, fmt.Errorf("exchange: flat rows not sorted at row %d", i/arity)
		}
	}
	return &Buffer{arity: arity, flat: flat, sealed: true}, nil
}

// sortFlat sorts a row-major flat slice of the given stride
// lexicographically.
func sortFlat(flat []int, stride int) {
	n := len(flat) / stride
	sort.Sort(&flatSorter{flat: flat, stride: stride, n: n})
}

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

// Column is the receiver side of the exchange: the sealed runs a worker
// holds under one relation name, in arrival order.
type Column struct {
	runs []*Buffer
}

// Add appends a run, sealing it if the sender did not.
func (c *Column) Add(run *Buffer) {
	run.Seal()
	c.runs = append(c.runs, run)
}

// Runs returns the underlying sealed runs (read-only).
func (c *Column) Runs() []*Buffer { return c.runs }
