package exchange

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

func TestBufferPackedRoundTrip(t *testing.T) {
	b := NewBuffer(3)
	in := []relation.Tuple{{3, 2, 1}, {1, 2, 3}, {1, 2, 3}, {9, 9, 9}}
	for _, tu := range in {
		b.Append(tu)
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Seal()
	got := b.AppendTuples(nil)
	want := []relation.Tuple{{1, 2, 3}, {1, 2, 3}, {3, 2, 1}, {9, 9, 9}}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("sealed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Bits: 4 tuples × 3 values × 5 bits.
	if bits := b.Bits(5); bits != 60 {
		t.Errorf("Bits = %d, want 60", bits)
	}
}

func TestBufferMigratesOnWideValues(t *testing.T) {
	// Arity 3 packs at 21 bits per value; 1<<30 forces the flat path
	// after two packed appends.
	b := NewBuffer(3)
	b.Append(relation.Tuple{5, 6, 7})
	b.Append(relation.Tuple{2, 3, 4})
	b.Append(relation.Tuple{1 << 30, 1, 2})
	b.Seal()
	got := b.AppendTuples(nil)
	want := []relation.Tuple{{2, 3, 4}, {5, 6, 7}, {1 << 30, 1, 2}}
	if len(got) != 3 {
		t.Fatalf("Len = %d", len(got))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("sealed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBufferHugeArityFallsBack(t *testing.T) {
	// Arity 65 has more fields than a word has bits: two words a row.
	wide := make(relation.Tuple, 65)
	wide[64] = 42
	b := NewBuffer(65)
	b.Append(wide)
	b.Seal()
	got := b.AppendTuples(nil)
	if len(got) != 1 || !got[0].Equal(wide) || b.Stride() < 2 {
		t.Fatalf("round-trip at %d words a row failed: %v", b.Stride(), got)
	}
}

// RouteFunc adapts a per-tuple destination function to the Partitioner
// interface, for tests that route by a rule no engine uses.
type RouteFunc func(t relation.Tuple) []int

// Route implements Partitioner.
func (f RouteFunc) Route(_ int, t relation.Tuple, buf []int) []int {
	return append(buf, f(t)...)
}

func TestPartitionRejectsBadDestination(t *testing.T) {
	tuples := []relation.Tuple{{1}, {2}}
	_, err := Partition("R", tuples, 1, 2, RouteFunc(func(t relation.Tuple) []int {
		return []int{3}
	}))
	if err == nil {
		t.Fatal("want error for destination out of range")
	}
}

func TestBroadcastPartitioner(t *testing.T) {
	ds, err := Partition("R", []relation.Tuple{{4}}, 1, 3, Broadcast{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(ds))
	}
	for i, d := range ds {
		if d.To != i || d.Buf.Len() != 1 {
			t.Errorf("delivery %d = to %d len %d", i, d.To, d.Buf.Len())
		}
	}
}

func TestMergeRunsMixedPaths(t *testing.T) {
	// One packed run, one flat run (wide value): merge falls back and
	// still yields the deduplicated sorted union.
	a := NewBuffer(2)
	a.Append(relation.Tuple{1, 2})
	a.Append(relation.Tuple{3, 4})
	a.Seal()
	b := NewBuffer(2)
	b.Append(relation.Tuple{1 << 40, 0})
	b.Append(relation.Tuple{1, 2})
	b.Seal()
	got := MergeRuns([]*Buffer{a, b})
	want := []relation.Tuple{{1, 2}, {3, 4}, {1 << 40, 0}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBufferDedup: Dedup seals and drops repeated tuples on rows of one
// word and of two, and Grow reserves without changing content.
func TestBufferDedup(t *testing.T) {
	for _, wide := range []int{0, 1 << 40} {
		b := NewBuffer(2)
		b.Grow(8)
		for _, tu := range []relation.Tuple{{3, 1}, {1, 2}, {3, 1}, {1, 2}, {1, 2}, {2, wide}} {
			b.Append(tu)
		}
		b.Grow(3)
		b.Dedup()
		if (b.Stride() == 1) != (wide == 0) {
			t.Fatalf("wide=%d: %d words a row", wide, b.Stride())
		}
		got := b.AppendTuples(nil)
		want := []relation.Tuple{{1, 2}, {2, wide}, {3, 1}}
		if !b.Sealed() || len(got) != len(want) {
			t.Fatalf("wide=%d: sealed=%v, tuples %v, want %v", wide, b.Sealed(), got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("wide=%d: [%d] = %v, want %v", wide, i, got[i], want[i])
			}
		}
	}
	empty := NewBuffer(2)
	empty.Dedup()
	if empty.Len() != 0 || !empty.Sealed() {
		t.Errorf("empty buffer after Dedup: len %d sealed %v", empty.Len(), empty.Sealed())
	}
}

// TestMergeWords: Merge's words equal sort+compact of the concatenated
// words for every run count, skip empty runs and leave the inputs alone;
// a run of two words a row among one-word ones takes the merge to two
// words a row, holding the union.
func TestMergeWords(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 17))
	for k := 0; k <= 5; k++ {
		var runs []*Buffer
		var all, before []uint64
		for i := 0; i < k; i++ {
			b := NewBuffer(2)
			for j := rng.IntN(40); j > 0; j-- {
				b.Append(relation.Tuple{rng.IntN(6), rng.IntN(6)})
			}
			b.Seal()
			runs = append(runs, b)
			all = append(all, b.Words()...)
		}
		before = append(before, all...)
		slices.Sort(all)
		want := slices.Compact(all)
		var got []uint64
		if merged := relation.Merge(runs); merged != nil {
			got = merged.Words()
		}
		if !slices.Equal(got, want) {
			t.Errorf("k=%d: merged %v, want %v", k, got, want)
		}
		var after []uint64
		for _, b := range runs {
			after = append(after, b.Words()...)
		}
		if !slices.Equal(after, before) {
			t.Errorf("k=%d: Merge modified its inputs", k)
		}
	}
	wide := relation.RunOf(2, []relation.Tuple{{1 << 33, 1}, {2, 2}})
	narrow := relation.RunOf(2, []relation.Tuple{{2, 2}, {1, 5}})
	if wide.Stride() != 2 || narrow.Stride() != 1 {
		t.Fatalf("fixture strides %d and %d, want 2 and 1", wide.Stride(), narrow.Stride())
	}
	got := relation.Merge([]*Buffer{narrow, wide})
	if want := []relation.Tuple{{1, 5}, {2, 2}, {1 << 33, 1}}; got.Stride() != 2 || !reflect.DeepEqual(got.Tuples(), want) {
		t.Errorf("mixed strides: %d words a row, %v, want 2 and %v", got.Stride(), got.Tuples(), want)
	}
}

// sealWords appends ws to a fresh arity-1 buffer, seals it and returns
// the sealed payload with the backing array it was built on. A lone
// field is 64 bits wide, so a word is its value with the sign bit
// flipped.
func sealWords(ws []uint64) (sealed, built []uint64) {
	b := NewBuffer(1)
	for _, w := range ws {
		b.Append(relation.Tuple{int(w)})
	}
	built = b.Words()
	b.Seal()
	return b.Words(), built
}

// flipped returns ws with each word's sign bit flipped: the arity-1 code
// of each.
func flipped(ws []uint64) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = w ^ 1<<63
	}
	return out
}

// TestSealMatchesSort: whatever order the words arrive in — random
// above and below the radix sort's cutoff, ascending, descending, all
// equal, empty — a sealed arity-1 buffer holds exactly slices.Sort of its
// input's codes.
func TestSealMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	random := func(n int) []uint64 {
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = rng.Uint64N(1 << 40)
		}
		return ws
	}
	sorted := random(5000)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	for name, ws := range map[string][]uint64{
		"random-small": random(100), "random-large": random(20000), "sorted": sorted,
		"reversed": reversed, "all-equal": make([]uint64, 3000), "empty": nil,
	} {
		want := flipped(ws)
		slices.Sort(want)
		if got, _ := sealWords(ws); !slices.Equal(got, want) {
			t.Errorf("%s: sealed words differ from slices.Sort", name)
		}
	}
}

// TestSealSortedIsNoop: sealing words that are already ascending
// neither allocates nor moves them.
func TestSealSortedIsNoop(t *testing.T) {
	ws := make([]uint64, 50000)
	for i := range ws {
		ws[i] = uint64(3 * i)
	}
	sealed, built := sealWords(ws)
	if &sealed[0] != &built[0] || !slices.Equal(sealed, flipped(ws)) {
		t.Fatal("sealing a sorted buffer replaced or reordered its words")
	}
	// One pre-built unsealed buffer per measured call (AllocsPerRun warms
	// up with one call of its own).
	const calls = 10
	unsealed := make([]*Buffer, 0, calls+1)
	for len(unsealed) < cap(unsealed) {
		b := NewBuffer(1)
		b.Grow(len(ws))
		for _, w := range ws {
			b.Append(relation.Tuple{int(w)})
		}
		unsealed = append(unsealed, b)
	}
	next := 0
	if allocs := testing.AllocsPerRun(calls, func() {
		unsealed[next].Seal()
		next++
	}); allocs != 0 {
		t.Errorf("sealing sorted words allocated %.0f times", allocs)
	}
}

// TestPartitionReservesFromFanout: a scatter allocates each
// destination's run once, at the exact size its rows take, whatever the
// partitioner — a hash, a broadcast, a grid routed a column at a time
// and one routed per row — and beyond those runs a constant few
// allocations: the shard's scratch, its list of destinations doubling
// past one a row, Route's own buffer; none per row, and no run regrown.
func TestPartitionReservesFromFanout(t *testing.T) {
	const p = 8
	tuples := make([]relation.Tuple, 40000)
	for i := range tuples {
		tuples[i] = relation.Tuple{i, i * 31}
	}
	run := relation.RunOf(2, tuples)
	grid, err := NewGrid([]int{2, 4}, []uint64{1, 2}, []GridBind{{Pos: 1, Dim: 1}})
	if err != nil {
		t.Fatal(err)
	}
	repeated, err := NewGrid([]int{8}, []uint64{5}, []GridBind{{Pos: 0, Dim: 0}, {Pos: 0, Dim: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		part Partitioner
	}{
		{"hash", HashPartitioner{Col: 0, P: p, Seed: 3}},
		{"broadcast", Broadcast{P: p}},
		{"grid", grid},
		{"repeated", repeated},
	} {
		ds, err := PartitionRun("R", run, p, c.part)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != p {
			t.Fatalf("%s: %d runs for %d destinations", c.name, len(ds), p)
		}
		for _, d := range ds {
			if w := d.Buf.Words(); len(w) == 0 || cap(w) != len(w) || !d.Buf.Sealed() {
				t.Fatalf("%s: destination %d holds %d words in a buffer of %d, sealed %v", c.name, d.To, len(w), cap(w), d.Buf.Sealed())
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := PartitionRun("R", run, p, c.part); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > p+32 {
			t.Errorf("%s: %.0f allocations for %d destinations", c.name, allocs, p)
		}
	}
}
