package exchange

import (
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

// snap copies the runs' payloads so a test can check the algebra left
// them bit-identical.
func snap(runs []*Buffer) [][]uint64 {
	out := make([][]uint64, len(runs))
	for i, r := range runs {
		if r != nil {
			out[i] = slices.Clone(r.Words())
		}
	}
	return out
}

func checkUntouched(t *testing.T, what string, runs []*Buffer, before [][]uint64) {
	t.Helper()
	for i, r := range runs {
		if r != nil && !slices.Equal(r.Words(), before[i]) {
			t.Fatalf("%s modified input run %d", what, i)
		}
	}
}

// tuplesOf materializes runs tuple by tuple — the reference side reads
// through the public tuple API only.
func tuplesOf(runs ...*Buffer) []relation.Tuple {
	var out []relation.Tuple
	for _, r := range runs {
		if r != nil {
			out = r.AppendTuples(out)
		}
	}
	return out
}

func sameTuples(t *testing.T, what string, got *Buffer, want []relation.Tuple) {
	t.Helper()
	have := got.Tuples()
	if len(have) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(have), len(want))
	}
	for i := range want {
		if !have[i].Equal(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, have[i], want[i])
		}
	}
	if got != nil && !got.Sealed() {
		t.Fatalf("%s: result is not sealed", what)
	}
}

// randomRun draws a sealed run of the arity with values below dom; a
// wide run additionally carries values past a one-word row's field
// width, which widens its rows.
func randomRun(rng *rand.Rand, arity, size, dom int, wide bool) *Buffer {
	b := NewBuffer(arity)
	row := make(relation.Tuple, arity)
	for i := 0; i < size; i++ {
		for c := range row {
			row[c] = rng.IntN(dom)
			if wide && (i == 0 || rng.IntN(4) == 0) {
				row[c] += 1 << (64 / arity) // past a one-word row's field
			}
		}
		b.Append(row)
	}
	b.Seal()
	return b
}

// TestRunAlgebraMatchesTupleReference: Merge, Diff and Project over
// random sealed runs equal their tuple-level definitions — DedupSort
// of the concatenation, set difference, column select then DedupSort —
// on all-packed, all-flat and mixed inputs of one arity, with nil and
// empty runs and duplicates across runs in the mix, and leave every
// input bit-identical (the recovery journal re-sends those buffers).
func TestRunAlgebraMatchesTupleReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 103))
	for _, layout := range []string{"packed", "wide", "mixed"} {
		for arity := 1; arity <= 5; arity++ {
			for trial := 0; trial < 12; trial++ {
				k := rng.IntN(6)
				runs := make([]*Buffer, 0, k+2)
				for i := 0; i < k; i++ {
					wide := layout == "wide" || layout == "mixed" && i%2 == 1
					runs = append(runs, randomRun(rng, arity, rng.IntN(60), 5, wide))
				}
				runs = append(runs, nil, NewBuffer(arity))
				rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
				before := snap(runs)

				merged := relation.Merge(runs)
				sameTuples(t, layout+" merge", merged, relation.DedupSort(tuplesOf(runs...)))
				checkUntouched(t, "Merge", runs, before)
				wantStride := 1
				for _, r := range runs {
					if r.Len() > 0 {
						wantStride = max(wantStride, r.Stride())
					}
				}
				if merged != nil && merged.Stride() != wantStride {
					t.Fatalf("%s merge: %d words a row, want the widest input's %d", layout, merged.Stride(), wantStride)
				}

				// Diff of the union of one half against the other half.
				a, b := relation.Merge(runs[:len(runs)/2]), relation.Merge(runs[len(runs)/2:])
				pair := []*Buffer{a, b}
				before = snap(pair)
				sub := map[string]bool{}
				for _, tu := range tuplesOf(b) {
					sub[tu.Key()] = true
				}
				var want []relation.Tuple
				for _, tu := range tuplesOf(a) {
					if !sub[tu.Key()] {
						want = append(want, tu)
					}
				}
				sameTuples(t, layout+" diff", relation.Diff(a, b), want)
				checkUntouched(t, "Diff", pair, before)

				// Project onto a random column list (selection, permutation,
				// repeats).
				cols := make([]int, 1+rng.IntN(arity+1))
				for i := range cols {
					cols[i] = rng.IntN(arity)
				}
				before = snap([]*Buffer{merged})
				var sel []relation.Tuple
				for _, tu := range tuplesOf(merged) {
					row := make(relation.Tuple, len(cols))
					for i, c := range cols {
						row[i] = tu[c]
					}
					sel = append(sel, row)
				}
				sameTuples(t, layout+" project", relation.Project(merged, cols), relation.DedupSort(sel))
				checkUntouched(t, "Project", []*Buffer{merged}, before)
			}
		}
	}
	if relation.Merge(nil) != nil || relation.Merge([]*Buffer{nil, NewBuffer(3)}) != nil {
		t.Error("merge of nothing is not nil")
	}
	if relation.Project(nil, []int{0}) != nil || relation.Diff(nil, NewBuffer(2)) != nil {
		t.Error("project/diff of a nil run is not nil")
	}
}

// TestPartitionRunMatchesPartition: scattering a sealed run produces
// deliveries bit-identical to scattering its materialized tuples, on
// both layouts and across the shard fan-out.
func TestPartitionRunMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, wide := range []bool{false, true} {
		for _, size := range []int{0, 50, 3 * minShard} {
			run := randomRun(rng, 3, size, 1000, wide)
			part := HashPartitioner{Col: 1, P: 5, Seed: 3}
			want, err := Partition("V", run.Tuples(), 3, 5, part)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PartitionRun("V", run, 5, part)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("wide=%v size=%d: %d deliveries, want %d", wide, size, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.To != w.To || g.Rel != w.Rel || g.Buf.Stride() != w.Buf.Stride() || !g.Buf.Sealed() ||
					!slices.Equal(g.Buf.Words(), w.Buf.Words()) {
					t.Fatalf("wide=%v size=%d: delivery %d differs", wide, size, i)
				}
			}
		}
	}
	if ds, err := PartitionRun("V", nil, 4, Broadcast{P: 4}); err != nil || len(ds) != 0 {
		t.Errorf("nil run: %d deliveries, err %v", len(ds), err)
	}
	if _, err := PartitionRun("V", randomRun(rng, 2, 3, 9, false), 2, RouteFunc(func(relation.Tuple) []int { return []int{2} })); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// FuzzMergeRuns deals fuzzer-chosen values into runs of a
// fuzzer-chosen arity and count and checks MergeRuns — the
// materializing adapter over Merge — against DedupSort of the
// concatenation, at whichever strides the values land, and that the
// runs survive untouched.
func FuzzMergeRuns(f *testing.F) {
	vals := func(vs ...uint64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	f.Add(uint8(1), uint8(2), vals(1, 2, 3, 4, 1, 2, 3, 4, 5, 6))
	f.Add(uint8(1), uint8(1), vals(1<<32, 0, 1, 2, 1<<32, 0, 1, 2))          // arity-2 values ≥ 2³²: one run two words a row, one a word
	f.Add(uint8(4), uint8(3), vals(40000, 1, 2, 3, 4, 40000, 1, 2, 3, 4, 7)) // 5 × 16 bits > 64
	f.Add(uint8(0), uint8(0), vals(1<<62, 1<<62, 0))
	f.Add(uint8(2), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, arity, split uint8, data []byte) {
		a := 1 + int(arity)%6
		k := 1 + int(split)%5
		runs := make([]*Buffer, k)
		for i := range runs {
			runs[i] = NewBuffer(a)
		}
		row := make(relation.Tuple, 0, a)
		for n := 0; len(data) >= 8; data = data[8:] {
			row = append(row, int(binary.LittleEndian.Uint64(data)&^(1<<63))) // non-negative
			if len(row) == a {
				runs[n%k].Append(row)
				row, n = row[:0], n+1
			}
		}
		for _, r := range runs {
			r.Seal()
		}
		before := snap(runs)
		want := relation.DedupSort(tuplesOf(runs...))
		got := MergeRuns(runs)
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("arity %d, %d runs: merged %v, want %v", a, k, got, want)
		}
		checkUntouched(t, "MergeRuns", runs, before)
	})
}

// BenchmarkDiffDelta is the diff a fixpoint iteration takes: a Δ of
// 6 000 binary tuples, half of them known, against a closure of 50 000 —
// on one-word rows (the scalar loop) and on two-word ones (the strided
// one).
func BenchmarkDiffDelta(b *testing.B) {
	for _, layout := range []string{"packed", "wide"} {
		b.Run(layout, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(23, 29))
			offset := 0
			if layout == "wide" {
				offset = 1 << 33
			}
			draw := func(n int) []relation.Tuple {
				ts := make([]relation.Tuple, n)
				for i := range ts {
					ts[i] = relation.Tuple{offset + rng.IntN(1<<20), offset + rng.IntN(1<<20)}
				}
				return ts
			}
			known := draw(50000)
			closure := relation.RunOf(2, known).Dedup()
			delta := relation.RunOf(2, append(draw(3000), known[:3000]...)).Dedup()
			if (closure.Stride() == 1) != (layout == "packed") || delta.Stride() != closure.Stride() {
				b.Fatalf("runs are not %s", layout)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh := relation.Diff(delta, closure); fresh.Len() < 2900 || fresh.Len() > 3000 {
					b.Fatalf("%d of %d Δ tuples are new, want about 3 000", fresh.Len(), delta.Len())
				}
			}
		})
	}
}
