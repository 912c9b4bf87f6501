package relation

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The next four tests hold the membership search of a sealed run
// (Run.Contains) — which took over from a map-backed tuple set — to the
// cases the set was tested on, under the set's test names.

func TestTupleSetBasic(t *testing.T) {
	s := RunOf(3, []Tuple{{1, 2, 3}, {1, 2, 3}, {1, 2, 4}, {3, 2, 1}}).Dedup()
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(Tuple{1, 2, 3}) || !s.Contains(Tuple{3, 2, 1}) || s.Contains(Tuple{3, 2, 2}) {
		t.Error("Contains mismatch")
	}
	if s.Contains(Tuple{1, 2}) || (*Run)(nil).Contains(Tuple{1, 2, 3}) {
		t.Error("a tuple of another arity, or a nil run, must contain nothing")
	}
	wide := RunOf(3, []Tuple{{1, 2, 3}, {1 << 40, 2, 3}})
	if allocs := testing.AllocsPerRun(10, func() { s.Contains(Tuple{1, 2, 4}); wide.Contains(Tuple{1 << 40, 2, 3}) }); allocs != 0 {
		t.Errorf("a membership search allocated %.0f times", allocs) // hypercube's maintenance asks once per answer
	}
}

// Packed keys must not be ambiguous under concatenation: (1,23) and
// (12,3) must stay distinct.
func TestTupleSetNoPackingCollisions(t *testing.T) {
	s := RunOf(2, []Tuple{{1, 23}})
	if s.Contains(Tuple{12, 3}) || !s.Contains(Tuple{1, 23}) {
		t.Error("packed keys must distinguish (1,23) from (12,3)")
	}
}

// Values that do not fit a field re-stride the run; the earlier members
// must survive.
func TestTupleSetMigration(t *testing.T) {
	members := []Tuple{{1, 2}, {7, 9}, {1 << 20, 5}}
	// Arity 2 packs 32 bits per value; exceed it to migrate.
	big := Tuple{math.MaxInt, math.MaxInt}
	s := RunOf(2, append(slices.Clone(members), big, big)).Dedup()
	if s.Stride() != 2 {
		t.Fatalf("oversized tuple left the run at %d words a row, want 2", s.Stride())
	}
	if !s.Contains(big) {
		t.Error("oversized tuple not found in the re-strided run")
	}
	for _, m := range members {
		if !s.Contains(m) {
			t.Errorf("member %v lost in migration", m)
		}
	}
	if s.Contains(Tuple{2, 1}) || s.Contains(Tuple{math.MaxInt, 1}) {
		t.Error("false positive after migration")
	}
	if s.Len() != len(members)+1 {
		t.Errorf("Len = %d, want %d (the oversized duplicate must dedup)", s.Len(), len(members)+1)
	}
	// Negative values take a 64-bit field, sign bit flipped.
	neg := RunOf(1, []Tuple{{-5}, {-5}, {3}}).Dedup()
	if neg.Len() != 2 || !neg.Contains(Tuple{-5}) || !neg.Contains(Tuple{3}) || neg.Contains(Tuple{5}) {
		t.Error("negative values must dedup and be found in a 64-bit field")
	}
	if got := neg.Tuples(); got[0][0] != -5 {
		t.Errorf("a negative value sorts after a positive one: %v", got)
	}
}

// The membership search agrees with the reference string-key set on
// random tuples of arity 1–4: one-word rows of small values, and wider
// ones mixing in values past 2³³ and negative values (a lone field is a
// 64-bit one, so arity 1 is one word a row either way).
func TestTupleSetMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func(arity int, wide bool) Tuple {
		tp := make(Tuple, arity)
		for j := range tp {
			switch r := rng.IntN(10); {
			case wide && r == 0:
				tp[j] = 1<<33 + rng.IntN(100)
			case wide && r == 1:
				tp[j] = -1 - rng.IntN(100)
			default:
				tp[j] = rng.IntN(16)
			}
		}
		return tp
	}
	for arity := 1; arity <= 4; arity++ {
		for _, wide := range []bool{false, true} {
			var tuples []Tuple
			ref := make(map[string]bool)
			for i := 0; i < 2000; i++ {
				tp := draw(arity, wide)
				tuples = append(tuples, tp)
				ref[tp.Key()] = true
			}
			s := RunOf(arity, tuples).Dedup()
			if strided := s.Stride() > 1; strided != (wide && arity > 1) {
				t.Fatalf("arity %d, wide %v: %d words a row", arity, wide, s.Stride())
			}
			if s.Len() != len(ref) {
				t.Fatalf("arity %d, wide %v: Len = %d, want %d", arity, wide, s.Len(), len(ref))
			}
			for i := 0; i < 2000; i++ {
				tp := draw(arity, wide)
				if got := s.Contains(tp); got != ref[tp.Key()] {
					t.Fatalf("arity %d, wide %v: Contains(%v) = %v, want %v", arity, wide, tp, got, ref[tp.Key()])
				}
			}
		}
	}
}

func TestDedupSort(t *testing.T) {
	ts := []Tuple{{3, 1}, {1, 2}, {3, 1}, {1, 2}, {2, 9}}
	out := DedupSort(ts)
	want := []Tuple{{1, 2}, {2, 9}, {3, 1}}
	if len(out) != len(want) {
		t.Fatalf("DedupSort = %v", out)
	}
	for i := range want {
		if !out[i].Equal(want[i]) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if got := DedupSort(nil); len(got) != 0 {
		t.Errorf("DedupSort(nil) = %v", got)
	}
}

// dedupSortReference is the hash-then-sort formulation DedupSort's
// wide path used before it became sort-then-compact: dedup on the
// fmt-rendered string key, then a reflective sort on Less.
func dedupSortReference(ts []Tuple) []Tuple {
	seen := make(map[string]bool, len(ts))
	var out []Tuple
	for _, tp := range ts {
		k := fmt.Sprint([]int(tp))
		if !seen[k] {
			seen[k] = true
			out = append(out, tp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestDedupSortMatchesReference: on arities 1–9, with values on both
// sides of the 2^⌊64/arity⌋ packing limit, heavy duplication and mixed
// arities — and on zero arity, negative values and tuples that do not
// pack — DedupSort equals the hash-then-sort reference, and Key renders
// what fmt did.
func TestDedupSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	gen := func(arity, count int) []Tuple {
		limit := 1 << min(64/arity, 40) // a value's field at one word a row
		ts := make([]Tuple, count)
		for i := range ts {
			tp := make(Tuple, arity)
			for j := range tp {
				switch rng.IntN(3) {
				case 0:
					tp[j] = rng.IntN(4)
				case 1:
					tp[j] = limit - 1 - rng.IntN(2)
				default:
					tp[j] = limit + rng.IntN(2)
				}
			}
			ts[i] = tp
		}
		return ts
	}
	check := func(name string, ts []Tuple) {
		t.Helper()
		want := dedupSortReference(slices.Clone(ts))
		got := DedupSort(slices.Clone(ts))
		if len(got) != len(want) {
			t.Fatalf("%s: %d tuples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: [%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	for arity := 1; arity <= 9; arity++ {
		ts := gen(arity, 300)
		check(fmt.Sprintf("arity %d", arity), ts)
		narrow := make([]Tuple, 200)
		for i := range narrow {
			narrow[i] = make(Tuple, arity)
			for j := range narrow[i] {
				narrow[i][j] = rng.IntN(3)
			}
		}
		check(fmt.Sprintf("arity %d narrow", arity), narrow)
		mixed := append(gen(arity, 100), gen(arity+1, 100)...)
		mixed = append(mixed, narrow[:50]...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		check(fmt.Sprintf("arities %d+%d", arity, arity+1), mixed)
		for _, tp := range ts[:20] {
			want := strings.Trim(strings.ReplaceAll(fmt.Sprint([]int(tp)), " ", "|"), "[]")
			if tp.Key() != want {
				t.Fatalf("Key(%v) = %q, want %q", tp, tp.Key(), want)
			}
		}
	}
	// What a sealed run cannot hold or does not pack: no columns, mixed
	// with no columns, negative values, values past the packed width, more
	// columns than a word has bits.
	check("zero arity", []Tuple{{}, {}, {}})
	check("zero and one", []Tuple{{1}, {}, {0}, {}, {1}})
	check("negative", []Tuple{{3, -1}, {-7, 2}, {3, -1}, {0, 0}, {-7, 1}, {-7, 2}})
	check("negative unary", []Tuple{{4}, {-1}, {4}, {math.MinInt}, {math.MaxInt}})
	check("does not pack", []Tuple{{1 << 62, 1}, {5, 1 << 40}, {1 << 62, 1}, {0, 3}, {5, 1 << 40}})
	huge := make([]Tuple, 6)
	for i := range huge {
		huge[i] = make(Tuple, 70)
		huge[i][69-i%3] = 1
	}
	check("arity 70", huge)
	if got := (Tuple{-5, 0, 1 << 62}).Key(); got != "-5|0|4611686018427387904" {
		t.Errorf("Key = %q", got)
	}
}
