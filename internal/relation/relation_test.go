package relation

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func TestTupleBasics(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be equal")
	}
	b[0] = 9
	if a.Equal(b) {
		t.Error("mutating clone must not alias original")
	}
	if a.Equal(Tuple{1, 2}) {
		t.Error("different lengths are unequal")
	}
	if a.Key() != "1|2|3" {
		t.Errorf("Key = %q", a.Key())
	}
	if !(Tuple{1, 2}).Less(Tuple{1, 3}) {
		t.Error("lex order")
	}
	if !(Tuple{1}).Less(Tuple{1, 0}) {
		t.Error("prefix is less")
	}
	if (Tuple{2}).Less(Tuple{1, 5}) {
		t.Error("2 > 1,*")
	}
}

func TestRelationBasics(t *testing.T) {
	r := New("R", "x", "y")
	if r.Arity() != 2 || r.Size() != 0 {
		t.Error("empty relation shape")
	}
	if err := r.Add(Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Tuple{1}); err == nil {
		t.Error("want arity error")
	}
	r.MustAdd(Tuple{3, 4})
	if r.Size() != 2 {
		t.Errorf("size = %d", r.Size())
	}
	if r.AttrIndex("y") != 1 || r.AttrIndex("z") != -1 {
		t.Error("AttrIndex")
	}
	if got := r.String(); got != "R(x,y)[2 tuples]" {
		t.Errorf("String = %q", got)
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAdd should panic on arity mismatch")
		}
	}()
	New("R", "x").MustAdd(Tuple{1, 2})
}

func TestSortDedup(t *testing.T) {
	r := New("R", "x")
	r.MustAdd(Tuple{3})
	r.MustAdd(Tuple{1})
	r.MustAdd(Tuple{3})
	sorted := r.Run().Tuples()
	if len(sorted) != 3 || sorted[0][0] != 1 || sorted[1][0] != 3 || sorted[2][0] != 3 {
		t.Errorf("sealed run: %v", sorted)
	}
	if deduped := DedupSort(r.Tuples); len(deduped) != 2 || deduped[0][0] != 1 || deduped[1][0] != 3 {
		t.Errorf("after dedup+sort: %v", deduped)
	}
}

func TestMatchingInvariants(t *testing.T) {
	// Property: Matching always produces an a-dimensional matching.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		n := 1 + rng.IntN(50)
		a := 1 + rng.IntN(4)
		attrs := make([]string, a)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		r := Matching(rng, "S", attrs, n)
		return r.IsMatching(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIsMatchingNegativeCases(t *testing.T) {
	r := New("S", "x", "y")
	r.MustAdd(Tuple{1, 1})
	r.MustAdd(Tuple{1, 2}) // column x repeats value 1
	if r.IsMatching(2) {
		t.Error("repeated column value is not a matching")
	}
	r2 := New("S", "x")
	r2.MustAdd(Tuple{1})
	if r2.IsMatching(2) {
		t.Error("wrong cardinality is not a matching")
	}
	r3 := New("S", "x")
	r3.MustAdd(Tuple{5})
	if r3.IsMatching(1) {
		t.Error("out-of-domain value is not a matching")
	}
}

func TestIdentityMatching(t *testing.T) {
	r := IdentityMatching("S", []string{"x", "y", "z"}, 4)
	if !r.IsMatching(4) {
		t.Error("identity should be a matching")
	}
	for _, tp := range r.Tuples {
		if tp[0] != tp[1] || tp[1] != tp[2] {
			t.Errorf("identity tuple %v", tp)
		}
	}
}

func TestSkewedZipf(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	r := SkewedZipf(rng, "S", []string{"x", "y"}, 2000, 1.0)
	if r.Size() != 2000 {
		t.Fatalf("size = %d", r.Size())
	}
	// Heavy hitter: value 1 should appear far more often than uniform
	// (expected ~ n/H(n) ≈ 250 vs uniform 1).
	count1 := 0
	for _, tp := range r.Tuples {
		if tp[0] == 1 {
			count1++
		}
	}
	if count1 < 50 {
		t.Errorf("value 1 occurs %d times; want heavy skew", count1)
	}
	defer func() {
		if recover() == nil {
			t.Error("SkewedZipf should panic for non-binary schema")
		}
	}()
	SkewedZipf(rng, "S", []string{"x"}, 10, 1.0)
}

func TestDatabase(t *testing.T) {
	db := NewDatabase(10)
	db.AddRelation(New("R", "x", "y"))
	db.AddRelation(New("S", "y", "z"))
	if _, ok := db.Relation("R"); !ok {
		t.Error("R missing")
	}
	if _, ok := db.Relation("nope"); ok {
		t.Error("phantom relation")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("Names = %v", names)
	}
	// Replacement keeps order stable.
	db.AddRelation(New("R", "x", "y"))
	if got := db.Names(); len(got) != 2 {
		t.Errorf("Names after replace = %v", got)
	}
	r, _ := db.Relation("R")
	r.MustAdd(Tuple{1, 2})
	if got := db.Relations["R"].Size(); got != 1 {
		t.Errorf("R holds %d tuples", got)
	}
	// InputBits: 1 tuple × arity 2 × ceil(log2(11)) = 2×4 = 8.
	if got := db.InputBits(); got != 8 {
		t.Errorf("InputBits = %d, want 8", got)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := ceilLog2(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestMatchingDatabase(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	q := query.Cycle(3)
	db := MatchingDatabase(rng, q, 20)
	if len(db.Names()) != 3 {
		t.Fatalf("relations = %v", db.Names())
	}
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		if !r.IsMatching(20) {
			t.Errorf("%s is not a matching", name)
		}
	}
	idb := IdentityDatabase(q, 5)
	for _, name := range idb.Names() {
		r, _ := idb.Relation(name)
		for _, tp := range r.Tuples {
			if tp[0] != tp[1] {
				t.Errorf("identity db tuple %v", tp)
			}
		}
	}
}
