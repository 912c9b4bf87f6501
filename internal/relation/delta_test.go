package relation

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// randomDeltaDB builds a database with two binary relations over a
// small domain, dense enough that heavy hitters exist and deletes
// collide with multiplicities.
func randomDeltaDB(rng *rand.Rand, n, rows int) *Database {
	db := NewDatabase(n)
	for _, name := range []string{"R", "S"} {
		r := &Relation{Name: name, Attrs: []string{"x", "y"}}
		for i := 0; i < rows; i++ {
			// Skew the first column so the top-K head is non-trivial.
			x := 1 + rng.IntN(n)/(1+rng.IntN(4))
			r.MustAdd(Tuple{x, 1 + rng.IntN(n)})
		}
		db.AddRelation(r)
	}
	return db
}

// randomDelta draws a delta whose deletes are sampled from present
// tuples (so it always validates) and whose appends are fresh draws.
func randomDelta(rng *rand.Rand, db *Database) Delta {
	d := Delta{Appends: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		nDel := rng.IntN(4)
		if nDel > len(r.Tuples) {
			nDel = len(r.Tuples)
		}
		for _, i := range rng.Perm(len(r.Tuples))[:nDel] {
			d.Deletes[name] = append(d.Deletes[name], r.Tuples[i].Clone())
		}
		for i := 0; i < rng.IntN(4); i++ {
			d.Appends[name] = append(d.Appends[name],
				Tuple{1 + rng.IntN(db.N), 1 + rng.IntN(db.N)})
		}
	}
	return d
}

func TestApplyDeltaEffects(t *testing.T) {
	db := NewDatabase(10)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	r.MustAdd(Tuple{1, 2})
	r.MustAdd(Tuple{1, 2}) // duplicate occurrence
	r.MustAdd(Tuple{3, 4})
	db.AddRelation(r)

	// Deleting one of two occurrences removes nothing set-wise.
	out, eff, err := ApplyDelta(db, Delta{Deletes: map[string][]Tuple{"R": {{1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(eff["R"].Removed) != 0 || len(eff["R"].Added) != 0 {
		t.Fatalf("one-of-two delete produced effect %+v", eff["R"])
	}
	nr, _ := out.Relation("R")
	if len(nr.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(nr.Tuples))
	}

	// Deleting the last occurrence removes; appending a fresh tuple adds.
	out, eff, err = ApplyDelta(db, Delta{
		Deletes: map[string][]Tuple{"R": {{3, 4}}},
		Appends: map[string][]Tuple{"R": {{5, 6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eff["R"]; len(got.Removed) != 1 || !got.Removed[0].Equal(Tuple{3, 4}) ||
		len(got.Added) != 1 || !got.Added[0].Equal(Tuple{5, 6}) {
		t.Fatalf("effect %+v, want removed [3 4], added [5 6]", eff["R"])
	}

	// Delete + re-append of the same tuple is a set-level no-op.
	_, eff, err = ApplyDelta(db, Delta{
		Deletes: map[string][]Tuple{"R": {{3, 4}}},
		Appends: map[string][]Tuple{"R": {{3, 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eff["R"]; len(got.Removed) != 0 || len(got.Added) != 0 {
		t.Fatalf("delete+re-append produced effect %+v", got)
	}

	// The original database is untouched.
	if r2, _ := db.Relation("R"); len(r2.Tuples) != 3 {
		t.Fatalf("source relation mutated to %d tuples", len(r2.Tuples))
	}
}

func TestApplyDeltaRejects(t *testing.T) {
	db := NewDatabase(10)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	r.MustAdd(Tuple{1, 2})
	db.AddRelation(r)

	cases := []Delta{
		{Deletes: map[string][]Tuple{"R": {{9, 9}}}},         // absent tuple
		{Deletes: map[string][]Tuple{"R": {{1, 2}, {1, 2}}}}, // more than present
		{Appends: map[string][]Tuple{"Q": {{1, 2}}}},         // unknown relation
		{Appends: map[string][]Tuple{"R": {{1}}}},            // arity mismatch
		{Appends: map[string][]Tuple{"R": {{0, 2}}}},         // below domain
		{Appends: map[string][]Tuple{"R": {{1, 11}}}},        // above domain
		{Deletes: map[string][]Tuple{"R": {{-1, 2}}}},        // negative value
	}
	for i, d := range cases {
		if _, _, err := ApplyDelta(db, d); err == nil {
			t.Errorf("case %d: delta %+v accepted, want error", i, d)
		}
	}
}

// TestIncrementalStatsMatchCollect is the incremental-stats property
// test: after every step of a random delta sequence, the maintained
// catalog equals a from-scratch CollectStats — cardinality, distinct
// counts, max frequency, and the exact top-K heavy-hitter list with
// its canonical order.
func TestIncrementalStatsMatchCollect(t *testing.T) {
	for _, domain := range []int{5, 12, 300} {
		rng := rand.New(rand.NewPCG(0xde17a, uint64(domain)))
		db := randomDeltaDB(rng, domain, 120)
		inc := NewIncrementalStats(db)
		if got, want := inc.Snapshot(), CollectStats(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("domain %d: seeded snapshot diverges:\n got %+v\nwant %+v", domain, got, want)
		}
		for step := 0; step < 40; step++ {
			d := randomDelta(rng, db)
			next, _, err := ApplyDelta(db, d)
			if err != nil {
				t.Fatalf("domain %d step %d: %v", domain, step, err)
			}
			inc.Apply(d)
			db = next
			got, want := inc.Snapshot(), CollectStats(db)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("domain %d step %d: incremental catalog diverges from scratch:\n got %+v\nwant %+v",
					domain, step, got, want)
			}
		}
	}
}

// TestIncrementalStatsTopKPromotion forces the demotion path: the most
// frequent value shrinks below every other, so MaxFreq must move to the
// runner-up exactly as a re-collection would.
func TestIncrementalStatsTopKPromotion(t *testing.T) {
	const k = 16
	db := NewDatabase(100)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	// k+1 distinct x-values in descending frequency; value 1 is the
	// most frequent.
	for v := 1; v <= k+1; v++ {
		reps := k + 2 - v
		for i := 0; i < reps; i++ {
			r.MustAdd(Tuple{v, 50})
		}
	}
	db.AddRelation(r)
	inc := NewIncrementalStats(db)

	// Delete value 1 down to frequency 1: it falls to the bottom.
	var d Delta
	d.Deletes = map[string][]Tuple{}
	for i := 0; i < k; i++ {
		d.Deletes["R"] = append(d.Deletes["R"], Tuple{1, 50})
	}
	next, _, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	inc.Apply(d)
	got, want := inc.Snapshot(), CollectStats(next)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-demotion catalog diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestTupleSetRemove(t *testing.T) {
	s := NewTupleSet(2, 4)
	s.Add(Tuple{1, 2})
	s.Add(Tuple{3, 4})
	if !s.Remove(Tuple{1, 2}) {
		t.Fatal("Remove of present tuple returned false")
	}
	if s.Remove(Tuple{1, 2}) {
		t.Fatal("second Remove returned true")
	}
	if s.Contains(Tuple{1, 2}) || !s.Contains(Tuple{3, 4}) || s.Len() != 1 {
		t.Fatalf("set state wrong after Remove: len=%d", s.Len())
	}
	// Fallback (string-key) path.
	big := NewTupleSet(2, 2)
	huge := Tuple{1 << 40, 1 << 40}
	big.Add(huge) // forces migration (values exceed 32-bit packing)
	big.Add(Tuple{1, 2})
	if !big.Remove(huge) || big.Contains(huge) {
		t.Fatal("Remove on fallback path failed")
	}
	if !big.Contains(Tuple{1, 2}) {
		t.Fatal("fallback Remove disturbed other members")
	}
}
