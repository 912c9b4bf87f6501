package relation

import (
	"math/rand/v2"
	"testing"
)

func TestCollectRelationStatsBasics(t *testing.T) {
	r := New("R", "x", "y")
	// x: 1×3, 2×2, 3×1; y: all distinct.
	for i, x := range []int{1, 1, 1, 2, 2, 3} {
		r.MustAdd(Tuple{x, 10 + i})
	}
	rs := CollectRelationStats(r)
	if rs.Name != "R" || rs.Count != 6 {
		t.Fatalf("got name=%s count=%d", rs.Name, rs.Count)
	}
	cx := rs.ColByName("x")
	if cx == nil {
		t.Fatal("no stats for column x")
	}
	if cx.Distinct != 3 || cx.MaxFreq != 3 {
		t.Errorf("x: distinct=%d maxfreq=%d, want 3, 3", cx.Distinct, cx.MaxFreq)
	}
	want := []ValueCount{{1, 3}, {2, 2}, {3, 1}}
	if len(cx.Hist) != len(want) {
		t.Fatalf("x hist = %v", cx.Hist)
	}
	for i, w := range want {
		if cx.Hist[i] != w {
			t.Errorf("x hist[%d] = %v, want %v", i, cx.Hist[i], w)
		}
	}
	cy := rs.Col(1)
	if cy.Distinct != 6 || cy.MaxFreq != 1 {
		t.Errorf("y: distinct=%d maxfreq=%d, want 6, 1", cy.Distinct, cy.MaxFreq)
	}
	if rs.Col(2) != nil || rs.Col(-1) != nil || rs.ColByName("nope") != nil {
		t.Error("out-of-range column lookups must return nil")
	}
}

func TestStatsTopKCap(t *testing.T) {
	// 48 distinct values, value v appearing v times: the most frequent
	// one is the last of the histogram run.
	const k = 48
	r := New("R", "x")
	for v := 1; v <= k; v++ {
		for i := 0; i < v; i++ {
			r.MustAdd(Tuple{v})
		}
	}
	cs := CollectRelationStats(r).Col(0)
	if cs.MaxFreq != k || cs.Distinct != k {
		t.Errorf("maxfreq=%d distinct=%d", cs.MaxFreq, cs.Distinct)
	}
}

func TestCollectStatsOnMatchingDatabase(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	r := Matching(rng, "R", []string{"x", "y"}, 200)
	s := Matching(rng, "S", []string{"y", "z"}, 200)
	db := NewDatabase(200)
	db.AddRelation(r)
	db.AddRelation(s)
	st := CollectStats(db)
	if st.TotalTuples() != 400 || st.MaxCount() != 200 {
		t.Fatalf("total=%d max=%d", st.TotalTuples(), st.MaxCount())
	}
	for _, name := range []string{"R", "S"} {
		rs := st.Relation(name)
		if rs == nil {
			t.Fatalf("missing stats for %s", name)
		}
		if n, ok := st.Size(name); !ok || n != 200 {
			t.Errorf("Size(%s) = %d, %v", name, n, ok)
		}
		for i := range rs.Cols {
			if rs.Cols[i].MaxFreq != 1 || rs.Cols[i].Distinct != 200 {
				t.Errorf("%s col %d: matching columns are permutations, got %+v", name, i, rs.Cols[i])
			}
		}
	}
	if st.Relation("nope") != nil {
		t.Error("unknown relation must yield nil stats")
	}
	if _, ok := st.Size("nope"); ok {
		t.Error("unknown relation must report !ok")
	}
	sizes := st.Sizes()
	if sizes["R"] != 200 || sizes["S"] != 200 {
		t.Errorf("sizes = %v", sizes)
	}
}

// TestDatabaseStatsMemoized checks the serving-layer contract of
// Database.Stats: repeated calls return the same collected catalog,
// concurrent first calls are safe, and AddRelation invalidates the
// memo.
func TestDatabaseStatsMemoized(t *testing.T) {
	db := NewDatabase(10)
	r := New("R", "x", "y")
	r.MustAdd(Tuple{1, 2})
	r.MustAdd(Tuple{1, 3})
	db.AddRelation(r)

	first := db.Stats()
	if first == nil || first.Relation("R") == nil || first.Relation("R").Count != 2 {
		t.Fatalf("unexpected first stats: %+v", first)
	}
	if again := db.Stats(); again != first {
		t.Errorf("second Stats() recollected instead of memoizing")
	}

	// Concurrent readers all see one shared catalog.
	const readers = 8
	got := make([]*Stats, readers)
	done := make(chan int, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			got[i] = db.Stats()
			done <- i
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
	for i := 0; i < readers; i++ {
		if got[i] != first {
			t.Fatalf("reader %d saw a different catalog", i)
		}
	}

	// Mutation invalidates.
	s := New("S", "y", "z")
	s.MustAdd(Tuple{2, 4})
	db.AddRelation(s)
	second := db.Stats()
	if second == first {
		t.Fatalf("AddRelation did not invalidate the stats memo")
	}
	if second.Relation("S") == nil || second.Relation("S").Count != 1 {
		t.Fatalf("recollected stats missing S: %+v", second)
	}
}
