package relation

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/query"
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
	cx := rs.Col(0)
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
	if rs.Col(2) != nil || rs.Col(-1) != nil {
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
	if total := st.Relation("R").Count + st.Relation("S").Count; total != 400 || len(st.Relations) != 2 {
		t.Fatalf("total=%d over %d relations", total, len(st.Relations))
	}
	for _, name := range []string{"R", "S"} {
		rs := st.Relation(name)
		if rs == nil {
			t.Fatalf("missing stats for %s", name)
		}
		if rs.Count != 200 {
			t.Errorf("%s: count %d, want 200", name, rs.Count)
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

// TestViewSharesOneSummary: a relation and its WithAttrs views — views
// of views included — collect one summary between them, once, whichever
// of them concurrent readers ask first, under the schema the views were
// taken of. Add gives the relation a fresh summary and leaves its views
// theirs.
func TestViewSharesOneSummary(t *testing.T) {
	r := Matching(rand.New(rand.NewPCG(3, 3)), "R", []string{"a", "b"}, 500)
	v := r.WithAttrs([]string{"x", "y"})
	rels := []*Relation{v, r, v.WithAttrs([]string{"y", "y"})}
	const readers = 12
	got := make([]*RelationStats, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rels[i%len(rels)].Stats()
		}()
	}
	wg.Wait()
	for i, rs := range got {
		if rs != got[0] {
			t.Fatalf("reader %d collected a summary of its own", i)
		}
	}
	if want := CollectRelationStats(r); !reflect.DeepEqual(got[0], want) {
		t.Fatalf("shared summary = %+v, want %+v", got[0], want)
	}
	r.MustAdd(Tuple{1, 1})
	if rs := r.Stats(); rs == got[0] || rs.Count != 501 {
		t.Errorf("after Add the relation's summary counts %d tuples, want a fresh one of 501", rs.Count)
	}
	if v.Stats() != got[0] {
		t.Error("Add on the relation changed its view's summary")
	}
}

// TestBindReadsQueryRelations: a bound view holds exactly the query's
// relations under the atoms' variables, sharing the database's runs and
// summaries, so its catalog and input size are the query's alone; a
// missing relation or a wrong arity is an error.
func TestBindReadsQueryRelations(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	db := NewDatabase(50)
	for _, name := range []string{"R", "S", "T"} {
		db.AddRelation(Matching(rng, name, []string{"c1", "c2"}, 50))
	}
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	view, err := db.Bind(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := view.Names(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Fatalf("view holds %v, want R and S", got)
	}
	for _, a := range q.Atoms {
		r, v := db.Relations[a.Name], view.Relations[a.Name]
		if !reflect.DeepEqual(v.Attrs, a.Vars) || v.Run() != r.Run() || v.Stats() != r.Stats() {
			t.Errorf("%s: view %v does not share %v's run and summary under the atom's variables", a.Name, v, r)
		}
	}
	if view.InputBits()*3 != db.InputBits()*2 || len(view.Stats().Relations) != 2 {
		t.Errorf("view counts %d bits and %d summaries, want two of three relations", view.InputBits(), len(view.Stats().Relations))
	}
	for _, bad := range []string{"q(x,y) = U(x,y)", "q(x,y,z) = R(x,y,z)"} {
		if _, err := db.Bind(query.MustParse(bad)); err == nil {
			t.Errorf("Bind(%s) succeeded", bad)
		}
	}
}
