package localjoin

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

func bindingsOf(t *testing.T, q *query.Query, db *relation.Database) Bindings {
	t.Helper()
	b, err := FromDatabase(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvaluateChainSmall(t *testing.T) {
	q := query.Chain(2) // S1(x0,x1), S2(x1,x2)
	db := relation.NewDatabase(3)
	s1 := relation.New("S1", "x0", "x1")
	s1.MustAdd(relation.Tuple{1, 2})
	s1.MustAdd(relation.Tuple{2, 3})
	s2 := relation.New("S2", "x1", "x2")
	s2.MustAdd(relation.Tuple{2, 5})
	s2.MustAdd(relation.Tuple{2, 6})
	db.AddRelation(s1)
	db.AddRelation(s2)
	b := bindingsOf(t, q, db)
	for _, ev := range evaluators {
		strat := ev.name
		out, err := ev.eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		want := []relation.Tuple{{1, 2, 5}, {1, 2, 6}}
		if len(out) != len(want) {
			t.Fatalf("%v: out = %v", strat, out)
		}
		for i := range want {
			if !out[i].Equal(want[i]) {
				t.Errorf("%v: out[%d] = %v, want %v", strat, i, out[i], want[i])
			}
		}
	}
}

func TestEvaluateTriangle(t *testing.T) {
	q := query.Triangle() // S1(x1,x2), S2(x2,x3), S3(x3,x1)
	db := relation.NewDatabase(4)
	s1 := relation.New("S1", "x1", "x2")
	s2 := relation.New("S2", "x2", "x3")
	s3 := relation.New("S3", "x3", "x1")
	s1.MustAdd(relation.Tuple{1, 2})
	s2.MustAdd(relation.Tuple{2, 3})
	s3.MustAdd(relation.Tuple{3, 1})
	s3.MustAdd(relation.Tuple{3, 2}) // does not close a triangle
	db.AddRelation(s1)
	db.AddRelation(s2)
	db.AddRelation(s3)
	b := bindingsOf(t, q, db)
	for _, ev := range evaluators {
		strat := ev.name
		out, err := ev.eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || !out[0].Equal(relation.Tuple{1, 2, 3}) {
			t.Errorf("%v: out = %v, want [[1 2 3]]", strat, out)
		}
	}
}

func TestEvaluateDisconnected(t *testing.T) {
	q := query.CartesianPair() // R(x), S(y)
	db := relation.NewDatabase(3)
	r := relation.New("R", "x")
	s := relation.New("S", "y")
	r.MustAdd(relation.Tuple{1})
	r.MustAdd(relation.Tuple{2})
	s.MustAdd(relation.Tuple{7})
	db.AddRelation(r)
	db.AddRelation(s)
	b := bindingsOf(t, q, db)
	for _, ev := range evaluators {
		strat := ev.name
		out, err := ev.eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Errorf("%v: |out| = %d, want 2", strat, len(out))
		}
	}
}

func TestEvaluateEmptyRelation(t *testing.T) {
	q := query.Chain(2)
	b := Bindings{"S1": nil, "S2": {relation.Tuple{1, 2}}}
	for _, ev := range evaluators {
		strat := ev.name
		out, err := ev.eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Errorf("%v: out = %v, want empty", strat, out)
		}
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	q := query.Chain(2)
	b := Bindings{"S1": {relation.Tuple{1, 2}}}
	out, err := Evaluate(q, b, HashJoin)
	if err != nil || out != nil {
		t.Errorf("missing relation should yield no answers, got %v, %v", out, err)
	}
}

func TestEvaluateRepeatedVariable(t *testing.T) {
	// q(x,y) = R(x,x,y): only tuples with t[0]==t[1] survive.
	q := query.MustNew("rep", query.Atom{Name: "R", Vars: []string{"x", "x", "y"}})
	b := Bindings{"R": {
		relation.Tuple{1, 1, 5},
		relation.Tuple{1, 2, 6},
		relation.Tuple{3, 3, 7},
	}}
	for _, ev := range evaluators {
		strat := ev.name
		out, err := ev.eval(q, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Errorf("%v: out = %v, want 2 rows", strat, out)
		}
	}
}

func TestEvaluateArityMismatch(t *testing.T) {
	q := query.Chain(2)
	b := Bindings{"S1": {relation.Tuple{1}}, "S2": {relation.Tuple{1, 2}}}
	for _, ev := range evaluators {
		strat := ev.name
		if _, err := ev.eval(q, b); err == nil {
			t.Errorf("%v: want arity error", strat)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	q := query.Chain(1)
	b := Bindings{"S1": {relation.Tuple{1, 2}}}
	if _, err := Evaluate(q, b, Strategy(99)); err == nil {
		t.Error("want error for unknown strategy")
	}
	if Strategy(99).String() == "" || HashJoin.String() != "hashjoin" || Strategy(2).String() != "Strategy(2)" {
		t.Error("Strategy.String")
	}
}

func TestFromDatabaseErrors(t *testing.T) {
	q := query.Chain(2)
	db := relation.NewDatabase(3)
	db.AddRelation(relation.New("S1", "x0", "x1"))
	if _, err := FromDatabase(q, db); err == nil {
		t.Error("want error for missing relation")
	}
	db.AddRelation(relation.New("S2", "x1")) // wrong arity
	if _, err := FromDatabase(q, db); err == nil {
		t.Error("want error for arity mismatch")
	}
}

// TestChainOnMatchingHasNAnswers: on a matching database the chain
// query L_k composes permutations, so it has exactly n answers
// (Table 1's "expected answer size" column, which is exact for L_k).
func TestChainOnMatchingHasNAnswers(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, k := range []int{1, 2, 3, 5} {
		q := query.Chain(k)
		n := 40
		db := relation.MatchingDatabase(rng, q, n)
		b := bindingsOf(t, q, db)
		out, err := Evaluate(q, b, HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Errorf("L%d on matching db: %d answers, want %d", k, len(out), n)
		}
	}
}

// TestStarOnMatchingHasNAnswers: T_k likewise has exactly n answers.
func TestStarOnMatchingHasNAnswers(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	q := query.Star(3)
	n := 30
	db := relation.MatchingDatabase(rng, q, n)
	b := bindingsOf(t, q, db)
	out, err := backtrack(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Errorf("T3 on matching db: %d answers, want %d", len(out), n)
	}
}

// TestStrategiesAgreeProperty: both strategies return identical answer
// sets on random matching databases for random small queries.
func TestStrategiesAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 37))
		var q *query.Query
		switch rng.IntN(4) {
		case 0:
			q = query.Chain(1 + rng.IntN(4))
		case 1:
			q = query.Cycle(3 + rng.IntN(3))
		case 2:
			q = query.Star(1 + rng.IntN(4))
		default:
			q = query.SpokedWheel(1 + rng.IntN(3))
		}
		n := 4 + rng.IntN(12)
		db := relation.MatchingDatabase(rng, q, n)
		b, err := FromDatabase(q, db)
		if err != nil {
			return false
		}
		h, err1 := Evaluate(q, b, HashJoin)
		bt, err2 := backtrack(q, b)
		if err1 != nil || err2 != nil || len(h) != len(bt) {
			return false
		}
		for i := range h {
			if !h[i].Equal(bt[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
