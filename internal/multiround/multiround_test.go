package multiround

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/theory"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func groundTruth(t *testing.T, q *query.Query, db *relation.Database) []relation.Tuple {
	t.Helper()
	b, err := localjoin.FromDatabase(q, db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := localjoin.Evaluate(q, b, localjoin.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBuildChainDepth: the greedy plan for L_k at ε uses exactly
// ⌈log_{kε} k⌉ rounds, matching Example 4.2 and Corollary 4.8.
func TestBuildChainDepth(t *testing.T) {
	cases := []struct {
		k    int
		eps  *big.Rat
		want int
	}{
		{2, rat(0, 1), 1},
		{4, rat(0, 1), 2},
		{5, rat(0, 1), 3},
		{8, rat(0, 1), 3},
		{16, rat(0, 1), 4},
		{16, rat(1, 2), 2}, // Example 4.2: two rounds of L4 operators
		{64, rat(1, 2), 3},
		{4, rat(1, 2), 1},
		{36, rat(2, 3), 2}, // kε = 6
	}
	for _, c := range cases {
		plan, err := Build(query.Chain(c.k), c.eps)
		if err != nil {
			t.Fatalf("Build(L%d, %s): %v", c.k, c.eps.RatString(), err)
		}
		if got := plan.Rounds(); got != c.want {
			t.Errorf("L%d at ε=%s: %d rounds, want %d\n%s",
				c.k, c.eps.RatString(), got, c.want, plan)
		}
	}
}

// TestBuildMatchesTheoryBounds: for tree-like queries the greedy plan
// must sit between the Corollary 4.8 lower bound and the Lemma 4.3
// upper bound.
func TestBuildMatchesTheoryBounds(t *testing.T) {
	eps := []*big.Rat{rat(0, 1), rat(1, 2)}
	queries := []*query.Query{
		query.Chain(3), query.Chain(7), query.Chain(12),
		query.Star(4), query.SpokedWheel(3), query.SpokedWheel(5),
	}
	for _, e := range eps {
		for _, q := range queries {
			plan, err := Build(q, e)
			if err != nil {
				t.Fatalf("Build(%s, %s): %v", q.Name, e.RatString(), err)
			}
			lo, err := theory.RoundsLowerBound(q, e)
			if err != nil {
				t.Fatal(err)
			}
			up, err := theory.RoundsUpperBound(q, e)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Rounds()
			if got < lo {
				t.Errorf("%s at ε=%s: plan uses %d rounds, below lower bound %d (plan bug)",
					q.Name, e.RatString(), got, lo)
			}
			if got > up {
				t.Errorf("%s at ε=%s: plan uses %d rounds, above upper bound %d",
					q.Name, e.RatString(), got, up)
			}
		}
	}
}

func TestBuildSPk(t *testing.T) {
	// SP_k has a 2-round plan at ε = 0 (Example 4.2).
	for _, k := range []int{2, 3, 5} {
		plan, err := Build(query.SpokedWheel(k), rat(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Rounds(); got != 2 {
			t.Errorf("SP%d: %d rounds, want 2\n%s", k, got, plan)
		}
	}
}

func TestBuildStarOneRound(t *testing.T) {
	plan, err := Build(query.Star(6), rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Rounds(); got != 1 {
		t.Errorf("T6: %d rounds, want 1", got)
	}
}

func TestBuildCycle(t *testing.T) {
	// C5 at ε = 0: upper bound 3 rounds; greedy must not exceed it.
	plan, err := Build(query.Cycle(5), rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	up, err := theory.RoundsUpperBound(query.Cycle(5), rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() > up {
		t.Errorf("C5: %d rounds > upper bound %d", plan.Rounds(), up)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(query.CartesianPair(), rat(0, 1)); err == nil {
		t.Error("want error for disconnected query")
	}
	if _, err := Build(query.Chain(2), rat(1, 1)); err == nil {
		t.Error("want error for ε = 1")
	}
	if _, err := Build(query.Chain(2), rat(-1, 2)); err == nil {
		t.Error("want error for ε < 0")
	}
}

func TestPlanString(t *testing.T) {
	plan, err := Build(query.Chain(4), rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if !strings.Contains(s, "round 1") || !strings.Contains(s, "join") {
		t.Errorf("String = %q", s)
	}
}

func TestExecuteChainCorrect(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	for _, k := range []int{2, 3, 5, 8} {
		q := query.Chain(k)
		n := 60
		db := relation.MatchingDatabase(rng, q, n)
		truth := groundTruth(t, q, db)
		plan, err := Build(q, rat(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(plan, db, 8, Options{Seed: 42})
		if err != nil {
			t.Fatalf("L%d: %v", k, err)
		}
		if res.Stats.NumRounds() != plan.Rounds() {
			t.Errorf("L%d: executed %d rounds, plan says %d", k, res.Stats.NumRounds(), plan.Rounds())
		}
		assertSameTuples(t, res.Run.Tuples(), truth)
	}
}

// TestExecuteExample42: L16 at ε = 1/2 computes in exactly 2 rounds on
// p = 16 servers with all answers found.
func TestExecuteExample42(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	q := query.Chain(16)
	n := 64
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	plan, err := Build(q, rat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, db, 16, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumRounds() != 2 {
		t.Errorf("rounds = %d, want 2", res.Stats.NumRounds())
	}
	assertSameTuples(t, res.Run.Tuples(), truth)
	if res.Run.Len() != n {
		t.Errorf("answers = %d, want %d (chains over matchings)", res.Run.Len(), n)
	}
}

func TestExecuteSPk(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	q := query.SpokedWheel(3)
	n := 40
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	plan, err := Build(q, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, db, 8, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, res.Run.Tuples(), truth)
}

func TestExecuteCycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	q := query.Cycle(5)
	n := 80
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	plan, err := Build(q, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, db, 8, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, res.Run.Tuples(), truth)
}

func TestExecuteSingleAtom(t *testing.T) {
	q := query.Chain(1)
	db := relation.NewDatabase(5)
	s1 := relation.New("S1", "x0", "x1")
	s1.MustAdd(relation.Tuple{1, 2})
	db.AddRelation(s1)
	plan, err := Build(q, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, db, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumRounds() != 0 || res.Run.Len() != 1 {
		t.Errorf("rounds=%d answers=%v", res.Stats.NumRounds(), res.Run.Tuples())
	}
}

func TestExecuteMissingRelation(t *testing.T) {
	q := query.Chain(2)
	db := relation.NewDatabase(5)
	plan, err := Build(q, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(plan, db, 4, Options{}); err == nil {
		t.Error("want error for missing base relation")
	}
}

func assertSameTuples(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestReorder: a final view already in the query's variable order is
// materialized as gathered; any other order is projected and re-sorted;
// a missing variable is an error — on both run layouts.
func TestReorder(t *testing.T) {
	for _, wide := range []int{0, 1 << 40} {
		rows := []relation.Tuple{{1, 9, 4 + wide}, {2, 3, 7}, {2, 8, 1}, {5, 1, 6}}
		final := source{attrs: []string{"y", "x", "z"}, run: relation.RunOf(3, rows)}

		same, err := reorder(final, []string{"y", "x", "z"})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, same.Tuples(), rows)

		got, err := reorder(final, []string{"x", "y", "z"})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, got.Tuples(), []relation.Tuple{{1, 5, 6}, {3, 2, 7}, {8, 2, 1}, {9, 1, 4 + wide}})

		if _, err := reorder(final, []string{"x", "y", "w"}); err == nil {
			t.Error("missing variable accepted")
		}
		if none, err := reorder(source{attrs: final.attrs}, []string{"x", "y", "z"}); err != nil || none.Len() != 0 {
			t.Errorf("empty view reordered to %v, %v", none, err)
		}
	}
}

// TestAnswerLimitOnlyInQueryOrder: the last round's view is gathered
// only as far as AnswerLimit when it is already in the query's variable
// order — L4, whose last view joins (x1,x2,x3) with (x3,x4,x5). The tree
// below has a last view over (a,b,d,c,e,f), which must be re-sorted into
// (a,b,c,d,e,f) before its first rows mean anything: it is gathered
// whole. Either way the count is the ground truth's, and the first rows
// of the answer are its first rows.
func TestAnswerLimitOnlyInQueryOrder(t *testing.T) {
	const p, limit = 8, 3
	tree, err := query.Parse("q(a,b,c,d,e,f) = A(a,b), B(c,d), C(b,d), D(e,c), E(c,f)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q       *query.Query
		limited bool
	}{{query.Chain(4), true}, {tree, false}} {
		db := relation.MatchingDatabase(rand.New(rand.NewPCG(3, 3)), c.q, 200)
		truth := groundTruth(t, c.q, db)
		plan, err := Build(c.q, rat(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(plan, db, p, Options{Seed: 42, AnswerLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Run.Tuples()
		if res.Count != len(truth) || len(got) < limit {
			t.Fatalf("%s: count %d, %d rows; want %d and at least %d", c.q.Name, res.Count, len(got), len(truth), limit)
		}
		assertSameTuples(t, got[:limit], truth[:limit])
		if c.limited && (len(got) != limit || res.Gathered > p*limit) {
			t.Fatalf("%s: %d rows, %d gathered; want %d of at most %d", c.q.Name, len(got), res.Gathered, limit, p*limit)
		}
		if !c.limited && (len(got) != len(truth) || res.Gathered < len(truth)) {
			t.Fatalf("%s: %d rows, %d gathered; want all %d", c.q.Name, len(got), res.Gathered, len(truth))
		}
	}
}
