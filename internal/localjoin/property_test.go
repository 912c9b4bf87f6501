package localjoin

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// randomQuery builds a random conjunctive query: 1–4 atoms of arity
// 1–3 over a pool of 5 variables, repeats within an atom allowed.
// Queries may be disconnected or have variables shared by every atom.
func randomQuery(rng *rand.Rand) *query.Query {
	pool := []string{"v", "w", "x", "y", "z"}
	numAtoms := 1 + rng.IntN(4)
	atoms := make([]query.Atom, numAtoms)
	for i := range atoms {
		arity := 1 + rng.IntN(3)
		vars := make([]string, arity)
		for j := range vars {
			vars[j] = pool[rng.IntN(len(pool))]
		}
		atoms[i] = query.Atom{Name: fmt.Sprintf("S%d", i+1), Vars: vars}
	}
	return query.MustNew("rand", atoms...)
}

// randomBindings draws 0–20 uniform tuples over [1, domain] per atom.
func randomBindings(rng *rand.Rand, q *query.Query, domain int) Bindings {
	b := make(Bindings, q.NumAtoms())
	for _, a := range q.Atoms {
		count := rng.IntN(21)
		tuples := make([]relation.Tuple, count)
		for i := range tuples {
			t := make(relation.Tuple, a.Arity())
			for j := range t {
				t[j] = 1 + rng.IntN(domain)
			}
			tuples[i] = t
		}
		b[a.Name] = tuples
	}
	return b
}

// TestAllStrategiesAgreeOnRandomInstances is the cross-strategy
// equivalence property: on randomized queries and databases every
// strategy must return the identical sorted, deduplicated answer list.
func TestAllStrategiesAgreeOnRandomInstances(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xC0))
		q := randomQuery(rng)
		b := randomBindings(rng, q, 2+rng.IntN(8))
		want, err := Evaluate(q, b, HashJoin)
		if err != nil {
			t.Fatalf("trial %d: %s: hashjoin: %v", trial, q, err)
		}
		for _, ev := range evaluators[1:] {
			strat := ev.name
			got, err := ev.eval(q, b)
			if err != nil {
				t.Fatalf("trial %d: %s: %v: %v", trial, q, strat, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s: %v returned %d answers, hashjoin %d\n%v\nvs\n%v",
					trial, q, strat, len(got), len(want), got, want)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d: %s: %v answer[%d] = %v, hashjoin %v",
						trial, q, strat, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAllStrategiesAgreeOnMatchings repeats the property on the
// paper's matching databases for the named query families.
func TestAllStrategiesAgreeOnMatchings(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	queries := []*query.Query{
		query.Chain(3), query.Cycle(3), query.Cycle(5),
		query.Star(3), query.SpokedWheel(3), query.Binom(4, 2),
	}
	for _, q := range queries {
		db := relation.MatchingDatabase(rng, q, 20)
		b, err := FromDatabase(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(q, b, HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evaluators[1:] {
			strat := ev.name
			got, err := ev.eval(q, b)
			if err != nil {
				t.Fatalf("%s: %v: %v", q.Name, strat, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %v returned %d answers, hashjoin %d", q.Name, strat, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s: %v answer[%d] = %v, want %v", q.Name, strat, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDefaultStrategyIsWCOJ pins the zero value to the worker's
// evaluator: Evaluate under Default returns exactly what EvaluateRuns
// computes from the same tuples sealed into runs.
func TestDefaultStrategyIsWCOJ(t *testing.T) {
	if Default != 0 {
		t.Fatalf("Default = %d, want the zero value", int(Default))
	}
	rng := rand.New(rand.NewPCG(3, 7))
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rng, q, 15)
	b, err := FromDatabase(q, db)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Evaluate(q, b, Default)
	if err != nil {
		t.Fatal(err)
	}
	runs := make(Runs, len(b))
	for _, a := range q.Atoms {
		runs[a.Name] = []*relation.Run{relation.RunOf(a.Arity(), b[a.Name])}
	}
	run, err := EvaluateRuns(q, runs)
	if err != nil {
		t.Fatal(err)
	}
	wcoj := run.Tuples()
	if len(def) == 0 || len(def) != len(wcoj) {
		t.Fatalf("Default answers %d != WCOJ answers %d", len(def), len(wcoj))
	}
	for i := range def {
		if !def[i].Equal(wcoj[i]) {
			t.Fatalf("answer[%d]: Default %v != WCOJ %v", i, def[i], wcoj[i])
		}
	}
	if Default.String() != "default" {
		t.Errorf("Strategy name: %q", Default.String())
	}
}

// TestWCOJTriangleCounts checks the WCOJ answer count against the
// closed form on an identity database, where every (i,i,i) is a
// triangle.
func TestWCOJTriangleCounts(t *testing.T) {
	q := query.Triangle()
	n := 25
	db := relation.IdentityDatabase(q, n)
	b, err := FromDatabase(q, db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Evaluate(q, b, Default)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("identity triangle answers = %d, want %d", len(out), n)
	}
	for i, row := range out {
		want := relation.Tuple{i + 1, i + 1, i + 1}
		if !row.Equal(want) {
			t.Fatalf("answer[%d] = %v, want %v", i, row, want)
		}
	}
}
