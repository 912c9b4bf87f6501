package datalog

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestOneAtomRuleRunsNoRound: a rule whose body is one atom is answered
// where its relation is — no plan, no dial, no round — whether it copies,
// permutes, projects, selects on a repeated variable or folds an aggregate
// head, over an EDB relation or a completed IDB predicate. Its facts equal
// core.GroundTruth's on loopback and over TCP alike. A program of such
// rules alone dials nothing and runs no round; every execution a program
// does dial runs its cold round and one round per delta iteration, so the
// closure's record is Iterations + 1 rounds.
func TestOneAtomRuleRunsNoRound(t *testing.T) {
	const p, n = 4, 10
	rng := rand.New(rand.NewPCG(13, 0))
	edges := append(randomEdges(rng, n, 30), [2]int{3, 3}, [2]int{7, 7})
	db := edgeDB(n, edges)

	// The single-node reference reads e, its alias e2 and the closure tc.
	ref := edgeDB(n, edges)
	e, _ := ref.Relation("e")
	ref.AddRelation(relation.FromRun("e2", e.Attrs, e.Run()))
	closure := relation.New("tc", "a", "b")
	for xy := range naiveTC(edges) {
		closure.Tuples = append(closure.Tuples, relation.Tuple{xy[0], xy[1]})
	}
	ref.AddRelation(closure)
	atom := func(name string, vars ...string) query.Atom { return query.Atom{Name: name, Vars: vars} }
	truth := func(head []string, atoms ...query.Atom) []relation.Tuple {
		t.Helper()
		q, err := query.New("ref", atoms...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := core.GroundTruth(q, ref)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]relation.Tuple, len(answers))
		for i, a := range answers {
			out[i] = make(relation.Tuple, len(head))
			for j, v := range head {
				out[i][j] = a[q.VarIndex(v)]
			}
		}
		return relation.DedupSort(out)
	}
	degrees := relation.GroupAggregate(truth([]string{"x", "y"}, atom("e", "x", "y")), relation.GroupSpec{
		GroupBy: []int{0},
		Aggs:    []relation.Aggregate{{Func: relation.AggCount, Col: 1}, {Func: relation.AggMax, Col: 1}},
	})

	addrs := startPool(t, p)
	for _, tc := range []struct {
		name, src string
		want      []relation.Tuple
		// dials counts the executions the program opens, plans the ones
		// of them that a plan runs (a recursive rule's does not).
		dials, plans int
	}{
		{"copy", "out(x, y) :- e(x, y).", truth([]string{"x", "y"}, atom("e", "x", "y")), 0, 0},
		{"permutation", "out(y, x) :- e(x, y).", truth([]string{"y", "x"}, atom("e", "x", "y")), 0, 0},
		{"projection", "out(x) :- e(x, y).", truth([]string{"x"}, atom("e", "x", "y")), 0, 0},
		{"repeated variable", "out(x) :- e(x, x).", truth([]string{"x"}, atom("e", "x", "x")), 0, 0},
		{"aggregate head", "out(x, count(y), max(y)) :- e(x, y).", degrees, 0, 0},
		{"IDB body", `
			a(x, y) :- e(x, y).
			out(y, x) :- a(x, y).`, truth([]string{"y", "x"}, atom("e", "x", "y")), 0, 0},
		{"alias feeding a join", `
			e2(x, y) :- e(x, y).
			out(x, z) :- e(x, y), e2(y, z).`, truth([]string{"x", "z"}, atom("e", "x", "y"), atom("e2", "y", "z")), 1, 1},
		{"closure read back", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			out(y, x) :- tc(x, y).`, truth([]string{"y", "x"}, atom("tc", "x", "y")), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.want) == 0 {
				t.Fatal("the reference is empty")
			}
			prog := MustParse(tc.src)
			var loop *Result
			for _, transport := range []string{"loopback", "tcp"} {
				dials, plans := 0, 0
				res, err := Eval(prog, db, Options{
					P: p, Seed: 5,
					Dial: func(p int) (dist.Transport, error) {
						dials++
						if transport == "loopback" {
							return dist.NewLoopback(p), nil
						}
						return dist.DialTCP(context.Background(), addrs)
					},
					Plan: func(_ int, build func() (*plan.Plan, error)) (*plan.Plan, error) {
						plans++
						return build()
					},
				})
				if err != nil {
					t.Fatalf("%s: %v", transport, err)
				}
				if got := res.Run.Tuples(); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s: %d facts %v, reference %d %v", transport, len(got), got, len(tc.want), tc.want)
				}
				if dials != tc.dials || plans != tc.plans {
					t.Errorf("%s: %d dials and %d plans, want %d and %d", transport, dials, plans, tc.dials, tc.plans)
				}
				if rounds := res.Stats.NumRounds(); rounds != res.Iterations+tc.dials {
					t.Errorf("%s: %d rounds over %d delta iterations, want one cold round per execution (%d) and one per iteration",
						transport, rounds, res.Iterations, tc.dials)
				}
				if loop == nil {
					loop = res
				} else if !reflect.DeepEqual(res.Stats.Rounds, loop.Stats.Rounds) {
					t.Errorf("tcp record diverges from loopback:\n tcp %+v\nloop %+v", res.Stats.Rounds, loop.Stats.Rounds)
				}
			}
		})
	}
}
