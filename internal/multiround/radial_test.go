package multiround

import (
	"math/rand/v2"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/theory"
)

func TestBuildRadialRejectsNonTreeLike(t *testing.T) {
	if _, err := BuildRadial(query.Cycle(4), rat(0, 1)); err == nil {
		t.Error("want error for cycles")
	}
	tern := query.MustNew("t", query.Atom{Name: "R", Vars: []string{"x", "y", "z"}})
	if _, err := BuildRadial(tern, rat(0, 1)); err == nil {
		t.Error("want error for non-binary atoms")
	}
	rep := query.MustNew("r", query.Atom{Name: "R", Vars: []string{"x", "x"}})
	if _, err := BuildRadial(rep, rat(0, 1)); err == nil {
		t.Error("want error for repeated-variable atoms")
	}
}

// TestBuildRadialMatchesLemma43: the radial plan's round count equals
// the Lemma 4.3 bound ⌈log_{kε}(rad)⌉ + 1 for multi-path tree-like
// queries (and never exceeds it).
func TestBuildRadialMatchesLemma43(t *testing.T) {
	for _, eps := range []int64{0, 1} { // ε = 0 and ε = 1/2
		e := rat(eps, 2)
		for _, q := range []*query.Query{
			query.Chain(2), query.Chain(4), query.Chain(5), query.Chain(9),
			query.Star(4), query.SpokedWheel(3), query.SpokedWheel(5),
		} {
			plan, err := BuildRadial(q, e)
			if err != nil {
				t.Fatalf("%s at ε=%s: %v", q.Name, e.RatString(), err)
			}
			upper, err := theory.RoundsUpperBound(q, e)
			if err != nil {
				t.Fatal(err)
			}
			lower, err := theory.RoundsLowerBound(q, e)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Rounds()
			if got > upper {
				t.Errorf("%s at ε=%s: radial plan %d rounds exceeds Lemma 4.3 bound %d\n%s",
					q.Name, e.RatString(), got, upper, plan)
			}
			if got < lower {
				t.Errorf("%s at ε=%s: radial plan %d rounds below lower bound %d — impossible",
					q.Name, e.RatString(), got, lower)
			}
		}
	}
}

func TestBuildRadialSingleAtom(t *testing.T) {
	plan, err := BuildRadial(query.Chain(1), rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() != 0 || len(plan.Steps) != 0 {
		t.Errorf("single atom should need no rounds, got %d", plan.Rounds())
	}
}

// TestExecuteRadialCorrect: radial plans compute exactly the ground
// truth on matching databases for chains, stars and spoked wheels.
func TestExecuteRadialCorrect(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 55))
	n := 60
	for _, q := range []*query.Query{
		query.Chain(4), query.Chain(7), query.Star(3), query.SpokedWheel(3),
	} {
		db := relation.MatchingDatabase(rng, q, n)
		truth := groundTruth(t, q, db)
		plan, err := BuildRadial(q, rat(0, 1))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		res, err := Execute(plan, db, 8, Options{Seed: 21})
		if err != nil {
			t.Fatalf("%s: %v\n%s", q.Name, err, plan)
		}
		assertSameTuples(t, res.Run.Tuples(), truth)
		if res.Stats.NumRounds() != plan.Rounds() {
			t.Errorf("%s: executed %d rounds, plan says %d", q.Name, res.Stats.NumRounds(), plan.Rounds())
		}
	}
}

// TestRadialVsGreedy: on chains both builders achieve the optimal
// round count; on stars the greedy builder's single-round join also
// appears in the radial plan (hub join).
func TestRadialVsGreedy(t *testing.T) {
	e := rat(1, 2)
	for _, k := range []int{8, 16, 32} {
		q := query.Chain(k)
		radial, err := BuildRadial(q, e)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Build(q, e)
		if err != nil {
			t.Fatal(err)
		}
		// Radial pays at most one extra round (the hub join) over the
		// greedy chain plan.
		if radial.Rounds() > greedy.Rounds()+1 {
			t.Errorf("L%d: radial %d rounds vs greedy %d", k, radial.Rounds(), greedy.Rounds())
		}
	}
}
