package core

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestAnalyzeTriangle(t *testing.T) {
	a, err := Analyze(query.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if a.Tau.Cmp(rat(3, 2)) != 0 {
		t.Errorf("τ* = %s, want 3/2", a.Tau.RatString())
	}
	if a.SpaceExponent.Cmp(rat(1, 3)) != 0 {
		t.Errorf("ε = %s, want 1/3", a.SpaceExponent.RatString())
	}
	if a.Characteristic != -1 || a.TreeLike || !a.Connected {
		t.Errorf("χ=%d treeLike=%v connected=%v", a.Characteristic, a.TreeLike, a.Connected)
	}
	if a.Radius != 1 || a.Diameter != 1 {
		t.Errorf("rad=%d diam=%d, want 1,1", a.Radius, a.Diameter)
	}
	exp, err := a.ExpectedAnswers(100)
	if err != nil {
		t.Fatal(err)
	}
	if exp != 1 {
		t.Errorf("E[|C3|] = %v, want 1", exp)
	}
	report := a.String()
	for _, want := range []string{"τ* = 3/2", "ε = 1/3", "share exponents", "vertex cover"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestAnalyzeDisconnected(t *testing.T) {
	a, err := Analyze(query.CartesianPair())
	if err != nil {
		t.Fatal(err)
	}
	if a.Connected {
		t.Error("cartesian pair is disconnected")
	}
	if _, _, err := a.RoundBounds(rat(0, 1)); err == nil {
		t.Error("want error: round bounds on disconnected query")
	}
	if _, err := a.ExpectedAnswers(10); err == nil {
		t.Error("want error: expected answers on disconnected query")
	}
}

func TestRoundBounds(t *testing.T) {
	a, err := Analyze(query.Chain(8))
	if err != nil {
		t.Fatal(err)
	}
	lo, up, err := a.RoundBounds(rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || up < 3 || up > 4 {
		t.Errorf("L8 bounds = (%d, %d), want (3, 3..4)", lo, up)
	}
	// Non-tree-like: C5 at ε=0 gets the generic lower bound 2.
	ac, err := Analyze(query.Cycle(5))
	if err != nil {
		t.Fatal(err)
	}
	lo, up, err = ac.RoundBounds(rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 2 || up != 3 {
		t.Errorf("C5 bounds = (%d, %d), want (2, 3)", lo, up)
	}
	// C3 at ε=1/3 is one-round computable.
	a3, err := Analyze(query.Cycle(3))
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err = a3.RoundBounds(rat(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1 {
		t.Errorf("C3 at ε=1/3: lower = %d, want 1", lo)
	}
}

func TestEvaluateOneRoundDefaults(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	q := query.Triangle()
	db := relation.MatchingDatabase(rng, q, 120)
	truth, err := GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// At the analysis' space exponent one HyperCube round finds every
	// answer of a matching database (Proposition 3.2).
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	eps, _ := a.SpaceExponent.Float64()
	res, err := hypercube.Run(q, db, 27, hypercube.Options{Epsilon: eps, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Len() != len(truth) {
		t.Errorf("answers = %d, want %d", res.Run.Len(), len(truth))
	}
}

func TestEvaluateMultiRound(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 22))
	q := query.Chain(6)
	db := relation.MatchingDatabase(rng, q, 50)
	truth, err := GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := multiround.Build(q, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := multiround.Execute(pl, db, 8, multiround.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Len() != len(truth) {
		t.Fatalf("answers = %d, want %d", res.Run.Len(), len(truth))
	}
	for i, got := range res.Run.Tuples() {
		if !got.Equal(truth[i]) {
			t.Fatalf("answer %d mismatch", i)
		}
	}
	if res.Stats.NumRounds() != 3 {
		t.Errorf("rounds = %d, want ⌈log2 6⌉ = 3", res.Stats.NumRounds())
	}
}
