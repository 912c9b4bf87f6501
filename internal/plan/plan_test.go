package plan_test

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

func sameAnswers(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestTriangleExplain is the acceptance check of the PR: the triangle
// query plans onto the LP-derived p^{1/3} grid and the predicted load
// stays within the paper's O(n/p^{2/3}) bound (here with its exact
// constant 3).
func TestTriangleExplain(t *testing.T) {
	q := query.Triangle()
	const n, p = 20000, 64
	pl, err := plan.Build(q, plan.MatchingStats(q, n), plan.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != plan.OneRound {
		t.Fatalf("engine = %v, want one-round", pl.Engine)
	}
	third := big.NewRat(1, 3)
	for i, v := range q.Vars() {
		if pl.ShareExponents[i].Cmp(third) != 0 {
			t.Errorf("share exponent of %s = %s, want 1/3", v, pl.ShareExponents[i].RatString())
		}
		if d := pl.Shares.DimOf(v); pl.Shares.Dims[d] != 4 {
			t.Errorf("share of %s = %d, want p^{1/3} = 4", v, pl.Shares.Dims[d])
		}
	}
	// Paper bound 3·n/p^{2/3} = 3·20000/16 = 3750; the integer grid
	// 4×4×4 hits it exactly.
	bound := 3 * float64(n) / 16
	if pl.BoundLoad != bound {
		t.Errorf("BoundLoad = %v, want %v", pl.BoundLoad, bound)
	}
	if pl.OneRoundCost.LoadTuples > bound*1.001 {
		t.Errorf("predicted load %v exceeds the paper bound %v", pl.OneRoundCost.LoadTuples, bound)
	}
	ex := pl.Explain()
	for _, want := range []string{
		"τ* = 3/2",
		"x1=1/3",
		"x1:4",
		"grid 64",
		"p^{1/3} per hashed dimension",
		"engine: one-round hypercube",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

// TestChainAtEpsilonZeroPicksMultiround: at ε = 0 the one-round load
// of L4 (n/√p per relation) blows the c·N/p budget, and the planner
// must fall back to the Γ^r_0 decomposition.
func TestChainAtEpsilonZeroPicksMultiround(t *testing.T) {
	q := query.Chain(4)
	pl, err := plan.Build(q, plan.MatchingStats(q, 10000), plan.Options{
		P:       16,
		Epsilon: big.NewRat(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != plan.MultiRound {
		t.Fatalf("engine = %v, want multiround\n%s", pl.Engine, pl.Explain())
	}
	if pl.Multi == nil || pl.MultiCost == nil {
		t.Fatal("multiround plan/cost not populated")
	}
	if pl.MultiCost.LoadTuples >= pl.OneRoundCost.LoadTuples {
		t.Errorf("multiround load %v not below one-round %v",
			pl.MultiCost.LoadTuples, pl.OneRoundCost.LoadTuples)
	}
	if !strings.Contains(pl.Explain(), "engine: multiround") {
		t.Errorf("Explain disagrees with engine:\n%s", pl.Explain())
	}
}

// TestZipfJoinPicksSkewEngine: heavy hitters in the statistics must
// flip the equi-join onto the resilient routing discipline, and the
// executed answers must match ground truth exactly.
func TestZipfJoinPicksSkewEngine(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	r, s := skew.ZipfJoinInput(rng, 2000, 1.3)
	q := skew.JoinQuery()
	db := relation.NewDatabase(2000)
	db.AddRelation(r)
	db.AddRelation(s)
	stats := relation.CollectStats(db)
	pl, err := plan.Build(q, stats, plan.Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != plan.SkewJoin {
		t.Fatalf("engine = %v, want skew-aware\n%s", pl.Engine, pl.Explain())
	}
	if len(pl.Heavy) == 0 || pl.Heavy[0].Count <= pl.HeavyThreshold {
		t.Fatalf("heavy hitters not detected: %v (threshold %d)", pl.Heavy, pl.HeavyThreshold)
	}
	res, err := pl.Execute(db, plan.ExecOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(res.Answers, truth) {
		t.Fatalf("skew-engine answers (%d) disagree with ground truth (%d)",
			len(res.Answers), len(truth))
	}
}

// TestMatchingJoinStaysOneRound: the same join without skew must keep
// the plain one-round engine (no false skew positives on matchings).
func TestMatchingJoinStaysOneRound(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	r, s := skew.MatchingJoinInput(rng, 1000)
	q := skew.JoinQuery()
	db := relation.NewDatabase(1000)
	db.AddRelation(r)
	db.AddRelation(s)
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != plan.OneRound {
		t.Fatalf("engine = %v, want one-round\n%s", pl.Engine, pl.Explain())
	}
	if len(pl.Heavy) != 0 {
		t.Errorf("spurious heavy hitters on a matching: %v", pl.Heavy)
	}
}

// TestTinyUniformJoinNotSkew is the degenerate-input regression: on an
// input smaller than p, every join value trivially exceeds a naive
// (Σ|S_j|)/p threshold, but a matching carries no skew — the planner
// must keep the one-round engine (threshold clamps to ≥ 1 and the
// skew fallback additionally requires the skew load to break the
// budget).
func TestTinyUniformJoinNotSkew(t *testing.T) {
	q := skew.JoinQuery()
	rng := rand.New(rand.NewPCG(2, 2))
	r, s := skew.MatchingJoinInput(rng, 7)
	db := relation.NewDatabase(7)
	db.AddRelation(r)
	db.AddRelation(s)
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pl.HeavyThreshold < 1 {
		t.Errorf("threshold = %d, must clamp to >= 1", pl.HeavyThreshold)
	}
	if pl.Engine == plan.SkewJoin {
		t.Fatalf("tiny matching misclassified as skewed:\n%s", pl.Explain())
	}
}

// TestManualSharesDropExponentLabel: a -plan share override no longer
// matches the LP exponents, so Explain must not annotate the grid with
// a p^{e} label.
func TestManualSharesDropExponentLabel(t *testing.T) {
	q := query.Triangle()
	pl, err := plan.Build(q, plan.MatchingStats(q, 1000), plan.Options{P: 64})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := pl.WithShares(&hypercube.Shares{
		Vars: []string{"x1", "x2", "x3"}, Dims: []int{64, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex := forced.Explain(); strings.Contains(ex, "per hashed dimension") {
		t.Errorf("manual shares must not carry the LP exponent label:\n%s", ex)
	}
}

// TestPlannerMatchesGroundTruthOnFamilies is the planner's end-to-end
// property test over the paper's query families on matching databases:
// whatever engine the planner picks, the answers must be
// GroundTruth-identical.
func TestPlannerMatchesGroundTruthOnFamilies(t *testing.T) {
	cases := []struct {
		q   *query.Query
		eps *big.Rat // nil = query's own exponent
	}{
		{query.Chain(3), nil},
		{query.Chain(4), big.NewRat(0, 1)}, // forces multiround
		{query.Cycle(3), nil},
		{query.Cycle(4), nil},
		{query.Star(3), nil},
		{query.SpokedWheel(2), big.NewRat(1, 2)},
		{query.CartesianPair(), nil}, // disconnected: one-round only
	}
	for _, c := range cases {
		name := c.q.Name
		if c.eps != nil {
			name += "@eps=" + c.eps.RatString()
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(42, uint64(len(name))))
			db := relation.MatchingDatabase(rng, c.q, 300)
			stats := relation.CollectStats(db)
			pl, err := plan.Build(c.q, stats, plan.Options{P: 16, Epsilon: c.eps})
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Execute(db, plan.ExecOptions{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			truth, err := core.GroundTruth(c.q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(res.Answers, truth) {
				t.Fatalf("%s via %v: %d answers, ground truth %d",
					c.q.Name, pl.Engine, len(res.Answers), len(truth))
			}
		})
	}
}

// TestPlannerMatchesGroundTruthOnZipf runs the planner over skewed
// inputs for the join family and checks GroundTruth equivalence across
// several skew strengths (crossing the heavy-hitter threshold).
func TestPlannerMatchesGroundTruthOnZipf(t *testing.T) {
	q := skew.JoinQuery()
	for _, s := range []float64{0, 0.8, 1.4} {
		rng := rand.New(rand.NewPCG(17, uint64(s*10)))
		r, sr := skew.ZipfJoinInput(rng, 1500, s)
		db := relation.NewDatabase(1500)
		db.AddRelation(r)
		db.AddRelation(sr)
		pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Execute(db, plan.ExecOptions{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(res.Answers, truth) {
			t.Fatalf("zipf s=%v via %v: %d answers, ground truth %d",
				s, pl.Engine, len(res.Answers), len(truth))
		}
	}
}

// TestPlannerEquivalenceVsHandPickedShares compares the planner's
// one-round execution against hypercube.Run with the historic
// hand-picked vertex-cover shares on the paper's families: identical
// grids, identical answers.
func TestPlannerEquivalenceVsHandPickedShares(t *testing.T) {
	for _, q := range []*query.Query{
		query.Triangle(), query.Chain(3), query.Star(3),
	} {
		t.Run(q.Name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			db := relation.MatchingDatabase(rng, q, 400)
			const p = 27
			pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
			if err != nil {
				t.Fatal(err)
			}
			hand, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range q.Vars() {
				if pl.Shares.Dims[pl.Shares.DimOf(v)] != hand.Dims[hand.DimOf(v)] {
					t.Errorf("share %d of %s: planner %v vs hand %v", i, v, pl.Shares, hand)
				}
			}
			res, err := pl.Execute(db, plan.ExecOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := hypercube.RunWithShares(q, db, p, hand, hypercube.Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(res.Answers, ref.Run.Tuples()) {
				t.Fatalf("planner answers %d != hand-share answers %d", len(res.Answers), ref.Run.Len())
			}
		})
	}
}

// TestSizeAwareShares: when cardinalities differ the planner switches
// to size-aware enumeration. On a skewed-size equi-join the optimum
// puts the whole budget on the shared variable (no replication at
// all); on a cartesian product, where replication is unavoidable, the
// smaller relation absorbs it (Afrati–Ullman).
func TestSizeAwareShares(t *testing.T) {
	join := skew.JoinQuery()
	stats := &relation.Stats{Relations: map[string]*relation.RelationStats{
		"R": statsFor("R", []string{"x", "y"}, 10000),
		"S": statsFor("S", []string{"y", "z"}, 100),
	}}
	pl, err := plan.Build(join, stats, plan.Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.SizeAware {
		t.Fatal("expected size-aware share enumeration")
	}
	if dy := pl.Shares.Dims[pl.Shares.DimOf("y")]; dy != 16 {
		t.Errorf("shares %v: the equi-join optimum is all budget on y", pl.Shares)
	}
	if !strings.Contains(pl.Explain(), "size-aware enumeration") {
		t.Errorf("Explain must name the share source:\n%s", pl.Explain())
	}

	cp := query.CartesianPair()
	cpStats := &relation.Stats{Relations: map[string]*relation.RelationStats{
		"R": statsFor("R", []string{"x"}, 10000),
		"S": statsFor("S", []string{"y"}, 100),
	}}
	cpl, err := plan.Build(cp, cpStats, plan.Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !cpl.SizeAware {
		t.Fatal("expected size-aware share enumeration for the product")
	}
	dx := cpl.Shares.Dims[cpl.Shares.DimOf("x")]
	dy := cpl.Shares.Dims[cpl.Shares.DimOf("y")]
	if dx <= dy {
		t.Errorf("shares %v: want share(x) > share(y) so the small S is the replicated side", cpl.Shares)
	}
}

func statsFor(name string, attrs []string, n int) *relation.RelationStats {
	rs := &relation.RelationStats{Name: name, Count: n, Attrs: attrs,
		Cols: make([]*relation.ColumnStats, len(attrs))}
	for i := range rs.Cols {
		rs.Cols[i] = &relation.ColumnStats{Distinct: n, MaxFreq: 1}
	}
	return rs
}

// TestManualOverrides exercises the -plan escape hatch: forced shares
// and forced engines still produce ground-truth answers, and
// impossible overrides error.
func TestManualOverrides(t *testing.T) {
	q := query.Triangle()
	rng := rand.New(rand.NewPCG(8, 8))
	db := relation.MatchingDatabase(rng, q, 200)
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: 27})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}

	manual := &hypercube.Shares{Vars: []string{"x1", "x2", "x3"}, Dims: []int{27, 1, 1}}
	forced, err := pl.WithShares(manual)
	if err != nil {
		t.Fatal(err)
	}
	res, err := forced.Execute(db, plan.ExecOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(res.Answers, truth) {
		t.Fatalf("forced-share answers %d != truth %d", len(res.Answers), len(truth))
	}

	if _, err := pl.WithShares(&hypercube.Shares{Vars: []string{"x1"}, Dims: []int{28}}); err == nil {
		t.Error("grid larger than p must be rejected")
	}
	if _, err := pl.WithShares(&hypercube.Shares{Vars: []string{"x1", "x2"}, Dims: []int{3, 3}}); err == nil {
		t.Error("shares missing a variable must be rejected")
	}

	me, err := pl.WithEngine(plan.MultiRound)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := me.Execute(db, plan.ExecOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(mres.Answers, truth) {
		t.Fatalf("forced-multiround answers %d != truth %d", len(mres.Answers), len(truth))
	}
	if _, err := pl.WithEngine(plan.SkewJoin); err == nil {
		t.Error("skew engine on a triangle must be rejected")
	}
}

// TestBuildErrors covers the planner's input validation.
func TestBuildErrors(t *testing.T) {
	q := query.Triangle()
	st := plan.MatchingStats(q, 100)
	if _, err := plan.Build(q, st, plan.Options{P: 0}); err == nil {
		t.Error("p = 0 must error")
	}
	if _, err := plan.Build(q, nil, plan.Options{P: 4}); err == nil {
		t.Error("nil stats must error")
	}
	if _, err := plan.Build(q, plan.MatchingStats(query.Chain(2), 100), plan.Options{P: 4}); err == nil {
		t.Error("missing relation stats must error")
	}
	if _, err := plan.Build(q, st, plan.Options{P: 4, Epsilon: big.NewRat(3, 2)}); err == nil {
		t.Error("ε ≥ 1 must error")
	}
}
