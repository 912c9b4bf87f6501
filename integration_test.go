package repro

// Cross-module integration tests: every theorem-level claim of the
// paper exercised end to end through the public surface of the
// subsystems (analysis → data generation → cluster execution →
// verification against single-node ground truth).

import (
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/theory"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

// TestTheorem11UpperBound: for each Table 1 family, HC at ε = 1−1/τ*
// finds every answer in one round and its load tracks n/p^{1/τ*}.
func TestTheorem11UpperBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 1))
	queries := []*query.Query{
		query.Cycle(3), query.Cycle(4), query.Star(3),
		query.Chain(2), query.Chain(3), query.Chain(4), query.Binom(3, 2),
	}
	n := 600
	p := 64
	for _, q := range queries {
		db := relation.MatchingDatabase(rng, q, n)
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Run.Len() != len(truth) {
			t.Errorf("%s: one-round HC found %d answers, truth %d", q.Name, res.Run.Len(), len(truth))
		}
		if res.Stats.NumRounds() != 1 {
			t.Errorf("%s: %d rounds, want 1", q.Name, res.Stats.NumRounds())
		}
	}
}

// TestTheorem11LowerBoundShape: below the space exponent the sampled
// algorithm's answer fraction decays polynomially with p and never
// exceeds a constant multiple of the Theorem 3.3 ceiling.
func TestTheorem11LowerBoundShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 1))
	q := query.Cycle(3)
	n := 5000
	trials := 6
	fractions := map[int]float64{}
	for _, p := range []int{16, 256} {
		found, total := 0, 0
		for trial := 0; trial < trials; trial++ {
			db := relation.MatchingDatabase(rng, q, n)
			truth, err := core.GroundTruth(q, db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := hypercube.RunSampled(q, db, p, hypercube.Options{Epsilon: 0, Seed: rng.Uint64()})
			if err != nil {
				t.Fatal(err)
			}
			found += res.Run.Len()
			total += len(truth)
		}
		if total == 0 {
			t.Skip("no triangles in any trial; unlucky seeds")
		}
		fractions[p] = float64(found) / float64(total)
	}
	// Ceiling at p: p^{-1/2} → 0.25 at p=16, 0.0625 at p=256. The
	// measured fraction must shrink with p.
	if fractions[256] >= fractions[16] && fractions[16] > 0 {
		t.Errorf("fraction did not decay with p: %v", fractions)
	}
}

// TestTheorem12RoundTradeoff: the full lower/upper/actual round
// pipeline for tree-like queries across ε, on real executions.
func TestTheorem12RoundTradeoff(t *testing.T) {
	rng := rand.New(rand.NewPCG(102, 1))
	n := 120
	p := 16
	for _, tc := range []struct {
		k   int
		eps *big.Rat
	}{
		{5, rat(0, 1)}, {8, rat(0, 1)}, {16, rat(1, 2)}, {9, rat(1, 2)},
	} {
		q := query.Chain(tc.k)
		db := relation.MatchingDatabase(rng, q, n)
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		lower, err := theory.RoundsLowerBound(q, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		upper, err := theory.RoundsUpperBound(q, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := multiround.Build(q, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := multiround.Execute(pl, db, p, multiround.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.NumRounds() < lower || res.Stats.NumRounds() > upper {
			t.Errorf("L%d at ε=%s: executed %d rounds outside [%d,%d]",
				tc.k, tc.eps.RatString(), res.Stats.NumRounds(), lower, upper)
		}
		if res.Run.Len() != len(truth) {
			t.Errorf("L%d: incomplete answers %d/%d", tc.k, res.Run.Len(), len(truth))
		}
	}
}

// TestTheorem45Certificates: the (ε,r)-plan machinery certifies
// exactly the Corollary 4.8 bounds for chains.
func TestTheorem45Certificates(t *testing.T) {
	for _, eps := range []*big.Rat{rat(0, 1), rat(1, 2)} {
		ke, err := theory.KEpsilon(eps)
		if err != nil {
			t.Fatal(err)
		}
		for k := ke + 1; k <= 3*ke*ke; k += ke - 1 {
			plan, err := theory.ChainPlan(k, eps)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Verify(eps); err != nil {
				t.Fatalf("L%d at ε=%s: %v", k, eps.RatString(), err)
			}
			want, err := theory.ChainRoundsLower(k, eps)
			if err != nil {
				t.Fatal(err)
			}
			if plan.LowerBound() != want {
				t.Errorf("L%d at ε=%s: certificate %d != formula %d",
					k, eps.RatString(), plan.LowerBound(), want)
			}
		}
	}
}

// TestLemma34ExpectedAnswers: measured answer counts on random
// matching databases match n^{1+χ} for the exact families and are of
// the right order for C3.
func TestLemma34ExpectedAnswers(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 1))
	n := 300
	// L_k and T_k: exactly n answers always.
	for _, q := range []*query.Query{query.Chain(3), query.Star(4)} {
		db := relation.MatchingDatabase(rng, q, n)
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) != n {
			t.Errorf("%s: %d answers, want exactly %d", q.Name, len(truth), n)
		}
	}
	// C3: E = 1; mean over trials should be within a small factor.
	trials := 120
	total := 0
	q := query.Triangle()
	for i := 0; i < trials; i++ {
		db := relation.MatchingDatabase(rng, q, 40)
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		total += len(truth)
	}
	mean := float64(total) / float64(trials)
	if mean < 0.4 || mean > 2.0 {
		t.Errorf("C3 mean answers = %v over %d trials, want ≈ 1", mean, trials)
	}
}

// TestReplicationRate: the total data exchanged by HC in one round is
// Θ(p^ε) times the input (Section 2.1's replication interpretation).
func TestReplicationRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(104, 1))
	q := query.Triangle()
	n := 2000
	db := relation.MatchingDatabase(rng, q, n)
	for _, p := range []int{8, 64, 512} {
		res, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(float64(p), 1.0/3.0) // p^ε with ε = 1/3
		got := res.Stats.Replication(db.InputBits())
		if got < 0.5*want || got > 2*want {
			t.Errorf("p=%d: replication %.2f, want ≈ p^(1/3) = %.2f", p, got, want)
		}
	}
}

// TestExperimentsSmoke: the whole harness runs end to end (small
// sizes) without error — the same code paths cmd/mpcbench exercises.
func TestExperimentsSmoke(t *testing.T) {
	if _, err := experiments.Table1(io.Discard, 60, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Table2(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := experiments.Figure1(io.Discard, []*query.Query{query.Cycle(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.HCLoad(io.Discard, query.Cycle(3), 500, []int{8, 27}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.LBFraction(io.Discard, query.Cycle(3), 1000, 0, []int{16}, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Rounds(io.Discard, []int{4}, []*big.Rat{rat(0, 1)}, 40, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.RoundBounds(io.Discard, []*big.Rat{rat(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.CC(io.Discard, []int{4, 16}, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Witness(io.Discard, 64, []int{16}, []float64{0.5}, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyPlanNeverBeatsCertificates: executing a plan in fewer
// rounds than an (ε,r)-plan certificate allows would contradict
// Theorem 4.5; check the pipeline is mutually consistent for chains.
func TestGreedyPlanNeverBeatsCertificates(t *testing.T) {
	for _, eps := range []*big.Rat{rat(0, 1), rat(1, 2)} {
		ke, err := theory.KEpsilon(eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{ke + 1, 2 * ke, 4*ke + 1} {
			plan, err := multiround.Build(query.Chain(k), eps)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := theory.ChainPlan(k, eps)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Rounds() < cert.LowerBound() {
				t.Errorf("L%d at ε=%s: plan %d rounds beats certificate %d — impossible",
					k, eps.RatString(), plan.Rounds(), cert.LowerBound())
			}
		}
	}
}
