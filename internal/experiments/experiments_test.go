package experiments

import (
	"bytes"
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/query"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(&buf, 60, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	// Spot-check the canonical Table 1 values.
	if byName["C3"].Tau.Cmp(rat(3, 2)) != 0 {
		t.Errorf("τ*(C3) = %s", byName["C3"].Tau.RatString())
	}
	if byName["T5"].SpaceExponent.Sign() != 0 {
		t.Errorf("ε(T5) = %s, want 0", byName["T5"].SpaceExponent.RatString())
	}
	if byName["L5"].SpaceExponent.Cmp(rat(2, 3)) != 0 {
		t.Errorf("ε(L5) = %s, want 2/3", byName["L5"].SpaceExponent.RatString())
	}
	// Analytic vs measured for exact families: L_k and T_k have exactly
	// n answers on every matching database.
	for _, name := range []string{"L2", "L3", "L5", "T3", "T5"} {
		r := byName[name]
		if math.Abs(r.ExpectedAnalytic-r.MeasuredMean) > 1e-9 {
			t.Errorf("%s: measured %v != analytic %v (exact families)", name, r.MeasuredMean, r.ExpectedAnalytic)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "space exponent") || !strings.Contains(out, "C3") {
		t.Errorf("table output missing headers:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PlanRounds != r.RoundsEps0 {
			t.Errorf("%s: greedy plan %d rounds, formula %d", r.Query, r.PlanRounds, r.RoundsEps0)
		}
	}
	if !strings.Contains(buf.String(), "tradeoff") {
		t.Error("missing header")
	}
}

func TestFigure1(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure1(&buf, []*query.Query{query.Cycle(3), query.Chain(3)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vertex covering LP", "edge packing LP", "τ* = 3/2", "τ* = 2", "duality verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 output missing %q", want)
		}
	}
}

func TestHCLoad(t *testing.T) {
	var buf bytes.Buffer
	rows, err := HCLoad(&buf, query.Cycle(3), 1500, []int{8, 27, 64}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Complete {
			t.Errorf("p=%d: HC missed answers", r.P)
		}
		if r.Ratio > 3.0 {
			t.Errorf("p=%d: load ratio %v too far above the bound", r.P, r.Ratio)
		}
	}
}

func TestLBFraction(t *testing.T) {
	var buf bytes.Buffer
	rows, err := LBFraction(&buf, query.Cycle(3), 3000, 0, []int{16, 64}, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Fraction must decay as p grows, tracking the predicted polynomial.
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].PredictedFraction >= rows[0].PredictedFraction {
		t.Error("prediction should decay with p")
	}

	// C3 on random matchings has about one triangle per database, too few
	// to measure a fraction; L3 has exactly n answers per database, so its
	// measured fraction is held to the Theorem 3.3 ceiling within 4σ of
	// sampling noise over the 3n answers.
	const n, trials = 10000, 3
	rows, err = LBFraction(&buf, query.Chain(3), n, 0, []int{4, 16, 64}, trials, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		f := r.PredictedFraction
		sigma := math.Sqrt(f * (1 - f) / (trials * n))
		if z := (r.MeasuredFraction - f) / sigma; math.Abs(z) > 4 {
			t.Errorf("L3 at p=%d: measured fraction %.4f, ceiling %.4f: z = %.1f", r.P, r.MeasuredFraction, f, z)
		}
	}
}

func TestRounds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Rounds(&buf, []int{4, 8}, []*big.Rat{rat(0, 1), rat(1, 2)}, 40, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Complete {
			t.Errorf("%s at ε=%s: incomplete answers", r.Query, r.Eps.RatString())
		}
		if r.Executed < r.Lower || r.Executed > r.Upper {
			t.Errorf("%s at ε=%s: executed %d outside [%d,%d]",
				r.Query, r.Eps.RatString(), r.Executed, r.Lower, r.Upper)
		}
	}
}

func TestRoundBounds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RoundBounds(&buf, []*big.Rat{rat(0, 1), rat(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PlanLower > r.Upper {
			t.Errorf("%s at ε=%s: certified lower %d exceeds upper %d",
				r.Query, r.Eps.RatString(), r.PlanLower, r.Upper)
		}
		if strings.HasPrefix(r.Query, "L") && r.PlanLower != r.Formula {
			t.Errorf("%s: plan lower %d != formula %d (chains should match exactly)",
				r.Query, r.PlanLower, r.Formula)
		}
		if strings.HasPrefix(r.Query, "C") && r.PlanLower < r.Formula {
			t.Errorf("%s: plan lower %d below formula %d", r.Query, r.PlanLower, r.Formula)
		}
	}
}

func TestCC(t *testing.T) {
	var buf bytes.Buffer
	rows, err := CC(&buf, []int{4, 16, 64}, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	prevNM := 0
	for _, r := range rows {
		if r.DenseRound != 2 {
			t.Errorf("p=%d: dense rounds = %d, want 2", r.P, r.DenseRound)
		}
		if r.NMRounds < prevNM {
			t.Errorf("p=%d: neighbor-min rounds decreased", r.P)
		}
		prevNM = r.NMRounds
		if r.H2MRounds > r.NMRounds {
			t.Errorf("p=%d: hash-to-min (%d) slower than neighbor-min (%d)", r.P, r.H2MRounds, r.NMRounds)
		}
	}
}

func TestWitnessExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Witness(&buf, 100, []int{16}, []float64{0.5}, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SuccessProb < 0.99 {
		t.Errorf("at ε=1/2 success = %v, want 1", rows[0].SuccessProb)
	}
}
