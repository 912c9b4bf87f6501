package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/query"
)

func triangleQuery() *query.Query { return query.Triangle() }

func TestWireExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Wire(&buf, []int{256, 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.EncodeMiBPerSec <= 0 || r.DecodeMiBPerSec <= 0 {
			t.Errorf("n=%d: non-positive throughput %+v", r.Tuples, r)
		}
		// Header (5) + round/dest (8) + name (2+1) + no view (2) + no
		// retain key (2) + mode (1) + arity/enc/stride/count (8) + 8 bytes
		// per 3-ary tuple of one word.
		if want := 29 + 8*r.Tuples; r.FrameBytes != want {
			t.Errorf("n=%d: frame bytes %d, want %d", r.Tuples, r.FrameBytes, want)
		}
	}
	if !strings.Contains(buf.String(), "E-WIRE") {
		t.Error("report missing E-WIRE header")
	}
	if _, err := Wire(&buf, []int{0}, 5); err == nil {
		t.Error("zero-size frame accepted")
	}
}

func TestSkewExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Skew(&buf, 1500, 32, 1.1, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := map[string]SkewRow{}
	for _, r := range rows {
		if !r.Complete {
			t.Errorf("%s/%s: incomplete answers", r.Input, r.Mode)
		}
		byKey[r.Input+"/"+r.Mode] = r
	}
	if byKey["zipf/resilient"].MaxLoad >= byKey["zipf/standard"].MaxLoad {
		t.Errorf("resilient (%d) should beat standard (%d) on zipf",
			byKey["zipf/resilient"].MaxLoad, byKey["zipf/standard"].MaxLoad)
	}
	if byKey["zipf/resilient"].HeavyHitters == 0 {
		t.Error("zipf input should surface heavy hitters")
	}
	if byKey["matching/resilient"].HeavyHitters != 0 {
		t.Error("matching input should have no heavy hitters")
	}
}

func TestOptimalSharesExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := OptimalShares(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Equal sizes: optimum matches the symmetric cover shares.
	if rows[0].OptCost != rows[0].CoverCost {
		t.Errorf("equal sizes: optimal %d != cover %d", rows[0].OptCost, rows[0].CoverCost)
	}
	// Growing imbalance: optimal strictly better, and the advantage grows.
	prevGain := 1.0
	for _, r := range rows[1:] {
		if r.OptCost > r.CoverCost {
			t.Errorf("sizes %s: optimal %d worse than cover %d", r.Sizes, r.OptCost, r.CoverCost)
		}
		gain := float64(r.CoverCost) / float64(r.OptCost)
		if gain < prevGain {
			t.Errorf("sizes %s: gain %.2f did not grow (prev %.2f)", r.Sizes, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestFriedgutCheckExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := FriedgutCheck(&buf, 10, 37); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "max LHS/RHS") || !strings.Contains(out, "C3") {
		t.Errorf("output:\n%s", out)
	}
}

func TestTailExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Tail(&buf, triangleQuery(), 27, 30, 1.25, []int{300, 2400}, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Concentration: the exceedance rate must not grow with n, and at
	// the largest n it should be (near) zero.
	if rows[1].ExceedRate > rows[0].ExceedRate {
		t.Errorf("exceed rate grew with n: %v → %v", rows[0].ExceedRate, rows[1].ExceedRate)
	}
	if rows[1].ExceedRate > 0.1 {
		t.Errorf("large-n exceed rate = %v, want ≈ 0", rows[1].ExceedRate)
	}
}

func TestKnowledgeExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Knowledge(&buf, 60, 40, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i, r := range rows {
		// Lemma 3.6: known tuples track the bit fraction from below
		// (prefix costs are front-loaded).
		if r.KnownTuples > r.Fraction+0.05 {
			t.Errorf("f=%v: known tuple fraction %v exceeds f", r.Fraction, r.KnownTuples)
		}
		// Lemma 3.7: known answers below the ceiling (sampling slack).
		if r.KnownAnswer > r.Ceiling*1.7+0.15 {
			t.Errorf("f=%v: known answers %v above ceiling %v", r.Fraction, r.KnownAnswer, r.Ceiling)
		}
		if i > 0 && r.KnownTuples < rows[i-1].KnownTuples {
			t.Errorf("known tuples should grow with f")
		}
	}
	// Full bits: everything known.
	last := rows[len(rows)-1]
	if last.KnownTuples < 0.999 {
		t.Errorf("f=1 should know every tuple, got %v", last.KnownTuples)
	}
}

func TestCharts(t *testing.T) {
	var buf bytes.Buffer
	fr := []LBFractionRow{
		{P: 4, MeasuredFraction: 0.5, PredictedFraction: 0.5},
		{P: 16, MeasuredFraction: 0.24, PredictedFraction: 0.25},
		{P: 64, MeasuredFraction: 0.11, PredictedFraction: 0.125},
	}
	if err := FractionChart(&buf, fr); err != nil {
		t.Fatal(err)
	}
	ccRows := []CCRow{
		{P: 4, NMRounds: 4, H2MRounds: 3, DenseRound: 2},
		{P: 64, NMRounds: 10, H2MRounds: 5, DenseRound: 2},
		{P: 256, NMRounds: 18, H2MRounds: 6, DenseRound: 2},
	}
	if err := CCChart(&buf, ccRows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "legend") {
		t.Error("charts should include legends")
	}
}

// TestShuffleModelColumns holds E-SHUF's model columns — routed tuples,
// max load and total bits of the round — to the values the mpc
// simulator recorded (captured at the commit before the port to
// dist.Cluster); the timing columns are free.
func TestShuffleModelColumns(t *testing.T) {
	rows, err := Shuffle(io.Discard, 1000, []int{8, 32, 64}, 2013)
	if err != nil {
		t.Fatal(err)
	}
	want := []ShuffleRow{
		{N: 1000, P: 8, RoutedTuples: 6000, TotalBits: 120000, MaxLoadBits: 15640},
		{N: 1000, P: 32, RoutedTuples: 9000, TotalBits: 180000, MaxLoadBits: 7300},
		{N: 1000, P: 64, RoutedTuples: 12000, TotalBits: 240000, MaxLoadBits: 4400},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := ShuffleRow{N: r.N, P: r.P, RoutedTuples: r.RoutedTuples, TotalBits: r.TotalBits, MaxLoadBits: r.MaxLoadBits}
		if got != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got, want[i])
		}
		if r.Seconds <= 0 || r.TuplesPerSec <= 0 {
			t.Errorf("row %d: non-positive timing %+v", i, r)
		}
	}
}
