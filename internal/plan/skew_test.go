package plan_test

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/skew"
)

// skewBenchDB generates the end-to-end benchmark's skew_warm shape:
// R(x,y) and S(y,z) with Zipf(s) first columns and R.y overwritten by a
// permutation, so the join value is heavy in S alone and the join has
// one answer per distinct S-tuple.
func skewBenchDB(rng *rand.Rand, n int, s float64) *relation.Database {
	r := relation.SkewedZipf(rng, "R", []string{"x", "y"}, n, s)
	for i, y := range rng.Perm(n) {
		r.Tuples[i][1] = y + 1
	}
	db := relation.NewDatabase(n)
	db.AddRelation(r)
	db.AddRelation(relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, s))
	return db
}

// heavyJoinDB builds R(x,y), S(y,z) of n tuples each in which heavy[v]
// gives value v's count on the (R, S) side and every remaining tuple
// carries a join value of its own.
func heavyJoinDB(n int, heavy map[int][2]int) *relation.Database {
	r, s := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for v, c := range heavy {
		for i := 0; i < c[0]; i++ {
			r.Tuples = append(r.Tuples, relation.Tuple{len(r.Tuples) + 1, v})
		}
		for i := 0; i < c[1]; i++ {
			s.Tuples = append(s.Tuples, relation.Tuple{v, len(s.Tuples) + 1})
		}
	}
	for len(r.Tuples) < n {
		r.Tuples = append(r.Tuples, relation.Tuple{len(r.Tuples) + 1, 1000 + len(r.Tuples)})
	}
	for len(s.Tuples) < n {
		s.Tuples = append(s.Tuples, relation.Tuple{n + 1000 + len(s.Tuples), len(s.Tuples) + 1})
	}
	db := relation.NewDatabase(4 * n)
	db.AddRelation(r)
	db.AddRelation(s)
	return db
}

// assertPlannerSeesEngineHeavySet: Plan.Heavy and HeavyThreshold are
// the compiled routing's, and a routing compiled from the tuples (what
// skew.RunJoin does) finds the same heavy set — the planner and the
// engine cannot disagree. The forced skew execution must still equal
// ground truth.
func assertPlannerSeesEngineHeavySet(t *testing.T, db *relation.Database, p, wantHeavy int) *plan.Plan {
	t.Helper()
	q := skew.JoinQuery()
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	s, _ := db.Relation("S")
	engine := skew.CompileFromData(r, 1, s, 0, p, 0)
	if len(pl.Heavy) != wantHeavy || len(engine.Heavy) != wantHeavy || pl.HeavyThreshold != engine.Threshold {
		t.Fatalf("planner lists %d heavy values above %d, engine routes %d above %d, want %d",
			len(pl.Heavy), pl.HeavyThreshold, len(engine.Heavy), engine.Threshold, wantHeavy)
	}
	for k, hv := range engine.Heavy {
		if pl.Heavy[k].Value != hv.Value || pl.Heavy[k].Count != hv.CountR+hv.CountS || pl.Heavy[k].Count <= pl.HeavyThreshold {
			t.Fatalf("Plan.Heavy[%d] = %+v, engine routes %+v (threshold %d)", k, pl.Heavy[k], hv, pl.HeavyThreshold)
		}
	}
	forced, err := pl.WithEngine(plan.SkewJoin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := forced.Execute(db, plan.ExecOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(res.Answers, truth) {
		t.Fatalf("%d answers, ground truth %d", len(res.Answers), len(truth))
	}
	return pl
}

// TestPlannerSeesValuesBeyondTopK is the regression for the planner
// that summed the two StatsTopK = 16 lists: at p = 64, twenty join
// values each hold n/40 tuples on both sides — heavy only in
// combination (100 + 100 > 8000/64 = 125) and, being tied, four of them
// outside either side's top 16. The engine, which read the data, routed
// all twenty as heavy; the planner reported sixteen.
func TestPlannerSeesValuesBeyondTopK(t *testing.T) {
	const n, p = 4000, 64
	heavy := map[int][2]int{}
	for v := 1; v <= 20; v++ {
		heavy[v] = [2]int{n / 40, n / 40}
	}
	pl := assertPlannerSeesEngineHeavySet(t, heavyJoinDB(n, heavy), p, 20)
	if ex := pl.Explain(); !strings.Contains(ex, "… 16 more") {
		t.Errorf("Explain does not count all 20 heavy values:\n%s", ex)
	}
}

// TestPlannerSeesCombinedHeavyValue: value 1 is under the threshold
// (12800/64 = 200) on each side alone — 150 in R, 60 in S — and on the S
// side ranks 17th, behind sixteen values of 70 that are themselves
// light, so S's top-16 list does not mention it. Only the full
// histograms show its combined 210.
func TestPlannerSeesCombinedHeavyValue(t *testing.T) {
	const n, p = 6400, 64
	heavy := map[int][2]int{1: {150, 60}}
	for v := 2; v <= 17; v++ {
		heavy[v] = [2]int{0, 70}
	}
	assertPlannerSeesEngineHeavySet(t, heavyJoinDB(n, heavy), p, 1)
}

// TestSkewLoadPrediction is the model-vs-actual property of the skew
// engine's cost: over Zipf(1.1–1.5) × p ∈ {8, 16, 64} on the benchmark's
// input shape, the measured maximum load stays within 25 % of the load
// predicted from the compiled routing at p ≤ 16 and within 35 % at
// p = 64. The prediction spreads the light tuples evenly; a Zipf tail
// keeps values of up to threshold size below the threshold, each of
// which hashes whole onto one server, and with 64 servers one of them
// regularly lands on a heavy value's block — the part of the load the
// formula cannot see. (The predictor it replaces was off by 1.95× on
// this shape.) Cells whose routing has no heavy value are plain hashing
// and are skipped: the planner never selects the engine there.
func TestSkewLoadPrediction(t *testing.T) {
	const n = 20000
	q := skew.JoinQuery()
	for _, s := range []float64{1.1, 1.3, 1.5} {
		for _, p := range []int{8, 16, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				db := skewBenchDB(rand.New(rand.NewPCG(seed, uint64(p))), n, s)
				pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
				if err != nil {
					t.Fatal(err)
				}
				if len(pl.Heavy) == 0 {
					continue
				}
				if pl, err = pl.WithEngine(plan.SkewJoin); err != nil {
					t.Fatal(err)
				}
				res, err := pl.Execute(db, plan.ExecOptions{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				tolerance := 0.25
				if p == 64 {
					tolerance = 0.35
				}
				ratio := float64(res.Stats.MaxLoadTuples()) / pl.Cost.LoadTuples
				if ratio < 1-tolerance || ratio > 1+tolerance {
					t.Errorf("zipf(%.1f) p=%d seed=%d: max load %d vs predicted %.0f (ratio %.2f)",
						s, p, seed, res.Stats.MaxLoadTuples(), pl.Cost.LoadTuples, ratio)
				}
			}
		}
	}
}

// TestSkewExecuteAllocs bounds the allocations of one warm skew query
// at the benchmark's size: with the routing compiled at Build and the
// engine on sealed runs, what is left is partition buffers, the merge
// and the one materialization of the answers — not a per-tuple term
// (299 192 allocations per Execute before).
func TestSkewExecuteAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 100 000")
	}
	const n, p = 100000, 16
	db := skewBenchDB(rand.New(rand.NewPCG(61, 61)), n, 1.3)
	pl, err := plan.Build(skew.JoinQuery(), db.Stats(), plan.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine != plan.SkewJoin || pl.Routing == nil {
		t.Fatalf("planner picked %v (routing %v)", pl.Engine, pl.Routing)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := pl.Execute(db, plan.ExecOptions{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5000 {
		t.Errorf("%.0f allocations per Execute, want ≤ 5000", allocs)
	}
}
