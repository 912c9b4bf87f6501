package dist_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// skewShapeDB lays the Zipf(1.3) join R(x,y) ⋈ S(y,z) out under q's own
// atoms — column order as the atoms name their variables, every label
// shifted by offset — so the run-native skew engine is exercised on
// relations that are not already in the canonical (x,y), (y,z) layout.
func skewShapeDB(q *query.Query, n, offset int, emptyS bool) *relation.Database {
	r, s := skew.ZipfJoinInput(rand.New(rand.NewPCG(400, 1)), n, 1.3)
	if emptyS {
		s.Tuples = nil
	}
	role := map[string][2]int{"x": {0, 0}, "y": {1, 0}, "z": {0, 1}} // variable → column in (r, s)
	db := relation.NewDatabase(n + max(offset, 0))
	for side, src := range []*relation.Relation{r, s} {
		a := q.Atoms[side]
		rel := relation.New(a.Name, a.Vars...)
		for _, t := range src.Tuples {
			row := make(relation.Tuple, len(a.Vars))
			for c, v := range a.Vars {
				row[c] = t[role[v][side]] + offset
			}
			rel.Tuples = append(rel.Tuples, row)
		}
		db.AddRelation(rel)
	}
	return db
}

// TestSkewPlannerRunNative: Plan.Execute on the skew engine — routing
// compiled at Build from the catalog's histogram runs, execution on the
// query's own atoms — equals ground truth for permuted atoms, a
// reordered head, labels from −40 (0 and negatives: flat runs) and from
// 2³³, and an empty side; round statistics equal the digests recorded
// at the commit before the engine went run-native (when it remapped
// both relations onto R(x,y), S(y,z) and detected heavy hitters from
// the tuples on every query); loopback ≡ TCP, the plan's round driven by
// hand stepped ≡ fused ≡ Execute, a worker killed at the barrier heals to
// the same record, and a plan whose catalog has no histograms compiles
// the same routing from the data at Execute.
func TestSkewPlannerRunNative(t *testing.T) {
	const p, n = 16, 2000
	addrs := startPool(t, p)
	cases := []struct {
		name, text string
		offset     int
		emptyS     bool
		golden     string
	}{
		{"canonical", "q(x,y,z) = R(x,y), S(y,z)", 0, false, "9a3f261761137634"},
		{"permuted-atoms", "q(x,y,z) = R(y,x), S(z,y)", 0, false, "9a3f261761137634"},
		{"head-order", "q(z,y,x) = R(x,y), S(y,z)", 0, false, "9a3f261761137634"},
		{"labels-from-minus-40", "q(x,y,z) = R(x,y), S(y,z)", -41, false, "aa6806328e068ad3"},
		{"labels-from-2^33", "q(x,y,z) = R(y,x), S(z,y)", 1 << 33, false, "bd1d07854ee14693"},
		{"empty-side", "q(x,y,z) = R(x,y), S(y,z)", 0, true, "2149f12a7ff1ff4e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := query.MustParse(c.text)
			db := skewShapeDB(q, n, c.offset, c.emptyS)
			truth, err := core.GroundTruth(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if len(truth) == 0 != c.emptyS {
				t.Fatalf("ground truth has %d answers", len(truth))
			}
			pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
			if err != nil {
				t.Fatal(err)
			}
			if !c.emptyS && pl.Engine != plan.SkewJoin {
				t.Fatalf("planner picked %v on a Zipf(1.3) join", pl.Engine)
			}
			if pl, err = pl.WithEngine(plan.SkewJoin); err != nil {
				t.Fatal(err)
			}
			run := func(pl *plan.Plan, tr dist.Transport, rec dist.RecoveryOptions) *plan.Result {
				t.Helper()
				res, err := pl.Execute(db, plan.ExecOptions{Seed: 23, Transport: tr, Recovery: rec})
				if err != nil {
					t.Fatal(err)
				}
				if !sameTuples(res.Answers, truth) {
					t.Errorf("%d answers, ground truth %d", len(res.Answers), len(truth))
				}
				return res
			}
			base := run(pl, nil, dist.RecoveryOptions{})
			if got := statsDigest(base.Stats); got != c.golden {
				t.Errorf("round stats digest %s, recorded %s", got, c.golden)
			}
			kinds := []string{"loopback", "tcp"}
			if c.offset < 0 {
				kinds = kinds[:1] // the wire carries domain values, which are non-negative
			}
			for _, kind := range kinds {
				transport := func() dist.Transport {
					if kind == "tcp" {
						return dialPool(t, addrs)
					}
					return dist.NewLoopback(p)
				}
				if res := run(pl, transport(), dist.RecoveryOptions{}); !reflect.DeepEqual(res.Stats.Rounds, base.Stats.Rounds) {
					t.Errorf("%s: round stats differ from the loopback run", kind)
				}
				for _, sch := range schedules {
					ans, cl := drive(t, sch.open, dist.Env{Transport: transport()}, planProgram(t, pl, db, 23))
					if !sameTuples(ans, truth) || !reflect.DeepEqual(cl.Stats().Rounds, base.Stats.Rounds) {
						t.Errorf("%s, %s by hand: %d answers (ground truth %d), stats equal Execute's: %v",
							kind, sch.name, len(ans), len(truth), reflect.DeepEqual(cl.Stats().Rounds, base.Stats.Rounds))
					}
				}
				ft := disttest.NewFaultTransport(transport(), disttest.Fault{Worker: 0, Op: dist.OpBarrier, N: 0, Kind: disttest.KillBefore})
				res := run(pl, ft, dist.RecoveryOptions{Enabled: true, MaxReplacements: 8})
				if !reflect.DeepEqual(res.Stats.Rounds, base.Stats.Rounds) || ft.Kills() != 1 || res.Replacements < 1 {
					t.Errorf("%s barrier kill: %d kills, %d replacements, stats equal %v",
						kind, ft.Kills(), res.Replacements, reflect.DeepEqual(res.Stats.Rounds, base.Stats.Rounds))
				}
			}
			bare, err := plan.Build(q, plan.MatchingStats(q, n), plan.Options{P: p})
			if err != nil {
				t.Fatal(err)
			}
			if bare, err = bare.WithEngine(plan.SkewJoin); err != nil {
				t.Fatal(err)
			}
			if res := run(bare, nil, dist.RecoveryOptions{}); !reflect.DeepEqual(res.Stats.Rounds, base.Stats.Rounds) {
				t.Errorf("plan without histograms routed differently from the compiled plan")
			}
		})
	}
}
