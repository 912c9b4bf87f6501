package dist_test

import (
	"math/big"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/multiround"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// The differential test net: every query family × engine runs over
// both the loopback and the TCP transport on matching and Zipf
// inputs, and every run must match the single-node ground truth
// byte-for-byte — answers AND round statistics (the accounting is
// coordinator-side, so the two transports must agree exactly).

// sameTuples compares answer sets element-wise (nil and empty are
// both "no answers").
func sameTuples(a, b []relation.Tuple) bool {
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

// zipfDatabase builds a database whose binary relations all have a
// Zipf-skewed first column — the adversarial counterpart of the
// paper's matching databases.
func zipfDatabase(rng *rand.Rand, q *query.Query, n int, s float64) *relation.Database {
	db := relation.NewDatabase(n)
	for _, a := range q.Atoms {
		db.AddRelation(relation.SkewedZipf(rng, a.Name, a.Vars, n, s))
	}
	return db
}

// engineRun executes q over db on p workers with the given transport
// (nil = loopback) and returns sorted deduplicated answers plus the
// communication record.
type engineRun func(t *testing.T, q *query.Query, db *relation.Database, p int, tr dist.Transport) ([]relation.Tuple, *mpc.Stats)

func runHypercube(t *testing.T, q *query.Query, db *relation.Database, p int, tr dist.Transport) ([]relation.Tuple, *mpc.Stats) {
	t.Helper()
	res, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 23, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return res.Run.Tuples(), res.Stats
}

func runMultiround(t *testing.T, q *query.Query, db *relation.Database, p int, tr dist.Transport) ([]relation.Tuple, *mpc.Stats) {
	t.Helper()
	pl, err := multiround.Build(q, big.NewRat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := multiround.Execute(pl, db, p, multiround.Options{Seed: 23, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return res.Run.Tuples(), res.Stats
}

// TestDifferentialFamilies is the family × engine × transport × input
// matrix for the hypercube and multiround engines.
func TestDifferentialFamilies(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	families := []struct {
		name string
		q    *query.Query
	}{
		{"triangle", query.Cycle(3)},
		{"star", query.Star(3)},
		{"chain", query.Chain(4)},
	}
	engines := []struct {
		name string
		run  engineRun
	}{
		{"hypercube", runHypercube},
		{"multiround", runMultiround},
	}
	inputs := []struct {
		name string
		db   func(q *query.Query, salt uint64) *relation.Database
	}{
		{"matching", func(q *query.Query, salt uint64) *relation.Database {
			return relation.MatchingDatabase(rand.New(rand.NewPCG(100, salt)), q, 300)
		}},
		{"zipf", func(q *query.Query, salt uint64) *relation.Database {
			return zipfDatabase(rand.New(rand.NewPCG(200, salt)), q, 200, 1.1)
		}},
	}
	for fi, fam := range families {
		for _, eng := range engines {
			for _, in := range inputs {
				t.Run(fam.name+"/"+eng.name+"/"+in.name, func(t *testing.T) {
					db := in.db(fam.q, uint64(fi))
					truth, err := core.GroundTruth(fam.q, db)
					if err != nil {
						t.Fatal(err)
					}
					loopAns, loopStats := eng.run(t, fam.q, db, p, nil)
					tcp := dialPool(t, addrs)
					tcpAns, tcpStats := eng.run(t, fam.q, db, p, tcp)
					if !sameTuples(loopAns, truth) {
						t.Errorf("loopback: %d answers, ground truth %d", len(loopAns), len(truth))
					}
					if !sameTuples(tcpAns, truth) {
						t.Errorf("tcp: %d answers, ground truth %d", len(tcpAns), len(truth))
					}
					if !reflect.DeepEqual(loopStats.Rounds, tcpStats.Rounds) {
						t.Errorf("round stats differ:\nloopback %+v\ntcp %+v", loopStats.Rounds, tcpStats.Rounds)
					}
				})
			}
		}
	}
}

// TestDifferentialSkewJoin covers the skew engine: all three routing
// modes on matching and Zipf join inputs, both transports, against
// the single-node join.
func TestDifferentialSkewJoin(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	inputs := []struct {
		name string
		gen  func() (*relation.Relation, *relation.Relation)
	}{
		{"matching", func() (*relation.Relation, *relation.Relation) {
			return skew.MatchingJoinInput(rand.New(rand.NewPCG(3, 1)), 400)
		}},
		{"zipf", func() (*relation.Relation, *relation.Relation) {
			return skew.ZipfJoinInput(rand.New(rand.NewPCG(3, 2)), 400, 1.3)
		}},
	}
	for _, in := range inputs {
		for _, mode := range []skew.Mode{skew.Standard, skew.Resilient, skew.ModeWCOJ} {
			t.Run(in.name+"/"+mode.String(), func(t *testing.T) {
				r, s := in.gen()
				truth, err := skew.GroundTruth(r, s)
				if err != nil {
					t.Fatal(err)
				}
				loop, _, err := skew.RunJoin(r, s, p, mode, skew.Options{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				tcpRes, _, err := skew.RunJoin(r, s, p, mode, skew.Options{Seed: 7, Transport: dialPool(t, addrs)})
				if err != nil {
					t.Fatal(err)
				}
				if !sameTuples(loop.Run.Tuples(), truth) {
					t.Errorf("loopback: %d answers, ground truth %d", loop.Run.Len(), len(truth))
				}
				if !sameTuples(tcpRes.Run.Tuples(), truth) {
					t.Errorf("tcp: %d answers, ground truth %d", tcpRes.Run.Len(), len(truth))
				}
				if !reflect.DeepEqual(loop.Stats.Rounds, tcpRes.Stats.Rounds) {
					t.Errorf("round stats differ across transports")
				}
			})
		}
	}
}

// TestDifferentialPlanner runs the full planner path (stats → plan →
// Execute) distributed, covering the plan.ExecOptions threading for
// every engine the planner can pick.
func TestDifferentialPlanner(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	cases := []struct {
		name   string
		q      *query.Query
		eps    *big.Rat
		engine *plan.Engine
	}{
		{"auto-triangle", query.Cycle(3), nil, nil},
		{"forced-multi-chain", query.Chain(4), big.NewRat(0, 1), nil},
		{"forced-skew-join", query.MustParse("q(x,y,z) = R(x,y), S(y,z)"), nil, enginePtr(plan.SkewJoin)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(55, uint64(len(c.name))))
			db := relation.MatchingDatabase(rng, c.q, 300)
			truth, err := core.GroundTruth(c.q, db)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Build(c.q, relation.CollectStats(db), plan.Options{P: p, Epsilon: c.eps})
			if err != nil {
				t.Fatal(err)
			}
			if c.engine != nil {
				if pl, err = pl.WithEngine(*c.engine); err != nil {
					t.Fatal(err)
				}
			}
			loop, err := pl.Execute(db, plan.ExecOptions{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			tcpRes, err := pl.Execute(db, plan.ExecOptions{Seed: 3, Transport: dialPool(t, addrs)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(loop.Answers, truth) {
				t.Errorf("loopback: %d answers, ground truth %d", len(loop.Answers), len(truth))
			}
			if !sameTuples(tcpRes.Answers, truth) {
				t.Errorf("tcp: %d answers, ground truth %d", len(tcpRes.Answers), len(truth))
			}
			if !reflect.DeepEqual(loop.Stats.Rounds, tcpRes.Stats.Rounds) {
				t.Errorf("round stats differ across transports")
			}
		})
	}
}

// enginePtr returns a pointer to e (test-table convenience).
func enginePtr(e plan.Engine) *plan.Engine { return &e }
