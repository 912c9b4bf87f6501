package dist_test

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// bagDatabase is db with rows repeated — every third row of every
// relation twice more — and, in the relations named in hub, a hub value
// paired with every value of the domain, each such row twice: a bag
// input whose answer is still a set, and whose hub holds over half of
// the rows a join of two hub relations reads, so the skew engine splits
// it over more than one server. hub[name] says the hub's column.
func bagDatabase(db *relation.Database, hub map[string]int) *relation.Database {
	bag := relation.NewDatabase(db.N)
	for _, name := range db.Names() {
		src, _ := db.Relation(name)
		rel := relation.New(name, src.Attrs...)
		for i, row := range src.Rows() {
			rel.Tuples = append(rel.Tuples, row)
			if i%3 == 0 {
				rel.Tuples = append(rel.Tuples, row, row)
			}
		}
		if col, ok := hub[name]; ok {
			for j := 1; j <= db.N; j++ {
				row := relation.Tuple{j, j}
				row[col] = 1
				rel.Tuples = append(rel.Tuples, row, row)
			}
		}
		bag.AddRelation(rel)
	}
	return bag
}

// prefixCase is one plan on one input with its ground truth.
type prefixCase struct {
	name  string
	pl    *plan.Plan
	db    *relation.Database
	truth []relation.Tuple
}

// prefixCases are the grid engines on a matching and on a bag input: L4
// at ε = 0 on the multiround engine, whose last view is in the query's
// variable order, and C3 on one HyperCube round.
func prefixCases(t testing.TB, p int) []prefixCase {
	t.Helper()
	chain, tri := query.Chain(4), query.Cycle(3)
	chainDB := relation.MatchingDatabase(rand.New(rand.NewPCG(101, 0)), chain, 200)
	triDB := relation.IdentityDatabase(tri, 200)
	var cases []prefixCase
	for _, c := range []struct {
		name   string
		q      *query.Query
		db     *relation.Database
		engine plan.Engine
	}{
		{"L4/matching", chain, chainDB, plan.MultiRound},
		{"L4/bag", chain, bagDatabase(chainDB, map[string]int{"S1": 1, "S2": 0}), plan.MultiRound},
		{"C3/matching", tri, triDB, plan.OneRound},
		{"C3/bag", tri, bagDatabase(triDB, nil), plan.OneRound},
	} {
		cases = append(cases, prefixCase{c.name, buildPlan(t, c.q, c.db, p, c.engine), c.db, groundTruth(t, c.q, c.db)})
	}
	return cases
}

// buildPlan plans q over db at ε = 0 and forces engine.
func buildPlan(t testing.TB, q *query.Query, db *relation.Database, p int, engine plan.Engine) *plan.Plan {
	t.Helper()
	pl, err := plan.Build(q, db.Stats(), plan.Options{P: p, Epsilon: big.NewRat(0, 1)})
	if err == nil {
		pl, err = pl.WithEngine(engine)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func groundTruth(t testing.TB, q *query.Query, db *relation.Database) []relation.Tuple {
	t.Helper()
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

// firstRows is what a reply of limit rows holds of the sorted answer.
func firstRows(truth []relation.Tuple, limit int) []relation.Tuple {
	if limit == 0 {
		return truth
	}
	return truth[:min(max(limit, 0), len(truth))]
}

// execute runs the plan on tr with the answer limit, and checks what
// the reply needs: the count is the ground truth's, the run its first
// rows, and the coordinator received no more than p·limit answer rows.
func (c prefixCase) execute(tr dist.Transport, rec dist.RecoveryOptions, limit int) (outcome, error) {
	res, err := c.pl.ExecuteRun(c.db, plan.ExecOptions{Seed: 23, Transport: tr, Recovery: rec, AnswerLimit: limit})
	if err != nil {
		return outcome{}, err
	}
	got, p := res.Run.Tuples(), tr.Workers()
	switch {
	case res.Count != len(c.truth):
		return outcome{}, fmt.Errorf("answer count %d, ground truth %d", res.Count, len(c.truth))
	case !sameTuples(got, firstRows(c.truth, limit)):
		return outcome{}, fmt.Errorf("%d answers returned, not the ground truth's first %d", len(got), limit)
	case limit != 0 && res.Gathered > p*max(limit, 0):
		return outcome{}, fmt.Errorf("the answer gather shipped %d rows, %d workers × limit %d", res.Gathered, p, limit)
	}
	return outcome{answers: got, rounds: res.Stats.Rounds, repl: res.Replacements}, nil
}

// TestPrefixGatherDifferential: a grid engine asked for the first k
// answers gathers only those and counts the rest on the workers — and
// the count and the rows are the ground truth's on both links, for
// every k, on a bag input, and with a worker killed at the answer
// gather and replaced. The skew engine, whose workers' outputs overlap
// on the bag input's split hub, ignores the limit and still counts right.
func TestPrefixGatherDifferential(t *testing.T) {
	const p = 4
	rec := dist.RecoveryOptions{Enabled: true}
	for _, c := range prefixCases(t, p) {
		for _, kind := range []string{"loopback", "tcp"} {
			for _, limit := range []int{-1, 1, 100, len(c.truth) + 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", c.name, kind, limit), func(t *testing.T) {
					pool := newPool(kind, p)
					defer pool.close()
					s := disttest.NewSchedule()
					base, err := c.execute(s.Wrap(pool.session()), rec, limit)
					if err != nil {
						t.Fatal(err)
					}
					kill := disttest.NewSchedule(s.Trace().At(dist.OpGather, -1, 1, disttest.KillBefore)...)
					healed, err := c.execute(kill.Wrap(pool.session()), rec, limit)
					switch {
					case err != nil:
						t.Fatalf("killed at the answer gather: %v", err)
					case healed.repl != 1:
						t.Fatalf("killed at the answer gather: %d replacements, want 1", healed.repl)
					case !sameTuples(healed.answers, base.answers):
						t.Fatalf("killed at the answer gather: %d answers, %d without the kill", len(healed.answers), len(base.answers))
					}
				})
			}
		}
	}

	chain := query.Chain(4)
	join := query.MustNew("J", chain.Atoms[0], chain.Atoms[1])
	bag := prefixCases(t, p)[1].db
	skewed := prefixCase{"skew/bag", buildPlan(t, join, bag, p, plan.SkewJoin), bag, groundTruth(t, join, bag)}
	s1, _ := bag.Relation("S1")
	s2, _ := bag.Relation("S2")
	if rt := skewed.pl.Routing; rt == nil && len(skew.CompileFromData(s1, 1, s2, 0, p, 1).Heavy) == 0 || rt != nil && len(rt.Heavy) == 0 {
		t.Fatal("the bag input's hub is not heavy: the skew engine would not split it")
	}
	for _, kind := range []string{"loopback", "tcp"} {
		pool := newPool(kind, p)
		res, err := skewed.pl.ExecuteRun(bag, plan.ExecOptions{Seed: 23, Transport: pool.session(), AnswerLimit: 1})
		pool.close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != len(skewed.truth) || !sameTuples(res.Run.Tuples(), skewed.truth) {
			t.Fatalf("skew/%s: %d of %d answers gathered, ground truth %d", kind, res.Run.Len(), res.Count, len(skewed.truth))
		}
	}
}
