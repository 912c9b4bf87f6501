package hypercube

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestMaintainerEqualsDistributionPlusAlgebra is the differential net of
// the two maintenance layers: over random batch sequences — retractions
// only, extensions only, both; labels that pack and labels past 2³³ that
// put every run on the flat layout — a Maintainer, a bare Distribution
// whose caller keeps the answer itself (anti-join, then relation.Diff and
// Merge of what apply gathered) and a cold re-join of each state hold
// the same answer after every batch, and the two layers charge the same
// rounds, on loopback and on TCP sessions.
func TestMaintainerEqualsDistributionPlusAlgebra(t *testing.T) {
	const n, p, batches = 8, 4, 6
	q := query.Triangle()
	for _, kind := range []string{"retract", "extend", "mixed"} {
		for _, wide := range []bool{false, true} {
			name := kind + "/packed"
			if wide {
				name = kind + "/flat"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(0xd157, uint64(len(name))))
				// Dense enough that batches of two or three tuples kill and
				// create answers: 30 edges per relation over 8 vertices.
				db0 := relation.NewDatabase(n)
				for _, a := range q.Atoms {
					r := relation.New(a.Name, a.Vars...)
					for i := 0; i < 30; i++ {
						r.Tuples = append(r.Tuples, relation.Tuple{1 + rng.IntN(n), 1 + rng.IntN(n)})
					}
					r.Tuples = relation.DedupSort(r.Tuples)
					db0.AddRelation(r)
				}
				sc := &maintScenario{q: q, db0: db0}
				db := sc.db0
				for b := 0; b < batches; b++ {
					d := randomMaintDelta(rng, db)
					switch kind {
					case "retract":
						d.Appends = nil
					case "extend":
						d.Deletes = nil
					}
					next, eff, err := relation.ApplyDelta(db, d)
					if err != nil {
						t.Fatal(err)
					}
					sc.effs, sc.dbs, db = append(sc.effs, eff), append(sc.dbs, next), next
				}
				sc.final = db
				if wide {
					sc = sc.shifted(1 << 33)
				}

				var rounds [][]mpc.RoundStats
				for _, transport := range []string{"loopback", "tcp"} {
					open := func() Options {
						if transport == "tcp" {
							return Options{Seed: 42, Transport: dialDeltaPool(t, startDeltaPool(t, p))}
						}
						return Options{Seed: 42}
					}
					m := runMaintainer(t, sc, p, open(), true)

					d, answers, err := Distribute(q, sc.db0, p, open())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { d.Close() })
					killed, born := 0, 0
					for b, eff := range sc.effs {
						removed, added := map[string]*relation.Run{}, map[string]*relation.Run{}
						dead := map[string]map[string]bool{}
						for name, e := range eff {
							removed[name], added[name] = e.Removed, e.Added
							dead[name] = keySet(e.Removed.Tuples())
						}
						gathered, err := d.apply(removed, added)
						if err != nil {
							t.Fatalf("%s batch %d: %v", transport, b, err)
						}
						var live []relation.Tuple
						for _, ans := range answers.Tuples() {
							alive := true
							for _, a := range q.Atoms {
								w := relation.Tuple{ans[q.VarIndex(a.Vars[0])], ans[q.VarIndex(a.Vars[1])]}
								alive = alive && !dead[a.Name][w.Key()]
							}
							if alive {
								live = append(live, ans)
							}
						}
						killed += answers.Len() - len(live)
						answers = relation.RunOf(q.NumVars(), live)
						fresh := relation.Diff(gathered, answers)
						born += fresh.Len()
						answers = relation.Merge([]*relation.Run{answers, fresh})
						if want := groundTruth(t, q, sc.dbs[b]); !answersEqual(answers.Tuples(), want) {
							t.Fatalf("%s batch %d: distribution + algebra holds %d answers, cold re-join %d",
								transport, b, answers.Len(), len(want))
						}
					}
					if (killed == 0) != (kind == "extend") || (born == 0) != (kind == "retract") {
						t.Fatalf("%s: %d answers killed and %d born: the batches do not exercise the %s path", transport, killed, born, kind)
					}
					if !answersEqual(answers.Tuples(), m.Answers().Tuples()) {
						t.Fatalf("%s: the layers' answers diverge: %d vs %d", transport, answers.Len(), m.Answers().Len())
					}
					if !reflect.DeepEqual(d.Outcome().Stats.Rounds, m.Outcome().Stats.Rounds) {
						t.Fatalf("%s: the layers' round records diverge:\n distribution %+v\n maintainer   %+v",
							transport, d.Outcome().Stats.Rounds, m.Outcome().Stats.Rounds)
					}
					rounds = append(rounds, m.Outcome().Stats.Rounds)
				}
				if !reflect.DeepEqual(rounds[0], rounds[1]) {
					t.Fatal("TCP round record diverges from loopback")
				}
			})
		}
	}
}

// TestRepeatedEffectTupleIsCountedPerOccurrence: ApplyDelta seals the
// tuples of an Effect as they come, so a tuple the caller lists twice is
// routed and charged twice — what the tuple-taking ScatterDelta charged
// before maintenance moved to runs — and the answer is the set it was.
func TestRepeatedEffectTupleIsCountedPerOccurrence(t *testing.T) {
	q := query.Triangle()
	const n, p = 32, 8
	db := relation.IdentityDatabase(q, n)
	m, err := NewMaintainer(q, db, p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	next, _, err := relation.ApplyDelta(db, relation.Delta{Appends: map[string][]relation.Tuple{"S1": {{3, 7}, {9, 9}}}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyDelta(map[string]relation.Effect{"S1": {Added: relation.RunOf(2, []relation.Tuple{{3, 7}, {9, 9}, {3, 7}})}})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * m.Fanout("S1")); rep.RoutedTuples != want {
		t.Errorf("three occurrences routed %d tuple receipts, want 3 × fanout = %d", rep.RoutedTuples, want)
	}
	assertSameTuples(t, m.Answers().Tuples(), groundTruth(t, q, next))
}
