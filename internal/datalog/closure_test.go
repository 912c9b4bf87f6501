package datalog

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/relation"
)

// naiveFacts is the single-node reference of a program without aggregate
// heads: every rule applied to every fact until nothing is added, each
// body joined by backtracking over the atoms. It returns every IDB
// predicate's facts, sorted.
func naiveFacts(prog *Program, db *relation.Database) map[string][]relation.Tuple {
	facts := make(map[string]map[string]relation.Tuple)
	for name, rel := range db.Relations {
		facts[name] = make(map[string]relation.Tuple)
		for _, t := range rel.Tuples {
			facts[name][t.Key()] = t
		}
	}
	for _, pred := range prog.IDBPreds() {
		facts[pred] = make(map[string]relation.Tuple)
	}
	for grew := true; grew; {
		grew = false
		for _, r := range prog.Rules {
			var derived []relation.Tuple
			var match func(i int, bound map[string]int)
			match = func(i int, bound map[string]int) {
				if i == len(r.Body) {
					head := make(relation.Tuple, len(r.Head.Terms))
					for j, term := range r.Head.Terms {
						head[j] = bound[term.Var]
					}
					derived = append(derived, head)
					return
				}
				a := r.Body[i]
				for _, t := range facts[a.Name] {
					next := make(map[string]int, len(bound)+len(a.Vars))
					for v, x := range bound {
						next[v] = x
					}
					ok := true
					for k, v := range a.Vars {
						if x, set := next[v]; set && x != t[k] {
							ok = false
							break
						}
						next[v] = t[k]
					}
					if ok {
						match(i+1, next)
					}
				}
			}
			match(0, map[string]int{})
			for _, t := range derived {
				if _, ok := facts[r.Head.Pred][t.Key()]; !ok {
					facts[r.Head.Pred][t.Key()] = t
					grew = true
				}
			}
		}
	}
	out := make(map[string][]relation.Tuple)
	for _, pred := range prog.IDBPreds() {
		for _, t := range facts[pred] {
			out[pred] = append(out[pred], t)
		}
		sort.Slice(out[pred], func(i, j int) bool { return out[pred][i].Less(out[pred][j]) })
	}
	return out
}

// reachAggregate is the reference of reaches(x, count(y), max(y)) over a
// closure: one row per source, in source order.
func reachAggregate(tc []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, t := range tc {
		if n := len(out); n > 0 && out[n-1][0] == t[0] {
			out[n-1][1]++
			out[n-1][2] = max(out[n-1][2], t[1])
			continue
		}
		out = append(out, relation.Tuple{t[0], 1, t[1]})
	}
	return out
}

// TestClosureOnWorkersDifferential: a recursive stratum keeps its facts
// on the workers, each grid cell diffing what is routed to it against
// what it holds, and the facts are what a naive single-node fixpoint
// derives — on random graphs with cycles and repeated edges, so that
// rules derive facts already known and two workers derive the same fact
// in one iteration; for even/odd mutual recursion, a predicate with two
// recursive rules, an aggregate over a recursive stratum, a later stratum
// that reads the closure, and a recursive atom that repeats a variable
// (its grid drops facts, so the predicate is kept whole in a store of its
// own). Loopback and TCP sessions agree on facts and on the round
// record, and a run whose worker 1 dies at an absorb delivery, or at a
// route step, is healed into the same facts and the same record.
func TestClosureOnWorkersDifferential(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	programs := []struct{ name, src string }{
		{"closure", tcProgram},
		{"mutual recursion", `
			odd(x, y) :- e(x, y).
			odd(x, z) :- even(x, y), e(y, z).
			even(x, z) :- odd(x, y), e(y, z).
			?- odd(x, y).`},
		{"two recursive rules", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			tc(x, z) :- e(x, y), tc(y, z).`},
		{"aggregate over recursion", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			reaches(x, count(y), max(y)) :- tc(x, y).
			?- reaches(x, n, m).`},
		{"later stratum reads the closure", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			back(x, y) :- tc(x, y), e(y, x).
			?- back(x, y).`},
		{"repeated variable", `
			loop(x, y) :- e(x, y).
			loop(x, z) :- loop(x, x), e(x, z).`},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := 12 + rng.IntN(10)
		edges := randomEdges(rng, n, 2*n)
		edges = append(edges, edges[:n/3]...)             // repeated edges
		edges = append(edges, [2]int{1, 1}, [2]int{2, 2}) // loops
		db := edgeDB(n, edges)
		for _, pc := range programs {
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				prog := MustParse(pc.src)
				want := naiveFacts(prog, db)
				ref, err := Eval(prog, db, Options{P: p, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				for pred, facts := range want {
					if prog.an.aggPred[pred] {
						facts = reachAggregate(want["tc"])
					}
					if got := ref.Facts[pred].Tuples(); !reflect.DeepEqual(got, facts) && (len(got) > 0 || len(facts) > 0) {
						t.Fatalf("%s: %d facts, the naive fixpoint %d", pred, len(got), len(facts))
					}
				}
				if ref.Count != ref.Answers.Len() {
					t.Errorf("Count = %d, answers %d", ref.Count, ref.Answers.Len())
				}
				same := func(variant string, res *Result, replacements int) {
					t.Helper()
					if res.Replacements != replacements {
						t.Errorf("%s: %d workers replaced, want %d", variant, res.Replacements, replacements)
					}
					if !reflect.DeepEqual(factsDigest(res), factsDigest(ref)) {
						t.Errorf("%s: facts diverge", variant)
					}
					if res.Iterations != ref.Iterations || !reflect.DeepEqual(res.Stats.Rounds, ref.Stats.Rounds) {
						t.Errorf("%s: round record diverges:\n got %+v\nwant %+v", variant, res.Stats.Rounds, ref.Stats.Rounds)
					}
				}
				tcp, err := Eval(prog, db, Options{P: p, Seed: 5, Dial: tcpDialer(addrs)})
				if err != nil {
					t.Fatal(err)
				}
				same("tcp", tcp, 0)

				clean := disttest.NewSchedule()
				if _, err := Eval(prog, db, Options{P: p, Seed: 5, Dial: behind(clean)}); err != nil {
					t.Fatal(err)
				}
				for _, at := range []struct {
					name  string
					fault []disttest.Fault
				}{
					{"absorb", killAtAbsorb(clean.Trace(), 2)},
					{"route", clean.Trace().At(dist.OpRoute, 1, 1, disttest.KillAfter)},
				} {
					if at.fault == nil {
						t.Fatalf("no second %s step to kill worker 1 at", at.name)
					}
					healed, err := Eval(prog, db, Options{P: p, Seed: 5, Recovery: dist.RecoveryOptions{Enabled: true},
						Dial: behind(disttest.NewSchedule(at.fault...))})
					if err != nil {
						t.Fatalf("killed at %s: %v", at.name, err)
					}
					same("killed at "+at.name, healed, 1)
				}
			})
		}
	}
}

// behind dials every session of a program as a loopback pool behind the
// one schedule s, whose counters run across the sessions.
func behind(s *disttest.Schedule) func(int) (dist.Transport, error) {
	return func(p int) (dist.Transport, error) { return s.Wrap(dist.NewLoopback(p)), nil }
}

// TestClosureIsGatheredToTheLimit: under an answer limit only the
// canonical cells' first rows of a recursive output reach the
// coordinator, and the count is exact however few of them do; a
// predicate a later stratum reads is gathered whole.
func TestClosureIsGatheredToTheLimit(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	db := edgeDB(20, randomEdges(rng, 20, 36))
	full, err := Eval(MustParse(tcProgram), db, Options{P: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 5, -1} {
		res, err := Eval(MustParse(tcProgram), db, Options{P: 4, Seed: 5, AnswerLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := full.Answers.Tuples()[:max(limit, 0)]
		if got := res.Answers.Tuples(); res.Count != full.Answers.Len() || !slices.EqualFunc(got, want, relation.Tuple.Equal) {
			t.Errorf("limit %d: count %d and %d rows, want %d and the closure's first %d", limit, res.Count, len(got), full.Answers.Len(), len(want))
		}
		if res.Gathered > 4*max(limit, 0) {
			t.Errorf("limit %d: %d rows gathered, more than 4 workers × the limit", limit, res.Gathered)
		}
	}
	later := MustParse(`
		tc(x, y) :- e(x, y).
		tc(x, z) :- tc(x, y), e(y, z).
		back(x, y) :- tc(x, y), e(y, x).
		?- tc(x, y).`)
	res, err := Eval(later, db, Options{P: 4, Seed: 5, AnswerLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != full.Answers.Len() || res.Answers.Len() != full.Answers.Len() {
		t.Errorf("a closure a later stratum reads: %d of %d rows gathered, want all", res.Answers.Len(), full.Answers.Len())
	}
}
