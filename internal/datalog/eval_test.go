package datalog

import (
	"context"
	"math/big"
	"math/rand/v2"
	"net"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/plan"
	"repro/internal/relation"
)

// startPool spins up n in-process TCP worker listeners (the exact
// code cmd/mpcworker runs) and returns their addresses.
func startPool(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go dist.Serve(ctx, ln)
	}
	return addrs
}

// tcpDialer returns an Options.Dial that opens a fresh session
// against the pool per execution.
func tcpDialer(addrs []string) func(int) (dist.Transport, error) {
	return func(int) (dist.Transport, error) {
		return dist.DialTCP(context.Background(), addrs)
	}
}

// edgeDB builds a database with one binary relation e over [1,n].
func edgeDB(n int, edges [][2]int) *relation.Database {
	rel := relation.New("e", "a", "b")
	for _, e := range edges {
		rel.Tuples = append(rel.Tuples, relation.Tuple{e[0], e[1]})
	}
	db := relation.NewDatabase(n)
	db.AddRelation(rel)
	return db
}

// randomEdges draws m edges uniformly over [1,n]² (duplicates kept —
// set semantics must absorb them).
func randomEdges(rng *rand.Rand, n, m int) [][2]int {
	out := make([][2]int, m)
	for i := range out {
		out[i] = [2]int{rng.IntN(n) + 1, rng.IntN(n) + 1}
	}
	return out
}

// naiveTC is the single-node reference: the transitive closure by
// naive fixpoint over a set.
func naiveTC(edges [][2]int) map[[2]int]bool {
	tc := map[[2]int]bool{}
	for _, e := range edges {
		tc[e] = true
	}
	for {
		grew := false
		for xy := range tc {
			for _, e := range edges {
				if e[0] != xy[1] {
					continue
				}
				k := [2]int{xy[0], e[1]}
				if !tc[k] {
					tc[k] = true
					grew = true
				}
			}
		}
		if !grew {
			return tc
		}
	}
}

func pairsOf(ts []relation.Tuple) map[[2]int]bool {
	out := make(map[[2]int]bool, len(ts))
	for _, t := range ts {
		out[[2]int{t[0], t[1]}] = true
	}
	return out
}

const tcProgram = `
	tc(x, y) :- e(x, y).
	tc(x, z) :- tc(x, y), e(y, z).
	?- tc(x, y).
`

// TestEvalTransitiveClosure: the distributed semi-naive evaluation
// equals the single-node naive fixpoint.
func TestEvalTransitiveClosure(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 3; trial++ {
		edges := randomEdges(rng, 24, 40)
		db := edgeDB(24, edges)
		res, err := Eval(MustParse(tcProgram), db, Options{P: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTC(edges)
		got := pairsOf(res.Run.Tuples())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: closure has %d pairs, reference %d", trial, len(got), len(want))
		}
		if !reflect.DeepEqual(res.Vars, []string{"x", "y"}) {
			t.Fatalf("vars = %v", res.Vars)
		}
		if res.Iterations == 0 {
			t.Fatal("recursive run reports zero iterations")
		}
		// Sorted, deduplicated.
		for i, answers := 1, res.Run.Tuples(); i < len(answers); i++ {
			if !answers[i-1].Less(answers[i]) {
				t.Fatal("answers not sorted/deduplicated")
			}
		}
	}
}

// TestEvalTransports: the same program over loopback and TCP worker
// pools yields identical answers and byte-identical round statistics.
func TestEvalTransports(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	edges := randomEdges(rng, 20, 36)
	const p = 4
	run := func(dial func(int) (dist.Transport, error)) *Result {
		res, err := Eval(MustParse(tcProgram), edgeDB(20, edges), Options{P: p, Seed: 5, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lb := run(nil)
	tcp := run(tcpDialer(startPool(t, p)))
	if !reflect.DeepEqual(lb.Run.Tuples(), tcp.Run.Tuples()) {
		t.Fatalf("answers diverge: %d loopback vs %d TCP", lb.Run.Len(), tcp.Run.Len())
	}
	if lb.Iterations != tcp.Iterations {
		t.Fatalf("iterations diverge: %d vs %d", lb.Iterations, tcp.Iterations)
	}
	if !reflect.DeepEqual(lb.Stats.Rounds, tcp.Stats.Rounds) {
		t.Fatalf("round stats diverge:\nloop %+v\n tcp %+v", lb.Stats.Rounds, tcp.Stats.Rounds)
	}
	if lb.Stats.TotalBits() == 0 {
		t.Fatal("no communication recorded")
	}
}

// onSession is an Options.Dial of loopback sessions, the n-th (0-indexed)
// of them behind s.
func onSession(n int, s *disttest.Schedule) func(int) (dist.Transport, error) {
	return func(p int) (dist.Transport, error) {
		if n--; n != -1 {
			return dist.NewLoopback(p), nil
		}
		return s.Wrap(dist.NewLoopback(p)), nil
	}
}

// killAtSecondDelta looks up, in a fault-free evaluation of prog, the
// point the recovery tests of this package share: worker 1 dying ahead of
// the second delta round of the execution the program dials as session.
func killAtSecondDelta(t *testing.T, prog *Program, db *relation.Database, p, session int) []disttest.Fault {
	t.Helper()
	clean := disttest.NewSchedule()
	if _, err := Eval(prog, db, Options{P: p, Seed: 5, Dial: onSession(session, clean)}); err != nil {
		t.Fatal(err)
	}
	kill := killAtAbsorb(clean.Trace(), 2)
	if kill == nil {
		t.Fatalf("session %d has no second delta round", session)
	}
	return kill
}

// killAtAbsorb is worker 1 dying ahead of the n-th (from 1) absorbed
// delivery of a traced evaluation — the n-th relay of what the workers
// derived.
func killAtAbsorb(tr disttest.Trace, n int) []disttest.Fault {
	for _, site := range tr {
		if site.Kind == dist.OpDeliver && site.Absorb {
			if n--; n == 0 {
				return []disttest.Fault{site.On(1, disttest.KillBefore)}
			}
		}
	}
	return nil
}

// TestDatalogRecoversWorker: a worker that dies in the middle of the
// fixpoint — at the recursive rule's second delta round — is replaced
// and replayed, so the program finishes with the fault-free answers
// and byte-identical round statistics, and reports the replacement.
func TestDatalogRecoversWorker(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	edges := randomEdges(rng, 20, 36)
	const p = 4
	ref, err := Eval(MustParse(tcProgram), edgeDB(20, edges), Options{P: p, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 2 {
		t.Fatalf("reference ran %d iterations; the kill point needs a second delta round", ref.Iterations)
	}
	// The program opens one session, the recursive rule's distribution —
	// the base rule costs no round — and it loses a worker.
	faulty := disttest.NewSchedule(killAtSecondDelta(t, MustParse(tcProgram), edgeDB(20, edges), p, 0)...)
	res, err := Eval(MustParse(tcProgram), edgeDB(20, edges), Options{
		P: p, Seed: 5, Dial: onSession(0, faulty), Recovery: dist.RecoveryOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Kills() != 1 {
		t.Fatalf("fault schedule fired %d kills", faulty.Kills())
	}
	if res.Replacements != 1 {
		t.Errorf("Replacements = %d, want 1", res.Replacements)
	}
	if !reflect.DeepEqual(res.Run.Tuples(), ref.Run.Tuples()) {
		t.Errorf("recovered run has %d answers, fault-free run %d", res.Run.Len(), ref.Run.Len())
	}
	if res.Iterations != ref.Iterations || !reflect.DeepEqual(res.Stats.Rounds, ref.Stats.Rounds) {
		t.Errorf("recovered run's record diverges:\n got %+v\nwant %+v", res.Stats.Rounds, ref.Stats.Rounds)
	}
}

// TestEvalDisjointPathsClosedForm: the closure of disjoint directed
// paths over shuffled labels is every ordered pair along a path — a
// closed form the fixpoint must hit exactly, in as many delta
// iterations as the paths are long — with labels small enough that
// every run is packed words and with labels past 2³², where the
// evaluator's known/Δ runs, the maintainers' answer runs and every
// delta scatter are on the flat layout; loopback ≡ TCP on both.
func TestEvalDisjointPathsClosedForm(t *testing.T) {
	const paths, edges, p = 30, 7, 4
	addrs := startPool(t, p)
	for _, offset := range []int{0, 1 << 33} {
		rng := rand.New(rand.NewPCG(77, uint64(offset)))
		label := rng.Perm(paths * (edges + 1))
		e := relation.New("e", "a", "b")
		var want []relation.Tuple
		for i := 0; i < paths; i++ {
			path := label[i*(edges+1) : (i+1)*(edges+1)]
			for j := 0; j < edges; j++ {
				e.Tuples = append(e.Tuples, relation.Tuple{path[j] + 1 + offset, path[j+1] + 1 + offset})
				for k := j + 1; k <= edges; k++ {
					want = append(want, relation.Tuple{path[j] + 1 + offset, path[k] + 1 + offset})
				}
			}
		}
		rng.Shuffle(len(e.Tuples), func(i, j int) { e.Tuples[i], e.Tuples[j] = e.Tuples[j], e.Tuples[i] })
		want = relation.DedupSort(want)
		db := relation.NewDatabase(len(label) + offset)
		db.AddRelation(e)

		lb, err := Eval(MustParse(tcProgram), db, Options{P: p, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lb.Run.Tuples(), want) {
			t.Fatalf("offset %d: closure has %d pairs, closed form %d", offset, lb.Run.Len(), len(want))
		}
		if !reflect.DeepEqual(lb.Facts["tc"].Tuples(), want) {
			t.Fatalf("offset %d: Facts[tc] diverges from Answers", offset)
		}
		// Iteration 0 (the maintainer's cold run) derives the 2-edge
		// pairs; the loop then runs once per further path length plus the
		// iteration that finds nothing new.
		if lb.Iterations != edges-1 {
			t.Errorf("offset %d: %d iterations, want %d", offset, lb.Iterations, edges-1)
		}
		tcp, err := Eval(MustParse(tcProgram), db, Options{P: p, Seed: 5, Dial: tcpDialer(addrs)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tcp.Run.Tuples(), lb.Run.Tuples()) || !reflect.DeepEqual(tcp.Stats.Rounds, lb.Stats.Rounds) {
			t.Errorf("offset %d: TCP diverges from loopback", offset)
		}
	}
}

// TestEvalMutualRecursion: odd/even path lengths through one SCC of
// two predicates, against a parity-BFS reference.
func TestEvalMutualRecursion(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	edges := randomEdges(rng, 16, 26)
	prog := MustParse(`
		odd(x, y) :- e(x, y).
		odd(x, z) :- even(x, y), e(y, z).
		even(x, z) :- odd(x, y), e(y, z).
		?- odd(x, y).
	`)
	res, err := Eval(prog, edgeDB(16, edges), Options{P: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: pair (x,y,parity) reachable by a path of length ≥ 1.
	type st struct{ x, y, par int }
	seen := map[st]bool{}
	for _, e := range edges {
		seen[st{e[0], e[1], 1}] = true
	}
	for {
		grew := false
		for s := range seen {
			for _, e := range edges {
				if e[0] != s.y {
					continue
				}
				n := st{s.x, e[1], 1 - s.par}
				if !seen[n] {
					seen[n] = true
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	wantOdd := map[[2]int]bool{}
	wantEven := map[[2]int]bool{}
	for s := range seen {
		if s.par == 1 {
			wantOdd[[2]int{s.x, s.y}] = true
		} else {
			wantEven[[2]int{s.x, s.y}] = true
		}
	}
	if got := pairsOf(res.Run.Tuples()); !reflect.DeepEqual(got, wantOdd) {
		t.Fatalf("odd: got %d pairs, want %d", len(got), len(wantOdd))
	}
	if got := pairsOf(res.Facts["even"].Tuples()); !reflect.DeepEqual(got, wantEven) {
		t.Fatalf("even: got %d pairs, want %d", len(got), len(wantEven))
	}
}

// TestEvalAggregate: a grouped aggregate rule equals the
// GroupAggregate reference over the deduplicated body answers.
func TestEvalAggregate(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 0))
	edges := randomEdges(rng, 12, 50)
	db := edgeDB(12, edges)
	res, err := Eval(MustParse(`
		deg(x, count(y), max(y)) :- e(x, y).
		?- deg(x, c, m).
	`), db, Options{P: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("e")
	want := relation.GroupAggregate(rel.Tuples, relation.GroupSpec{
		GroupBy: []int{0},
		Aggs: []relation.Aggregate{
			{Func: relation.AggCount, Col: 1},
			{Func: relation.AggMax, Col: 1},
		},
	})
	if !reflect.DeepEqual(res.Run.Tuples(), want) {
		t.Fatalf("aggregate diverges:\ngot  %v\nwant %v", res.Run.Tuples(), want)
	}
	if !reflect.DeepEqual(res.Vars, []string{"x", "c", "m"}) {
		t.Fatalf("vars = %v", res.Vars)
	}
}

// TestEvalStratified: an aggregate stratum reading a recursive
// stratum's output — count the nodes each node reaches.
func TestEvalStratified(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	edges := randomEdges(rng, 14, 22)
	res, err := Eval(MustParse(`
		tc(x, y) :- e(x, y).
		tc(x, z) :- tc(x, y), e(y, z).
		reaches(x, count(y)) :- tc(x, y).
		?- reaches(x, n).
	`), edgeDB(14, edges), Options{P: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for xy := range naiveTC(edges) {
		counts[xy[0]]++
	}
	want := map[[2]int]bool{}
	for x, c := range counts {
		want[[2]int{x, c}] = true
	}
	if got := pairsOf(res.Run.Tuples()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reach counts diverge:\ngot  %v\nwant %v", got, want)
	}
}

// TestEvalUnionRules: two rules for one non-recursive predicate union
// their facts.
func TestEvalUnionRules(t *testing.T) {
	r := relation.New("r", "a", "b")
	r.Tuples = []relation.Tuple{{1, 2}, {3, 4}}
	s := relation.New("s", "a", "b")
	s.Tuples = []relation.Tuple{{3, 4}, {5, 6}}
	db := relation.NewDatabase(8)
	db.AddRelation(r)
	db.AddRelation(s)
	res, err := Eval(MustParse(`
		u(x, y) :- r(x, y).
		u(x, y) :- s(x, y).
	`), db, Options{P: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{{1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(res.Run.Tuples(), want) {
		t.Fatalf("union = %v, want %v", res.Run.Tuples(), want)
	}
	if res.Iterations != 0 {
		t.Fatalf("non-recursive program reports %d iterations", res.Iterations)
	}
}

// TestEvalErrors: the EDB/IDB contract against the database.
func TestEvalErrors(t *testing.T) {
	prog := MustParse("p(x, y) :- e(x, y).")
	if _, err := Eval(prog, relation.NewDatabase(4), Options{P: 2}); err == nil {
		t.Fatal("missing EDB relation accepted")
	}
	db := edgeDB(4, [][2]int{{1, 2}})
	pRel := relation.New("p", "a", "b")
	db.AddRelation(pRel)
	if _, err := Eval(prog, db, Options{P: 2}); err == nil {
		t.Fatal("pre-populated IDB relation accepted")
	}
	tri := relation.New("e", "a", "b", "c")
	db2 := relation.NewDatabase(4)
	db2.AddRelation(tri)
	if _, err := Eval(prog, db2, Options{P: 2}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := Eval(prog, edgeDB(4, nil), Options{P: 0}); err == nil {
		t.Fatal("p = 0 accepted")
	}
}

// TestRuleCatalogIsItsRelations: a rule body is planned over the
// catalog of the view it reads — its own relations' summaries, each
// collected once and shared with the working database, and collected
// afresh for a relation install replaces — and nothing else the working
// database holds.
func TestRuleCatalogIsItsRelations(t *testing.T) {
	prog := MustParse(`
		a(x, y) :- e(x, y).
		b(x, y) :- f(x, y), a(y, x).
	`)
	e := &evaluator{prog: prog, wdb: relation.NewDatabase(9), facts: map[string]*relation.Run{}}
	for _, name := range []string{"e", "f"} {
		r := relation.New(name, "u", "v")
		r.Tuples = []relation.Tuple{{1, 2}, {1, 3}, {4, 2}}
		e.wdb.AddRelation(r)
	}
	catalog := func(ri int) *relation.Stats {
		q, err := prog.Rules[ri].BodyQuery()
		if err != nil {
			t.Fatal(err)
		}
		view, err := e.wdb.Bind(q)
		if err != nil {
			t.Fatal(err)
		}
		return view.Stats()
	}
	full := relation.CollectStats(e.wdb)
	cat := catalog(0)
	if !reflect.DeepEqual(cat.Relation("e"), full.Relation("e")) || len(cat.Relations) != 1 {
		t.Errorf("rule a's catalog = %+v, want e's summary alone, %+v", cat.Relations, full.Relation("e"))
	}
	if catalog(0).Relation("e") != cat.Relation("e") || e.wdb.Stats().Relation("e") != cat.Relation("e") {
		t.Error("e's summary was collected twice")
	}
	e.install("a", relation.RunOf(2, []relation.Tuple{{7, 7}}))
	first := catalog(1).Relation("a")
	e.install("a", relation.RunOf(2, []relation.Tuple{{7, 7}, {8, 8}}))
	if after := catalog(1).Relation("a"); after == first || after.Count != 2 || len(after.Cols) != 2 {
		t.Errorf("statistics of a replaced relation not recollected: %+v", after)
	}
	if after := catalog(0).Relation("e"); after != cat.Relation("e") {
		t.Errorf("an untouched relation was recollected: %+v", after)
	}
}

// TestRuleBodyPlannedOverItsRelations: L4 over four 2,000-tuple
// matchings at p = 16, ε = 0 gets the budget and engine plan.Build gives
// the body on its own four relations — 2·8000/16 = 1,000 tuples, the
// two-round multiround plan — whatever other rule and relation the
// program holds. A rule beside it that reads a 20,000-tuple relation
// and derives ~20,000 facts before it neither raises its budget nor
// moves it to one round.
func TestRuleBodyPlannedOverItsRelations(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewPCG(57, 57))
	db := relation.NewDatabase(n)
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		db.AddRelation(relation.Matching(rng, name, []string{"u", "v"}, n))
	}
	other := relation.New("big", "u", "v")
	for range 10 * n {
		other.Tuples = append(other.Tuples, relation.Tuple{rng.IntN(n) + 1, rng.IntN(n) + 1})
	}
	db.AddRelation(other)
	const l4 = "l4(a, b, c, d, e) :- s1(a, b), s2(b, c), s3(c, d), s4(d, e)."
	want := func() *plan.Plan {
		q, err := MustParse(l4).Rules[0].BodyQuery()
		if err != nil {
			t.Fatal(err)
		}
		view, err := db.Bind(q)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Build(q, relation.CollectStats(view), plan.Options{P: 16, Epsilon: new(big.Rat)})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}()
	if want.BudgetLoad != 1000 || want.Engine != plan.MultiRound {
		t.Fatalf("L4 alone plans budget %.0f on %s, want 1000 on the multiround plan", want.BudgetLoad, want.Engine)
	}
	for _, src := range []string{l4, "other(x, y) :- big(x, y), s1(y, z).\n" + l4 + "\n?- l4(a, b, c, d, e)."} {
		prog := MustParse(src)
		var got *plan.Plan
		opts := Options{P: 16, Epsilon: new(big.Rat), Seed: 3}
		opts.Plan = func(rule int, build func() (*plan.Plan, error)) (*plan.Plan, error) {
			pl, err := build()
			if err == nil && prog.Rules[rule].Head.Pred == "l4" {
				got = pl
			}
			return pl, err
		}
		if _, err := Eval(prog, db, opts); err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("%d rules: L4 was not planned", len(prog.Rules))
		}
		if got.BudgetLoad != want.BudgetLoad || got.Engine != want.Engine || got.Cost != want.Cost {
			t.Errorf("%d rules: L4 planned budget %.0f on %s, want %.0f on %s", len(prog.Rules), got.BudgetLoad, got.Engine, want.BudgetLoad, want.Engine)
		}
	}
}

// TestMaxIterationsIsPerStratum: Options.MaxIterations bounds each
// recursive stratum's loop on its own, while Result.Iterations stays the
// total. Two strata that each close a 6-edge path in 5 iterations fit
// under a bound of 6; the running total (10) does not.
func TestMaxIterationsIsPerStratum(t *testing.T) {
	var path [][2]int
	for v := 1; v <= 6; v++ {
		path = append(path, [2]int{v, v + 1})
	}
	prog := MustParse(`
		a(x, y) :- e(x, y).
		a(x, z) :- a(x, y), e(y, z).
		b(x, y) :- e(x, y).
		b(x, z) :- b(x, y), e(y, z).
		out(x, y) :- a(x, y), b(x, y).
	`)
	res, err := Eval(prog, edgeDB(7, path), Options{P: 4, Seed: 5, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 10 || res.Run.Len() != 21 {
		t.Errorf("%d iterations and %d answers, want 10 (5 per stratum) and 21", res.Iterations, res.Run.Len())
	}
	if _, err := Eval(prog, edgeDB(7, path), Options{P: 4, Seed: 5, MaxIterations: 4}); err == nil {
		t.Error("a stratum that needs 5 iterations ran under a bound of 4")
	}
}
