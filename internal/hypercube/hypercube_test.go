package hypercube

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
)

func TestSharesGrid(t *testing.T) {
	s := &Shares{Vars: []string{"x", "y", "z"}, Dims: []int{2, 3, 4}}
	if s.GridSize() != 24 {
		t.Errorf("GridSize = %d", s.GridSize())
	}
	if s.DimOf("y") != 1 || s.DimOf("nope") != -1 {
		t.Error("DimOf")
	}
	if s.String() == "" {
		t.Error("String should render")
	}
}

func TestComputeSharesC3(t *testing.T) {
	// C3 has exponents (1/3,1/3,1/3); with p = 64 the shares are 4,4,4.
	q := query.Triangle()
	s, err := SharesForQuery(q, 64, GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	if s.GridSize() > 64 {
		t.Fatalf("grid %d exceeds p", s.GridSize())
	}
	for i, d := range s.Dims {
		if d != 4 {
			t.Errorf("share %d = %d, want 4", i, d)
		}
	}
}

func TestComputeSharesStar(t *testing.T) {
	// T_k: hub gets everything (e_z = 1), spokes 1.
	q := query.Star(3)
	s, err := SharesForQuery(q, 32, GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	if s.GridSize() != 32 {
		t.Errorf("grid = %d, want 32", s.GridSize())
	}
	hub := s.DimOf("z")
	if s.Dims[hub] != 32 {
		t.Errorf("hub share = %d, want 32", s.Dims[hub])
	}
}

func TestComputeSharesGreedyBeatsFloor(t *testing.T) {
	// With p = 50 and C3, floor gives 3×3×3 = 27; greedy fills to ≤ 50.
	q := query.Triangle()
	floor, err := SharesForQuery(q, 50, FloorRounding)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := SharesForQuery(q, 50, GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	if floor.GridSize() > 50 || greedy.GridSize() > 50 {
		t.Fatal("budget exceeded")
	}
	if greedy.GridSize() < floor.GridSize() {
		t.Errorf("greedy grid %d < floor grid %d", greedy.GridSize(), floor.GridSize())
	}
}

func TestComputeSharesValidation(t *testing.T) {
	if _, err := ComputeShares([]string{"x"}, []float64{0.5, 0.5}, 4, GreedyRounding); err == nil {
		t.Error("want length mismatch error")
	}
	if _, err := ComputeShares([]string{"x"}, []float64{-1}, 4, GreedyRounding); err == nil {
		t.Error("want negative exponent error")
	}
	if _, err := ComputeShares([]string{"x"}, []float64{1}, 0, GreedyRounding); err == nil {
		t.Error("want budget error")
	}
}

func TestComputeSharesBudgetProperty(t *testing.T) {
	// For exponents summing to ≤ 1, the grid never exceeds the budget.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		k := 1 + rng.IntN(5)
		exps := make([]float64, k)
		vars := make([]string, k)
		rem := 1.0
		for i := range exps {
			vars[i] = string(rune('a' + i))
			e := rng.Float64() * rem
			exps[i] = e
			rem -= e
		}
		budget := 1 + rng.IntN(2048)
		s, err := ComputeShares(vars, exps, budget, GreedyRounding)
		if err != nil {
			return false
		}
		if s.GridSize() > budget {
			return false
		}
		for _, d := range s.Dims {
			if d < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHasherDeterministicAndInRange(t *testing.T) {
	s := &Shares{Vars: []string{"x", "y"}, Dims: []int{5, 7}}
	h1 := NewHasher(s, 99)
	h2 := NewHasher(s, 99)
	h3 := NewHasher(s, 100)
	differs := false
	for v := 1; v <= 200; v++ {
		for d := 0; d < 2; d++ {
			c := h1.Coord(d, v)
			if c < 0 || c >= s.Dims[d] {
				t.Fatalf("coord out of range: %d", c)
			}
			if c != h2.Coord(d, v) {
				t.Fatal("same seed must agree")
			}
			if c != h3.Coord(d, v) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("different seeds should differ somewhere")
	}
	// Dimension with share 1 always maps to 0.
	s1 := &Shares{Vars: []string{"x"}, Dims: []int{1}}
	h := NewHasher(s1, 1)
	if h.Coord(0, 12345) != 0 {
		t.Error("share-1 dimension must map to 0")
	}
}

func TestDestinationsReplication(t *testing.T) {
	// C3 on a 4×4×4 grid: a tuple of S1(x1,x2) fixes dims 0,1 and is
	// replicated along dim 2 → exactly 4 destinations.
	q := query.Triangle()
	s := &Shares{Vars: q.Vars(), Dims: []int{4, 4, 4}}
	h := NewHasher(s, 7)
	dsts := NewGridPartitioner(s, h, q.Atoms[0]).Route(0, relation.Tuple{10, 20}, nil)
	if len(dsts) != 4 {
		t.Fatalf("destinations = %v, want 4", dsts)
	}
	seen := map[int]bool{}
	for _, d := range dsts {
		if d < 0 || d >= 64 || seen[d] {
			t.Fatalf("bad destination set %v", dsts)
		}
		seen[d] = true
	}
}

func TestDestinationsAnswerCoverage(t *testing.T) {
	// The server of (h1(a1),h2(a2),h3(a3)) must be a destination of all
	// three tuples forming that answer (Example 3.1's invariant).
	q := query.Triangle()
	s := &Shares{Vars: q.Vars(), Dims: []int{3, 4, 5}}
	h := NewHasher(s, 11)
	a1, a2, a3 := 17, 42, 99
	target := gridPoint(s, []int{h.Coord(0, a1), h.Coord(1, a2), h.Coord(2, a3)})
	tuples := []struct {
		atom query.Atom
		t    relation.Tuple
	}{
		{q.Atoms[0], relation.Tuple{a1, a2}},
		{q.Atoms[1], relation.Tuple{a2, a3}},
		{q.Atoms[2], relation.Tuple{a3, a1}},
	}
	for _, tc := range tuples {
		found := false
		for _, d := range NewGridPartitioner(s, h, tc.atom).Route(0, tc.t, nil) {
			if d == target {
				found = true
			}
		}
		if !found {
			t.Errorf("tuple %v of %s does not reach answer server %d", tc.t, tc.atom.Name, target)
		}
	}
}

func TestRunTriangleComplete(t *testing.T) {
	// HC at the query's space exponent must find every answer.
	rng := rand.New(rand.NewPCG(3, 3))
	q := query.Triangle()
	n := 200
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	res, err := Run(q, db, 64, Options{
		Epsilon:     1.0 / 3.0,
		CapConstant: 0, // measure only
		Seed:        12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, res.Answers.Tuples(), truth)
	if res.Stats.NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1", res.Stats.NumRounds())
	}
}

func TestRunChainComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, k := range []int{2, 3, 4} {
		q := query.Chain(k)
		n := 150
		db := relation.MatchingDatabase(rng, q, n)
		truth := groundTruth(t, q, db)
		res, err := Run(q, db, 16, Options{Seed: 5})
		if err != nil {
			t.Fatalf("L%d: %v", k, err)
		}
		assertSameTuples(t, res.Answers.Tuples(), truth)
		if res.Answers.Len() != n {
			t.Errorf("L%d: %d answers, want %d", k, res.Answers.Len(), n)
		}
	}
}

func TestRunStarComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	q := query.Star(3)
	n := 100
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	res, err := Run(q, db, 8, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, res.Answers.Tuples(), truth)
}

func TestRunLoadWithinBound(t *testing.T) {
	// Proposition 3.2: max tuples received per server = O(n/p^{1/τ*}).
	rng := rand.New(rand.NewPCG(6, 6))
	q := query.Triangle()
	n := 3000
	db := relation.MatchingDatabase(rng, q, n)
	p := 64
	res, err := Run(q, db, p, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bound := TheoreticalLoad(n, p, 1.5) // n/p^{2/3} per relation
	// Three relations, and constant slack for hashing variance.
	limit := 3 * bound * 2.5
	if got := float64(res.Stats.MaxLoadTuples()); got > limit {
		t.Errorf("max load %v exceeds %v (3 relations × bound %v × slack)", got, limit, bound)
	}
}

func TestRunMissingRelation(t *testing.T) {
	q := query.Triangle()
	db := relation.NewDatabase(10)
	if _, err := Run(q, db, 8, Options{}); err == nil {
		t.Fatal("want error for missing relation")
	}
}

func TestRunWithSharesGridTooLarge(t *testing.T) {
	q := query.Chain(2)
	db := relation.IdentityDatabase(q, 4)
	s := &Shares{Vars: q.Vars(), Dims: []int{4, 4, 4}}
	if _, err := RunWithShares(q, db, 8, s, Options{}); err == nil {
		t.Fatal("want error: grid larger than p")
	}
}

func TestRunSampledFraction(t *testing.T) {
	// Proposition 3.11 / Theorem 3.3: with ε below the space exponent,
	// the found fraction ≈ p^{1−(1−ε)τ*}. For C3 with ε = 0, τ* = 3/2:
	// fraction ≈ p^{-1/2}.
	rng := rand.New(rand.NewPCG(7, 7))
	q := query.Triangle()
	n := 4000
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	if len(truth) == 0 {
		t.Skip("random matching db produced no triangles (expected ~1); reseed")
	}
	p := 64
	res, err := RunSampled(q, db, p, Options{Epsilon: 0, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Every reported answer must be a true answer.
	truthKeys := map[string]bool{}
	for _, tp := range truth {
		truthKeys[tp.Key()] = true
	}
	for _, tp := range res.Answers.Tuples() {
		if !truthKeys[tp.Key()] {
			t.Errorf("sampled run reported false answer %v", tp)
		}
	}
	if res.GridPoints != p {
		t.Errorf("grid points = %d, want %d", res.GridPoints, p)
	}
}

func TestRunSampledSmallGrid(t *testing.T) {
	// When the virtual grid is ≤ p (tiny query), sampling materializes
	// everything and finds all answers.
	rng := rand.New(rand.NewPCG(8, 8))
	q := query.Chain(2)
	n := 100
	db := relation.MatchingDatabase(rng, q, n)
	truth := groundTruth(t, q, db)
	res, err := RunSampled(q, db, 64, Options{Epsilon: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, res.Answers.Tuples(), truth)
}

func TestTheoreticalLoad(t *testing.T) {
	if got := TheoreticalLoad(1000, 64, 1.5); math.Abs(got-1000/16.0) > 1e-9 {
		t.Errorf("TheoreticalLoad = %v, want 62.5", got)
	}
}

func groundTruth(t *testing.T, q *query.Query, db *relation.Database) []relation.Tuple {
	t.Helper()
	b, err := localjoin.FromDatabase(q, db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := localjoin.Evaluate(q, b, localjoin.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameTuples(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestGridPartitionerKey: the key is a complete description of the
// routing function — it changes with the seed, the shares and the
// position → dimension bindings, not with variable names — and a sampled
// grid has none.
func TestGridPartitionerKey(t *testing.T) {
	q := query.Triangle()
	shares := &Shares{Vars: q.Vars(), Dims: []int{3, 2, 2}}
	key := func(s *Shares, seed uint64, a query.Atom) string {
		return NewGridPartitioner(s, NewHasher(s, seed), a).Key()
	}
	base := key(shares, 7, q.Atoms[0])
	if base == "" || base != key(shares, 7, q.Atoms[0]) {
		t.Fatalf("key %q is empty or not reproducible", base)
	}
	renamed := &Shares{Vars: []string{"a", "b", "c"}, Dims: []int{3, 2, 2}}
	if got := key(renamed, 7, query.Atom{Name: "T", Vars: []string{"a", "b"}}); got != base {
		t.Errorf("renaming variables changed the key:\n%s\n%s", got, base)
	}
	for name, other := range map[string]string{
		"seed":     key(shares, 8, q.Atoms[0]),
		"shares":   key(&Shares{Vars: q.Vars(), Dims: []int{2, 3, 2}}, 7, q.Atoms[0]),
		"bindings": key(shares, 7, q.Atoms[1]),
		"repeated": key(shares, 7, query.Atom{Name: "R", Vars: []string{q.Vars()[0], q.Vars()[0]}}),
	} {
		if other == "" || other == base {
			t.Errorf("another %s, same key %q", name, other)
		}
	}
	part := NewGridPartitioner(shares, NewHasher(shares, 7), q.Atoms[0])
	if got := part.PerDestination(1200); got != 1200*part.Fanout()/shares.GridSize() {
		t.Errorf("PerDestination(1200) = %d with fanout %d on %d points", got, part.Fanout(), shares.GridSize())
	}
	if part.WithSample(map[int]int{0: 0}); part.Key() != "" || part.PerDestination(1200) != 0 {
		t.Error("a sampled grid describes itself")
	}
}
