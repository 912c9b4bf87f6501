package cc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func labelsAgree(t *testing.T, got, want map[int]int, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labeled vertices, want %d", context, len(got), len(want))
	}
	for v, l := range want {
		if got[v] != l {
			t.Fatalf("%s: label(%d) = %d, want %d", context, v, got[v], l)
		}
	}
}

func TestLayeredStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g, err := Layered(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 50 || g.NumEdges() != 40 {
		t.Fatalf("N=%d edges=%d, want 50, 40", g.N, g.NumEdges())
	}
	labels := SequentialComponents(g)
	comps := map[int]int{}
	for _, l := range labels {
		comps[l]++
	}
	if len(comps) != 10 {
		t.Errorf("components = %d, want 10 (one per path)", len(comps))
	}
	for l, size := range comps {
		if size != 5 {
			t.Errorf("component %d has %d vertices, want 5", l, size)
		}
	}
	if _, err := Layered(rng, 0, 5); err == nil {
		t.Error("want error for 0 layers")
	}
}

func TestRandomSparse(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g, err := RandomSparse(rng, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 50 || g.NumEdges() != 60 {
		t.Fatalf("N=%d m=%d", g.N, g.NumEdges())
	}
	for _, e := range g.Edges {
		if e[0] == e[1] {
			t.Error("self loop generated")
		}
	}
	if _, err := RandomSparse(rng, 1, 5); err == nil {
		t.Error("want error for n=1")
	}
}

func TestSequentialComponentsSmall(t *testing.T) {
	g := &Graph{N: 6, Edges: [][2]int{{1, 2}, {2, 3}, {5, 6}}}
	labels := SequentialComponents(g)
	want := map[int]int{1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 5}
	labelsAgree(t, labels, want, "sequential")
}

func TestEdgeRelationBothDirections(t *testing.T) {
	g := &Graph{N: 3, Edges: [][2]int{{1, 2}}}
	r := g.EdgeRelation()
	if r.Size() != 2 {
		t.Fatalf("edge relation size = %d, want 2", r.Size())
	}
}

func TestNeighborMinCorrect(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g, err := Layered(rng, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialComponents(g)
	res, err := Run(g, NeighborMin, Options{Workers: 4, Epsilon: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	labelsAgree(t, res.Labels, want, "neighbor-min")
	// Path diameter is 6: needs about 6 propagation rounds + setup.
	if res.Stats.NumRounds() < 6 {
		t.Errorf("neighbor-min rounds = %d; expected ≥ diameter 6", res.Stats.NumRounds())
	}
}

func TestHashToMinCorrect(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	g, err := Layered(rng, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialComponents(g)
	res, err := Run(g, HashToMin, Options{Workers: 4, Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	labelsAgree(t, res.Labels, want, "hash-to-min")
}

// TestHashToMinFewerRounds: on long paths hash-to-min converges in
// logarithmically many rounds while neighbor-min needs linearly many.
func TestHashToMinFewerRounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g, err := Layered(rng, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialComponents(g)
	nm, err := Run(g, NeighborMin, Options{Workers: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	h2m, err := Run(g, HashToMin, Options{Workers: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	labelsAgree(t, nm.Labels, want, "neighbor-min")
	labelsAgree(t, h2m.Labels, want, "hash-to-min")
	if h2m.Stats.NumRounds() >= nm.Stats.NumRounds() {
		t.Errorf("hash-to-min rounds %d should beat neighbor-min %d on diameter-32 paths",
			h2m.Stats.NumRounds(), nm.Stats.NumRounds())
	}
	if nm.Stats.NumRounds() < 32 {
		t.Errorf("neighbor-min rounds = %d, want ≥ diameter 32", nm.Stats.NumRounds())
	}
	if h2m.Stats.NumRounds() > 16 {
		t.Errorf("hash-to-min rounds = %d, want ≈ log2(32)+O(1)", h2m.Stats.NumRounds())
	}
}

func TestDenseTwoRound(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	g, err := RandomSparse(rng, 60, 90)
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialComponents(g)
	res, err := DenseTwoRound(g, Options{Workers: 8, Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	labelsAgree(t, res.Labels, want, "dense")
	if res.Stats.NumRounds() != 2 {
		t.Errorf("dense rounds = %d, want exactly 2", res.Stats.NumRounds())
	}
}

// TestRoundsGrowWithLayers: neighbor-min round counts grow linearly in
// the number of layers — the Ω(log p) phenomenon of Theorem 4.10 shown
// on its input family (k = p^δ layers ⇒ rounds ≥ k ≥ log p).
func TestRoundsGrowWithLayers(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	prev := 0
	for _, layers := range []int{4, 8, 16} {
		g, err := Layered(rng, layers, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, NeighborMin, Options{Workers: 4, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.NumRounds() <= prev {
			t.Errorf("rounds did not grow: layers=%d rounds=%d (prev %d)", layers, res.Stats.NumRounds(), prev)
		}
		prev = res.Stats.NumRounds()
	}
}

// TestAlgorithmsAgreeProperty: both MPC algorithms match the
// sequential ground truth on random sparse graphs.
func TestAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		n := 10 + rng.IntN(40)
		m := rng.IntN(2 * n)
		g, err := RandomSparse(rng, n, m)
		if err != nil {
			return false
		}
		want := SequentialComponents(g)
		for _, algo := range []Algorithm{NeighborMin, HashToMin} {
			res, err := Run(g, algo, Options{Workers: 1 + rng.IntN(6), Seed: seed})
			if err != nil {
				return false
			}
			// Isolated vertices never appear in the edge relation; MPC
			// algorithms only label vertices incident to edges.
			for v, l := range res.Labels {
				if want[v] != l {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	g := &Graph{N: 2, Edges: [][2]int{{1, 2}}}
	if _, err := Run(g, NeighborMin, Options{Workers: 0}); err == nil {
		t.Error("want error for 0 workers")
	}
	if _, err := Run(g, Algorithm(9), Options{Workers: 2}); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if NeighborMin.String() != "neighbor-min" || HashToMin.String() != "hash-to-min" {
		t.Error("Algorithm.String")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown Algorithm should render")
	}
}

func TestCapViolationReported(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	g, err := Layered(rng, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	// ε = 0 with tiny constant: sending everything trips the budget but
	// the run still completes and reports it.
	res, err := Run(g, NeighborMin, Options{Workers: 2, Epsilon: 0, CapConstant: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CapExceeded {
		t.Error("expected cap violation to be reported")
	}
}
