package hypercube

import (
	"testing"

	"repro/internal/query"
)

func TestCommunicationCost(t *testing.T) {
	q := query.Triangle()
	s := &Shares{Vars: q.Vars(), Dims: []int{4, 4, 4}}
	sizes := map[string]int{"S1": 100, "S2": 100, "S3": 100}
	// Each binary atom misses one dimension of share 4 → replication 4.
	cost, err := CommunicationCost(q, s, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3*100*4 {
		t.Errorf("cost = %d, want 1200", cost)
	}
	if _, err := CommunicationCost(q, s, map[string]int{}); err == nil {
		t.Error("want error for missing sizes")
	}
}

func TestOptimalSharesUniformMatchesCover(t *testing.T) {
	// With equal sizes, the exhaustive optimum's cost must not exceed
	// the vertex-cover shares' cost (it is the optimum, after all).
	q := query.Triangle()
	sizes := map[string]int{"S1": 1000, "S2": 1000, "S3": 1000}
	p := 64
	opt, err := OptimalSharesForSizes(q, sizes, p)
	if err != nil {
		t.Fatal(err)
	}
	coverShares, err := SharesForQuery(q, p, GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := CommunicationCost(q, opt, sizes)
	if err != nil {
		t.Fatal(err)
	}
	coverCost, err := CommunicationCost(q, coverShares, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if optCost > coverCost {
		t.Errorf("exhaustive optimum %d worse than cover shares %d", optCost, coverCost)
	}
	// For C3 at p=64 the symmetric 4×4×4 is optimal: cost 3·1000·4.
	if optCost != 12000 {
		t.Errorf("optimal C3 cost = %d, want 12000", optCost)
	}
}

func TestOptimalSharesSkewedSizes(t *testing.T) {
	// Cartesian product with |R| = 100 ≪ |S| = 10000: the optimum
	// replicates the small relation more (large d_y) and keeps the big
	// one nearly unreplicated, beating the symmetric √p × √p split.
	q := query.CartesianPair()
	sizes := map[string]int{"R": 100, "S": 10000}
	p := 64
	opt, err := OptimalSharesForSizes(q, sizes, p)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := CommunicationCost(q, opt, sizes)
	if err != nil {
		t.Fatal(err)
	}
	sym := &Shares{Vars: q.Vars(), Dims: []int{8, 8}}
	symCost, err := CommunicationCost(q, sym, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if optCost >= symCost {
		t.Errorf("size-aware optimum %d should beat symmetric %d", optCost, symCost)
	}
	dx := opt.Dims[q.VarIndex("x")]
	dy := opt.Dims[q.VarIndex("y")]
	if dy <= dx {
		t.Errorf("expected d_y > d_x for small R (got d_x=%d d_y=%d)", dx, dy)
	}
}

func TestOptimalSharesValidation(t *testing.T) {
	q := query.Triangle()
	if _, err := OptimalSharesForSizes(q, map[string]int{}, 8); err == nil {
		t.Error("want error for missing sizes")
	}
	sizes := map[string]int{"S1": 1, "S2": 1, "S3": 1}
	if _, err := OptimalSharesForSizes(q, sizes, 0); err == nil {
		t.Error("want error for p=0")
	}
	big := query.Binom(11, 2) // 11 variables
	bigSizes := map[string]int{}
	for _, a := range big.Atoms {
		bigSizes[a.Name] = 1
	}
	if _, err := OptimalSharesForSizes(big, bigSizes, 4); err == nil {
		t.Error("want error for too many variables")
	}
}

// TestOptimalSharesChain: for L2 = S1(x0,x1), S2(x1,x2) all budget
// should go to the shared variable x1 — no replication at all.
func TestOptimalSharesChain(t *testing.T) {
	q := query.Chain(2)
	sizes := map[string]int{"S1": 5000, "S2": 5000}
	opt, err := OptimalSharesForSizes(q, sizes, 32)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := CommunicationCost(q, opt, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 10000 {
		t.Errorf("L2 optimal cost = %d, want 10000 (zero replication)", cost)
	}
	if opt.Dims[q.VarIndex("x0")] != 1 || opt.Dims[q.VarIndex("x2")] != 1 {
		t.Errorf("endpoints should have share 1: %s", opt)
	}
}
