package hypercube

import (
	"fmt"

	"repro/internal/query"
)

// This file implements size-aware share optimization in the style of
// Afrati & Ullman ("Optimizing joins in a map-reduce environment",
// EDBT 2010), which the paper credits as a source of the share idea
// (Section 3.1). The vertex-cover shares of SharesForQuery are optimal
// for matching databases, where all relations have the same
// cardinality n; when cardinalities differ, the communication-optimal
// shares solve
//
//	minimize   Σ_j |S_j| · Π_{i: x_i ∉ vars(S_j)} p_i
//	subject to Π_i p_i = p,  p_i ≥ 1 integer,
//
// i.e. each tuple of S_j is replicated along the dimensions S_j does
// not mention, and all p servers are used (with Π ≤ p the cost-only
// objective degenerates to the all-ones vector — a single working
// server). For the paper's constant-size queries the integer program
// is solved exactly by bounded enumeration; when p factorizes poorly
// (e.g. prime p) the equality constraint forces asymmetric vectors,
// which is inherent, not a solver artifact.

// CommunicationCost returns the total number of tuple copies the
// HyperCube shuffle sends for the given shares and relation sizes
// (sizes keyed by relation name).
func CommunicationCost(q *query.Query, s *Shares, sizes map[string]int) (int64, error) {
	var total int64
	for _, a := range q.Atoms {
		size, ok := sizes[a.Name]
		if !ok {
			return 0, fmt.Errorf("hypercube: no size for relation %s", a.Name)
		}
		repl := int64(1)
		mentioned := make(map[int]bool, len(a.Vars))
		for _, v := range a.Vars {
			d := s.DimOf(v)
			if d >= 0 {
				mentioned[d] = true
			}
		}
		for d, dim := range s.Dims {
			if !mentioned[d] {
				repl *= int64(dim)
			}
		}
		total += int64(size) * repl
	}
	return total, nil
}

// enumLimit bounds the number of share vectors OptimalSharesForSizes
// examines; beyond it the query/p combination is rejected rather than
// silently truncated.
const enumLimit = 5_000_000

// OptimalSharesForSizes finds integer shares minimizing the total
// communication for the given relation cardinalities by exhaustive
// enumeration over share vectors with product exactly p. Ties are
// broken toward the lexicographically smallest vector, so results are
// deterministic.
func OptimalSharesForSizes(q *query.Query, sizes map[string]int, p int) (*Shares, error) {
	if p < 1 {
		return nil, fmt.Errorf("hypercube: p = %d", p)
	}
	k := q.NumVars()
	if k > 10 {
		return nil, fmt.Errorf("hypercube: %d variables is too many for exhaustive share search", k)
	}
	for _, a := range q.Atoms {
		if _, ok := sizes[a.Name]; !ok {
			return nil, fmt.Errorf("hypercube: no size for relation %s", a.Name)
		}
	}
	// (1,…,1,p) always satisfies the equality constraint.
	best := &Shares{Vars: append([]string(nil), q.Vars()...), Dims: make([]int, k)}
	for i := range best.Dims {
		best.Dims[i] = 1
	}
	best.Dims[k-1] = p
	bestCost, err := CommunicationCost(q, best, sizes)
	if err != nil {
		return nil, err
	}
	cur := &Shares{Vars: best.Vars, Dims: make([]int, k)}
	examined := 0
	var rec func(dim, product int) error
	rec = func(dim, product int) error {
		if examined > enumLimit {
			return fmt.Errorf("hypercube: share search space too large (> %d vectors)", enumLimit)
		}
		if dim == k-1 {
			// The last dimension is forced: it must bring the product
			// to exactly p.
			if p%product != 0 {
				return nil
			}
			examined++
			cur.Dims[dim] = p / product
			cost, err := CommunicationCost(q, cur, sizes)
			if err != nil {
				return err
			}
			if cost < bestCost {
				bestCost = cost
				copy(best.Dims, cur.Dims)
			}
			return nil
		}
		for d := 1; product*d <= p; d++ {
			if p%(product*d) != 0 {
				continue // d must divide into a completion of p
			}
			cur.Dims[dim] = d
			if err := rec(dim+1, product*d); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 1); err != nil {
		return nil, err
	}
	out := &Shares{Vars: best.Vars, Dims: append([]int(nil), best.Dims...)}
	return out, nil
}
