// Package localjoin evaluates a full conjunctive query on data held
// in memory. It is used in two roles, by two independent algorithms:
// as the local computation every MPC worker performs on the runs it
// received (the paper gives the servers unlimited computational power,
// so any correct evaluator is faithful to the model), and as the
// single-node reference evaluator that supplies ground truth in tests
// and experiments.
//
// The worker's evaluator is EvaluateRuns: a worst-case-optimal multiway
// join (WCOJ, a leapfrog-triejoin-style evaluator over sorted trie
// iterators — see wcoj.go) whose input is the sealed columnar runs a
// worker store already holds and whose output is a sealed run, so no
// tuple is materialized between wire decode and gather encode
// (ARCHITECTURE.md, "Worker data path"). What it derives from a sealed
// run — the words in an atom's level order and their level-0 directory —
// the run remembers (relation.Run.Index), so joining the same runs again
// only probes.
// It is the only evaluator a
// worker has: on cyclic queries it avoids the super-linear pairwise
// intermediates of a hash join, and the model has no use for a choice
// (README.md, "The local join").
//
// Evaluate is the tuple API. Under Default it seals its tuples into
// runs and calls EvaluateRuns; under HashJoin it runs a pairwise
// hash-join pipeline in a connectivity-respecting atom order — the
// oracle behind core.GroundTruth, knowledge, witness and skew, kept an
// independent algorithm on purpose: ground truth that shared the
// worker's code would agree with its bugs. A third algorithm, generic
// backtracking, lives beside the tests that compare all three
// (backtracking_test.go).
package localjoin

import (
	"fmt"
	"slices"

	"repro/internal/query"
	"repro/internal/relation"
)

// Strategy selects the algorithm Evaluate runs.
type Strategy int

// Available strategies.
const (
	// Default is the worker's evaluator, the worst-case-optimal multiway
	// join of EvaluateRuns. It is the zero value.
	Default Strategy = iota
	// HashJoin joins atoms pairwise with hash indexes: the ground-truth
	// oracle.
	HashJoin
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Default:
		return "default"
	case HashJoin:
		return "hashjoin"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Bindings maps relation name → tuples available to the evaluator.
// Tuple positions correspond to the atom's variable positions.
type Bindings map[string][]relation.Tuple

// FromDatabase builds Bindings for q from a database, validating that
// every atom has a relation of matching arity.
func FromDatabase(q *query.Query, db *relation.Database) (Bindings, error) {
	b := make(Bindings, q.NumAtoms())
	for _, a := range q.Atoms {
		r, ok := db.Relation(a.Name)
		if !ok {
			return nil, fmt.Errorf("localjoin: database has no relation %s", a.Name)
		}
		if r.Arity() != a.Arity() {
			return nil, fmt.Errorf("localjoin: relation %s arity %d != atom arity %d",
				a.Name, r.Arity(), a.Arity())
		}
		b[a.Name] = r.Rows()
	}
	return b, nil
}

// Evaluate computes q over the bindings and returns the answer tuples
// in the variable order q.Vars(), deduplicated and in deterministic
// (sorted) order.
func Evaluate(q *query.Query, b Bindings, strategy Strategy) ([]relation.Tuple, error) {
	for _, a := range q.Atoms {
		if _, ok := b[a.Name]; !ok {
			// A missing relation is an empty relation: no answers.
			return nil, nil
		}
	}
	switch strategy {
	case Default:
		runs := make(Runs, len(q.Atoms))
		for _, a := range q.Atoms {
			for _, t := range b[a.Name] {
				if len(t) != a.Arity() {
					return nil, arityError(len(t), a)
				}
			}
			runs[a.Name] = []*relation.Run{relation.RunOf(a.Arity(), b[a.Name])}
		}
		run, err := EvaluateRuns(q, runs)
		return run.Tuples(), err
	case HashJoin:
		out, err := evalHashJoin(q, b)
		return relation.DedupSort(out), err
	default:
		return nil, fmt.Errorf("localjoin: unknown strategy %v", strategy)
	}
}

// Runs maps relation name → the sealed columnar runs holding its
// tuples, the form in which a worker store keeps what it received. Run
// arities correspond to the atoms' arities.
type Runs map[string][]*relation.Run

// atomOrder returns an ordering of atom indices in which every atom
// after the first within a component shares a variable with an
// earlier atom, and components are visited one after another.
func atomOrder(q *query.Query) []int {
	var order []int
	for _, comp := range q.Components() {
		placed := make(map[int]bool)
		vars := make(map[string]bool)
		remaining := append([]int(nil), comp...)
		for len(remaining) > 0 {
			chosen := -1
			for i, ai := range remaining {
				if len(placed) == 0 {
					chosen = i
					break
				}
				for _, v := range q.Atoms[ai].Vars {
					if vars[v] {
						chosen = i
						break
					}
				}
				if chosen >= 0 {
					break
				}
			}
			if chosen < 0 {
				chosen = 0 // disconnected within component cannot happen
			}
			ai := remaining[chosen]
			remaining = append(remaining[:chosen], remaining[chosen+1:]...)
			placed[ai] = true
			for _, v := range q.Atoms[ai].Vars {
				vars[v] = true
			}
			order = append(order, ai)
		}
	}
	return order
}

// evalHashJoin joins atoms pairwise along atomOrder, carrying an
// intermediate relation whose schema is the distinct variables seen so
// far, then projects onto q.Vars() order.
func evalHashJoin(q *query.Query, b Bindings) ([]relation.Tuple, error) {
	order := atomOrder(q)
	var acc *relation.Relation
	joined := false
	for _, ai := range order {
		atom := q.Atoms[ai]
		r, err := atomRelation(atom, b[atom.Name])
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = r
		} else {
			acc = relation.NaturalJoin(acc, r)
			joined = true
		}
		if len(acc.Tuples) == 0 {
			return nil, nil
		}
	}
	// Reorder columns to q.Vars().
	idx := make([]int, q.NumVars())
	identity := len(idx) == len(acc.Attrs)
	for i, v := range q.Vars() {
		j := acc.AttrIndex(v)
		if j < 0 {
			return nil, fmt.Errorf("localjoin: internal: variable %s missing from join result", v)
		}
		idx[i] = j
		if j != i {
			identity = false
		}
	}
	if identity {
		// The join emitted q.Vars() order already; skip the per-tuple
		// reorder copy. A single-atom acc may alias the caller's
		// bindings (atomRelation's share fast path), and the caller will
		// DedupSort the result in place — hand it a fresh header slice.
		if !joined {
			return append([]relation.Tuple(nil), acc.Tuples...), nil
		}
		return acc.Tuples, nil
	}
	out := make([]relation.Tuple, 0, len(acc.Tuples))
	for _, t := range acc.Tuples {
		row := make(relation.Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out = append(out, row)
	}
	return out, nil
}

// atomRelation converts an atom's tuples into a Relation whose schema
// is the atom's distinct variables; tuples with conflicting values for
// a repeated variable (e.g. S(x,x) with (1,2)) are filtered out. With
// no repeated variables the returned relation aliases tuples instead
// of copying — callers must then treat it (slice and rows) as
// read-only.
func atomRelation(atom query.Atom, tuples []relation.Tuple) (*relation.Relation, error) {
	r := relation.New(atom.Name, atom.DistinctVars()...)
	for _, t := range tuples {
		if len(t) != atom.Arity() {
			return nil, arityError(len(t), atom)
		}
	}
	pos, eq := splitRepeats(atom, nil)
	if len(eq) == 0 {
		// Every tuple passes unchanged, so share the binding's storage
		// instead of copying row by row (the join operators treat their
		// inputs as read-only).
		r.Tuples = tuples
		return r, nil
	}
	for _, t := range tuples {
		if slices.ContainsFunc(eq, func(e [2]int) bool { return t[e[0]] != t[e[1]] }) {
			continue // a repeated variable bound to two values
		}
		row := make(relation.Tuple, len(pos))
		for i, j := range pos {
			row[i] = t[j]
		}
		r.Tuples = append(r.Tuples, row)
	}
	return r, nil
}

// variableOrder returns the join's variable order — each prefix
// connected within its component, the components one after another, each
// in breadth-first order from its first variable — as indices into
// q.Vars(), and every variable's depth in that order, by index. They are
// buf[:k] and buf[k:2k], for k variables; it allocates nothing.
func variableOrder(q *query.Query, buf []int) (order, depth []int) {
	k := q.NumVars()
	order, depth = buf[:0:k], buf[k:2*k]
	for i := range depth {
		depth[i] = -1
	}
	for start := range k {
		if depth[start] >= 0 {
			continue
		}
		// The order so far is the queue: a variable is placed when it is
		// first reached, and its atoms' variables are reached from it.
		depth[start], order = len(order), append(order, start)
		for head := len(order) - 1; head < len(order); head++ {
			v := q.Vars()[order[head]]
			for _, a := range q.Atoms {
				if !slices.Contains(a.Vars, v) {
					continue
				}
				for _, w := range a.Vars {
					if i := q.VarIndex(w); depth[i] < 0 {
						depth[i], order = len(order), append(order, i)
					}
				}
			}
		}
	}
	return order, depth
}
