package localjoin

import (
	"sort"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the third algorithm: generic backtracking, tuple at a
// time. Nothing ships it; it is the reference the property tests hold
// the worker's evaluator and the hash-join oracle against, sharing
// neither's code.

// evaluator is one algorithm behind Evaluate's contract: answers in
// q.Vars() order, sorted and deduplicated.
type evaluator struct {
	name string
	eval func(q *query.Query, b Bindings) ([]relation.Tuple, error)
}

// evaluators are the three algorithms the tests compare: the two
// Evaluate ships and the backtracking reference.
var evaluators = []evaluator{
	{"hashjoin", func(q *query.Query, b Bindings) ([]relation.Tuple, error) { return Evaluate(q, b, HashJoin) }},
	{"backtracking", backtrack},
	{"default", func(q *query.Query, b Bindings) ([]relation.Tuple, error) { return Evaluate(q, b, Default) }},
}

// backtrack is evalBacktracking behind Evaluate's contract.
func backtrack(q *query.Query, b Bindings) ([]relation.Tuple, error) {
	for _, a := range q.Atoms {
		if _, ok := b[a.Name]; !ok {
			return nil, nil
		}
	}
	out, err := evalBacktracking(q, b)
	return relation.DedupSort(out), err
}

// evalBacktracking binds query variables one at a time. Variables are
// ordered so each new variable (after the first in its component)
// occurs in an atom with an already-bound variable; candidate values
// come from the smallest atom containing the variable, restricted by
// already-bound positions via hash indexes.
func evalBacktracking(q *query.Query, b Bindings) ([]relation.Tuple, error) {
	for _, a := range q.Atoms {
		for _, t := range b[a.Name] {
			if len(t) != a.Arity() {
				return nil, arityError(len(t), a)
			}
		}
	}
	vars := q.Vars()
	k := len(vars)
	order, _ := variableOrder(q, make([]int, 2*k))
	varOrder := make([]string, k)
	for d, i := range order {
		varOrder[d] = vars[i]
	}
	binding := make(map[string]int, k)
	var out []relation.Tuple

	// Index every atom's tuples by Tuple.Key for O(1) closed-atom
	// membership checks, and precompute at which depth each atom closes
	// (all its variables bound).
	index := make(map[string]map[string]bool, q.NumAtoms())
	for _, a := range q.Atoms {
		set := make(map[string]bool, len(b[a.Name]))
		for _, t := range b[a.Name] {
			set[t.Key()] = true
		}
		index[a.Name] = set
	}
	depthOf := make(map[string]int, k)
	for d, v := range varOrder {
		depthOf[v] = d
	}
	closesAt := make([][]int, k) // depth → atoms that close there
	for ai, a := range q.Atoms {
		maxDepth := 0
		for _, v := range a.Vars {
			if d := depthOf[v]; d > maxDepth {
				maxDepth = d
			}
		}
		closesAt[maxDepth] = append(closesAt[maxDepth], ai)
	}

	var assign func(depth int)
	assign = func(depth int) {
		if depth == k {
			row := make(relation.Tuple, k)
			for i, v := range vars {
				row[i] = binding[v]
			}
			out = append(out, row)
			return
		}
		v := varOrder[depth]
		for _, val := range candidates(q, b, v, binding) {
			binding[v] = val
			ok := true
			for _, ai := range closesAt[depth] {
				a := q.Atoms[ai]
				probe := make(relation.Tuple, a.Arity())
				for j, av := range a.Vars {
					probe[j] = binding[av]
				}
				if !index[a.Name][probe.Key()] {
					ok = false
					break
				}
			}
			if ok {
				assign(depth + 1)
			}
			delete(binding, v)
		}
	}
	assign(0)
	return out, nil
}

// candidates returns the possible values for variable v given the
// current partial binding: the v-values of tuples (in the smallest
// atom containing v) that agree with the binding.
func candidates(q *query.Query, b Bindings, v string, binding map[string]int) []int {
	atomIdxs := q.AtomsOf(v)
	best := atomIdxs[0]
	for _, ai := range atomIdxs[1:] {
		if len(b[q.Atoms[ai].Name]) < len(b[q.Atoms[best].Name]) {
			best = ai
		}
	}
	atom := q.Atoms[best]
	vals := make(map[int]bool)
	var out []int
	for _, t := range b[atom.Name] {
		ok := true
		var val int
		for j, av := range atom.Vars {
			if av == v {
				val = t[j]
			} else if bound, has := binding[av]; has && t[j] != bound {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Repeated occurrences of v inside the atom must agree.
		for j, av := range atom.Vars {
			if av == v && t[j] != val {
				ok = false
				break
			}
		}
		if ok && !vals[val] {
			vals[val] = true
			out = append(out, val)
		}
	}
	sort.Ints(out)
	return out
}
