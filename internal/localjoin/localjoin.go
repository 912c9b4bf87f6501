// Package localjoin evaluates a full conjunctive query on data held
// in memory. It is used in two roles: as the local computation every
// MPC worker performs on the tuples it received (the paper gives the
// servers unlimited computational power, so any correct evaluator is
// faithful to the model), and as the single-node reference evaluator
// that supplies ground truth in tests and experiments.
//
// Three strategies are provided: a pairwise hash-join pipeline that
// joins atoms in a connectivity-respecting order, a generic
// backtracking (tuple-at-a-time) join, and a worst-case-optimal
// multiway join (WCOJ, a leapfrog-triejoin-style evaluator over sorted
// trie iterators — see wcoj.go). All return identical results; the
// benchmark suite compares their performance (README.md, "Local join
// strategies"). WCOJ is the package default: on cyclic queries it
// avoids the super-linear pairwise intermediates of the hash join and
// the per-candidate scans of backtracking.
//
// There are two entry points over one evaluator. EvaluateRuns is the
// worker's: its input is the sealed columnar runs a worker store
// already holds and its output a sealed run, so under WCOJ no tuple is
// materialized between wire decode and gather encode (ARCHITECTURE.md,
// "Worker data path"). Evaluate is the tuple API of the reference
// path, tests and benchmarks; under WCOJ it packs its tuples into
// columnar buffers and runs the same trie builder and leapfrog loop.
package localjoin

import (
	"fmt"
	"sort"

	"repro/internal/exchange"
	"repro/internal/query"
	"repro/internal/relation"
)

// Strategy selects the join algorithm.
type Strategy int

// Available strategies.
const (
	// Default selects the package default (currently WCOJ). It is the
	// zero value, so callers that leave a Strategy field unset get the
	// worst-case-optimal evaluator.
	Default Strategy = iota
	// HashJoin joins atoms pairwise with hash indexes.
	HashJoin
	// Backtracking binds variables one at a time, checking every atom
	// incrementally.
	Backtracking
	// WCOJ is the worst-case-optimal multiway join: sorted trie
	// iterators per atom, variable-at-a-time leapfrog intersection.
	WCOJ
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Default:
		return "default"
	case HashJoin:
		return "hashjoin"
	case Backtracking:
		return "backtracking"
	case WCOJ:
		return "wcoj"
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
		b[a.Name] = r.Tuples
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
	var out []relation.Tuple
	var err error
	switch strategy {
	case Default, WCOJ:
		inputs := make([][]*exchange.Buffer, len(q.Atoms))
		for i, a := range q.Atoms {
			buf, err := packTuples(a, b[a.Name])
			if err != nil {
				return nil, err
			}
			inputs[i] = []*exchange.Buffer{buf}
		}
		run, err := evalWCOJ(q, inputs)
		if err != nil || run == nil {
			return nil, err
		}
		return run.AppendTuples(nil), nil
	case HashJoin:
		out, err = evalHashJoin(q, b)
	case Backtracking:
		out, err = evalBacktracking(q, b)
	default:
		return nil, fmt.Errorf("localjoin: unknown strategy %v", strategy)
	}
	if err != nil {
		return nil, err
	}
	return relation.DedupSort(out), nil
}

// packTuples copies an atom's tuples into one unsealed columnar buffer
// — the form the trie builder consumes — checking their arity.
func packTuples(atom query.Atom, tuples []relation.Tuple) (*exchange.Buffer, error) {
	buf := exchange.NewBuffer(atom.Arity())
	buf.Grow(len(tuples))
	for _, t := range tuples {
		if len(t) != atom.Arity() {
			return nil, arityError(len(t), atom)
		}
		buf.Append(t)
	}
	return buf, nil
}

// Runs maps relation name → the sealed columnar runs holding its
// tuples, the form in which a worker store keeps what it received. Run
// arities correspond to the atoms' arities.
type Runs map[string][]*exchange.Buffer

// EvaluateRuns computes q over sealed runs and returns the answers —
// in the variable order q.Vars(), deduplicated — as one sealed run, or
// nil when there are none. A relation without runs is empty. The runs
// are only read: a WCOJ trie may alias a run's words, and the same
// runs can be joined again (or re-sent by a recovery journal) after
// the call. HashJoin and Backtracking work on tuples, materialized
// here once.
func EvaluateRuns(q *query.Query, runs Runs, strategy Strategy) (*exchange.Buffer, error) {
	switch strategy {
	case Default, WCOJ:
		inputs := make([][]*exchange.Buffer, len(q.Atoms))
		for i, a := range q.Atoms {
			inputs[i] = runs[a.Name]
		}
		return evalWCOJ(q, inputs)
	case HashJoin, Backtracking:
		b := make(Bindings, len(q.Atoms))
		for _, a := range q.Atoms {
			b[a.Name] = materialize(runs[a.Name])
		}
		rows, err := Evaluate(q, b, strategy)
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		out := exchange.NewBuffer(q.NumVars())
		out.Grow(len(rows))
		for _, t := range rows {
			out.Append(t)
		}
		out.Seal()
		return out, nil
	default:
		return nil, fmt.Errorf("localjoin: unknown strategy %v", strategy)
	}
}

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
	pos, eq := splitRepeats(atom)
	if len(eq) == 0 {
		// Every tuple passes unchanged, so share the binding's storage
		// instead of copying row by row (the join operators treat their
		// inputs as read-only).
		r.Tuples = tuples
		return r, nil
	}
	for _, t := range tuples {
		if !consistentRepeats(t, eq) {
			continue
		}
		row := make(relation.Tuple, len(pos))
		for i, j := range pos {
			row[i] = t[j]
		}
		r.Tuples = append(r.Tuples, row)
	}
	return r, nil
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
	varOrder := variableOrder(q)
	binding := make(map[string]int, k)
	var out []relation.Tuple

	// Index every atom's tuples by packed key for O(1) closed-atom
	// membership checks, and precompute at which depth each atom closes
	// (all its variables bound).
	index := make(map[string]*relation.TupleSet, q.NumAtoms())
	for _, a := range q.Atoms {
		set := relation.NewTupleSet(a.Arity(), len(b[a.Name]))
		for _, t := range b[a.Name] {
			set.Add(t)
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
				if !index[a.Name].Contains(probe) {
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

// variableOrder returns variables ordered to keep each prefix
// connected within its component.
func variableOrder(q *query.Query) []string {
	var order []string
	seen := make(map[string]bool)
	for _, comp := range q.Components() {
		// BFS over variables of this component.
		var queue []string
		for _, ai := range comp {
			for _, v := range q.Atoms[ai].Vars {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
					break
				}
			}
			break
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, ai := range q.AtomsOf(v) {
				for _, w := range q.Atoms[ai].Vars {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		// Pick up any stragglers of the component (shouldn't happen).
		for _, ai := range comp {
			for _, v := range q.Atoms[ai].Vars {
				if !seen[v] {
					seen[v] = true
					order = append(order, v)
				}
			}
		}
	}
	return order
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
