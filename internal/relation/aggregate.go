package relation

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the grouped-aggregation layer of the data model:
// COUNT/SUM/MIN/MAX folded over a *set* of tuples, grouped by a subset
// of columns. Whatever engine ran, its answer is one gathered, sealed,
// deduplicated run; the planner folds that run once (Fold), reading it
// through one reused tuple into an Accumulator that holds one row per
// group.

// AggFunc identifies an aggregate function.
type AggFunc uint8

// The supported aggregate functions. Aggregation is over set
// semantics: the input stream is the deduplicated answer set, so COUNT
// counts distinct tuples per group.
const (
	AggCount AggFunc = iota + 1
	AggSum
	AggMin
	AggMax
)

// String renders the function in the Datalog front end's spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// ParseAggFunc reads an aggregate function name ("count", "sum",
// "min", "max").
func ParseAggFunc(s string) (AggFunc, bool) {
	switch s {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	default:
		return 0, false
	}
}

// Aggregate is one aggregate term: a function applied to input column
// Col. For AggCount the column identifies which variable is being
// counted but does not change the value (the input is a set, so the
// count per group is the number of distinct tuples).
type Aggregate struct {
	// Func is the aggregate function.
	Func AggFunc
	// Col is the input column the function reads.
	Col int
}

// GroupSpec describes one grouped aggregation over tuples of a fixed
// arity: group by the GroupBy columns (in order), compute each
// Aggregate within the group. Output tuples are the group-by values
// followed by the aggregate values, sorted by group key; with an empty
// GroupBy the output is a single global row (or no row on empty
// input).
type GroupSpec struct {
	// GroupBy lists the grouping columns, in output order.
	GroupBy []int
	// Aggs lists the aggregate terms, in output order after the keys.
	Aggs []Aggregate
}

// OutArity returns the arity of the aggregated output tuples.
func (s GroupSpec) OutArity() int { return len(s.GroupBy) + len(s.Aggs) }

// Validate checks the spec against the input arity.
func (s GroupSpec) Validate(arity int) error {
	if len(s.Aggs) == 0 {
		return fmt.Errorf("relation: aggregation needs at least one aggregate term")
	}
	seen := make(map[int]bool, len(s.GroupBy))
	for _, c := range s.GroupBy {
		if c < 0 || c >= arity {
			return fmt.Errorf("relation: group-by column %d outside arity %d", c, arity)
		}
		if seen[c] {
			return fmt.Errorf("relation: duplicate group-by column %d", c)
		}
		seen[c] = true
	}
	for _, a := range s.Aggs {
		switch a.Func {
		case AggCount, AggSum, AggMin, AggMax:
		default:
			return fmt.Errorf("relation: unknown aggregate function %v", a.Func)
		}
		if a.Col < 0 || a.Col >= arity {
			return fmt.Errorf("relation: aggregate column %d outside arity %d", a.Col, arity)
		}
	}
	return nil
}

// String renders the spec compactly, e.g. "group by [0 2]: count(1), sum(3)".
func (s GroupSpec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "group by %v: ", s.GroupBy)
	for i, a := range s.Aggs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s(%d)", a.Func, a.Col)
	}
	return sb.String()
}

// accGroup is one group's accumulator state: the key values plus one
// running value per aggregate term.
type accGroup struct {
	key  Tuple
	vals []int
}

// Accumulator folds a stream of tuples into grouped aggregates. Add
// does not retain its argument, so callers may reuse one scratch tuple
// across calls — the property Fold relies on.
type Accumulator struct {
	spec   GroupSpec
	groups map[string]*accGroup
	keyBuf []byte
}

// NewAccumulator returns an empty accumulator for the spec. The spec
// must already be validated against the input arity.
func NewAccumulator(spec GroupSpec) *Accumulator {
	return &Accumulator{spec: spec, groups: make(map[string]*accGroup)}
}

// Add folds one input tuple.
func (a *Accumulator) Add(t Tuple) {
	a.keyBuf = a.keyBuf[:0]
	for _, c := range a.spec.GroupBy {
		v := t[c]
		a.keyBuf = append(a.keyBuf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	g, ok := a.groups[string(a.keyBuf)]
	if !ok {
		g = &accGroup{key: make(Tuple, len(a.spec.GroupBy)), vals: make([]int, len(a.spec.Aggs))}
		for i, c := range a.spec.GroupBy {
			g.key[i] = t[c]
		}
		for i, agg := range a.spec.Aggs {
			switch agg.Func {
			case AggCount:
				g.vals[i] = 1
			default:
				g.vals[i] = t[agg.Col]
			}
		}
		a.groups[string(a.keyBuf)] = g
		return
	}
	for i, agg := range a.spec.Aggs {
		v := t[agg.Col]
		switch agg.Func {
		case AggCount:
			g.vals[i]++
		case AggSum:
			g.vals[i] += v
		case AggMin:
			if v < g.vals[i] {
				g.vals[i] = v
			}
		case AggMax:
			if v > g.vals[i] {
				g.vals[i] = v
			}
		}
	}
}

// Result returns the aggregated output as one sealed run: one row per
// group — group-by values then aggregate values — in lexicographic
// order. On empty input it returns nil (no groups, even for a global
// aggregate).
func (a *Accumulator) Result() *Run {
	if len(a.groups) == 0 {
		return nil
	}
	out := NewRun(a.spec.OutArity())
	out.Grow(len(a.groups))
	row := make(Tuple, 0, a.spec.OutArity())
	for _, g := range a.groups {
		out.Append(append(append(row[:0], g.key...), g.vals...))
	}
	out.Seal()
	return out
}

// Fold folds an answer run — sealed and deduplicated, so COUNT counts
// distinct tuples — into the spec's grouped aggregates, reading it one
// reused tuple at a time. It is the one fold of an execution: the
// planner applies it to whatever run the engine gathered.
func Fold(run *Run, spec GroupSpec) *Run {
	acc := NewAccumulator(spec)
	run.Each(acc.Add)
	return acc.Result()
}

// GroupAggregate folds a materialized tuple set in one call — the
// single-node reference Fold is differential-tested against. The input
// is treated as a set: duplicates are removed before folding, so the
// result does not depend on multiplicity.
func GroupAggregate(tuples []Tuple, spec GroupSpec) []Tuple {
	acc := NewAccumulator(spec)
	for _, t := range DedupSort(slices.Clone(tuples)) {
		acc.Add(t)
	}
	return acc.Result().Tuples()
}
