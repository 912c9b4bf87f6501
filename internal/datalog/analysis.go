package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// Stratum is one evaluation unit: the rules of one strongly connected
// component of the IDB dependency graph, in dependency-first order.
type Stratum struct {
	// Preds are the predicates defined in this stratum, sorted.
	Preds []string
	// Rules are indices into Program.Rules, in program order.
	Rules []int
	// Recursive reports whether the stratum needs a fixpoint: the SCC
	// has more than one predicate, or a single predicate that appears
	// in the body of one of its own rules.
	Recursive bool
}

// analysis is the result of static validation, computed once in Parse.
type analysis struct {
	// arity maps every predicate (EDB and IDB) to its arity.
	arity map[string]int
	// idb marks predicates defined by at least one rule.
	idb map[string]bool
	// aggPred marks predicates defined by an aggregate rule.
	aggPred map[string]bool
	// strata is the evaluation order: Tarjan emission order of the IDB
	// dependency SCCs, which puts every stratum after the strata it
	// reads from.
	strata []Stratum
}

// Arity returns the arity of a predicate and whether it occurs in the
// program.
func (p *Program) Arity(pred string) (int, bool) {
	n, ok := p.an.arity[pred]
	return n, ok
}

// Schema names the columns of a predicate's relation, c0 … c(arity−1):
// the attribute names of derived relations and generated EDB data
// alike (atoms bind columns by position, so the names are labels only).
func (p *Program) Schema(pred string) []string {
	attrs := make([]string, p.an.arity[pred])
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	return attrs
}

// EDBPreds returns the extensional predicates — those read but never
// defined — sorted by name.
func (p *Program) EDBPreds() []string {
	var out []string
	for pred := range p.an.arity {
		if !p.an.idb[pred] {
			out = append(out, pred)
		}
	}
	sort.Strings(out)
	return out
}

// IDBPreds returns the intensional predicates, sorted by name.
func (p *Program) IDBPreds() []string {
	var out []string
	for pred := range p.an.idb {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

// Strata returns the evaluation order: one stratum per SCC of the IDB
// dependency graph, dependencies before dependents. The slice is
// shared; callers must not mutate it.
func (p *Program) Strata() []Stratum { return p.an.strata }

// OutputPred returns the predicate the program answers: the goal's
// predicate, or the head of the last rule when no goal is declared.
func (p *Program) OutputPred() string {
	if p.Goal != nil {
		return p.Goal.Pred
	}
	return p.Rules[len(p.Rules)-1].Head.Pred
}

// Describe renders the program's evaluation structure, one line each:
// the EDB and IDB predicates with arities, the strata in evaluation
// order with their recursion flags, and the output predicate. It is
// what every front door (mpcrun, mpcplan, the service's EXPLAIN field)
// prints for a program.
func (p *Program) Describe() string {
	var sb strings.Builder
	list := func(label string, preds []string) {
		sb.WriteString(label)
		for i, pred := range preds {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " %s/%d", pred, p.an.arity[pred])
			if p.an.aggPred[pred] {
				sb.WriteString(" (aggregate)")
			}
		}
		sb.WriteString("\n")
	}
	list("edb:", p.EDBPreds())
	list("idb:", p.IDBPreds())
	for i, s := range p.an.strata {
		kind := "non-recursive"
		if s.Recursive {
			kind = "recursive — semi-naive fixpoint over warm delta maintenance"
		}
		fmt.Fprintf(&sb, "stratum %d (%s): %s, %d rule(s)\n", i, kind, strings.Join(s.Preds, ", "), len(s.Rules))
	}
	fmt.Fprintf(&sb, "output: %s\n", p.OutputPred())
	return sb.String()
}

// analyze validates the parsed program and computes the evaluation
// order. The checks, in the order a user hits them: consistent
// arities, per-rule shape (non-empty distinct body, safety), the
// aggregate discipline (single defining rule, terminal, exact-fold
// head coverage, groups before aggregates), goal well-formedness, and
// stratification.
func (p *Program) analyze() error {
	p.an = analysis{
		arity:   make(map[string]int),
		idb:     make(map[string]bool),
		aggPred: make(map[string]bool),
	}
	note := func(pred string, arity, line int) error {
		if prev, ok := p.an.arity[pred]; ok {
			if prev != arity {
				return fmt.Errorf("line %d: predicate %s used with arity %d and %d", line, pred, arity, prev)
			}
			return nil
		}
		p.an.arity[pred] = arity
		return nil
	}

	for i := range p.Rules {
		r := &p.Rules[i]
		if err := note(r.Head.Pred, len(r.Head.Terms), r.line); err != nil {
			return err
		}
		p.an.idb[r.Head.Pred] = true
		if r.HasAggregate() {
			p.an.aggPred[r.Head.Pred] = true
		}

		// Body: consistent arities, no self-joins (the engines bind
		// worker stores by atom name), and range restriction.
		bodyVars := make(map[string]bool)
		seenAtom := make(map[string]bool, len(r.Body))
		for _, a := range r.Body {
			if err := note(a.Name, len(a.Vars), r.line); err != nil {
				return err
			}
			if seenAtom[a.Name] {
				return fmt.Errorf("line %d: rule for %s repeats body predicate %s (self-joins are not supported; split the rule through an alias predicate)",
					r.line, r.Head.Pred, a.Name)
			}
			seenAtom[a.Name] = true
			for _, v := range a.Vars {
				bodyVars[v] = true
			}
		}
		for _, t := range r.Head.Terms {
			if !bodyVars[t.Var] {
				return fmt.Errorf("line %d: rule for %s is unsafe: head variable %s does not occur in the body",
					r.line, r.Head.Pred, t.Var)
			}
		}

		if r.HasAggregate() {
			if err := p.checkAggregateRule(r, bodyVars); err != nil {
				return err
			}
		}
	}

	// Aggregate discipline across rules: a single defining rule, and
	// terminal (never read by another rule). Terminality is what makes
	// aggregation safe here — aggregate values live outside the input
	// domain [1,N] the grid hashes, and recursion through aggregation
	// has no least fixpoint.
	for pred := range p.an.aggPred {
		n := 0
		for i := range p.Rules {
			if p.Rules[i].Head.Pred == pred {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("aggregate predicate %s has %d rules (exactly one defining rule is allowed)", pred, n)
		}
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		for _, a := range r.Body {
			if p.an.aggPred[a.Name] {
				return fmt.Errorf("line %d: aggregate predicate %s may not appear in a rule body (aggregates are terminal: query them with '?-')",
					r.line, a.Name)
			}
		}
	}

	if p.Goal != nil {
		g := p.Goal
		if !p.an.idb[g.Pred] {
			return fmt.Errorf("line %d: goal predicate %s has no defining rule", g.line, g.Pred)
		}
		if want := p.an.arity[g.Pred]; len(g.Vars) != want {
			return fmt.Errorf("line %d: goal %s has %d variables, predicate has arity %d", g.line, g.Pred, len(g.Vars), want)
		}
		seen := make(map[string]bool, len(g.Vars))
		for _, v := range g.Vars {
			if seen[v] {
				return fmt.Errorf("line %d: goal variable %s repeated (goal variables label output columns and must be distinct)", g.line, v)
			}
			seen[v] = true
		}
	}

	p.an.strata = p.stratify()
	return nil
}

// checkAggregateRule enforces the head shape that lets the evaluator
// fold the aggregate exactly over the gathered answer: every body variable
// appears in the head (so the deduplicated body answer set is the
// aggregation input, with no pre-aggregation projection), and plain
// group terms precede aggregate terms (so head order equals the
// groups-then-aggregates order the fold emits).
func (p *Program) checkAggregateRule(r *Rule, bodyVars map[string]bool) error {
	headVars := make(map[string]bool, len(r.Head.Terms))
	sawAgg := false
	for _, t := range r.Head.Terms {
		if t.Agg != 0 {
			sawAgg = true
			headVars[t.Var] = true
			continue
		}
		if sawAgg {
			return fmt.Errorf("line %d: aggregate rule for %s: group variable %s after an aggregate term (group variables first, then aggregates)",
				r.line, r.Head.Pred, t.Var)
		}
		if headVars[t.Var] {
			return fmt.Errorf("line %d: aggregate rule for %s repeats group variable %s", r.line, r.Head.Pred, t.Var)
		}
		headVars[t.Var] = true
	}
	for v := range bodyVars {
		if !headVars[v] {
			return fmt.Errorf("line %d: aggregate rule for %s: body variable %s missing from the head (aggregates fold the full body answer set, so every body variable must be a group variable or an aggregate argument)",
				r.line, r.Head.Pred, v)
		}
	}
	return nil
}

// stratify runs Tarjan's SCC algorithm on the IDB dependency graph
// (edge P → Q when a rule for P reads Q and Q is intensional) and
// returns one Stratum per component in emission order. Tarjan emits a
// component only after every component it can reach, so emission order
// is dependency-first evaluation order.
func (p *Program) stratify() []Stratum {
	preds := p.IDBPreds()
	index := make(map[string]int, len(preds))
	for i, pred := range preds {
		index[pred] = i
	}
	adj := make([][]int, len(preds))
	selfLoop := make([]bool, len(preds))
	for i := range p.Rules {
		r := &p.Rules[i]
		from := index[r.Head.Pred]
		for _, a := range r.Body {
			to, ok := index[a.Name]
			if !ok {
				continue // EDB
			}
			if to == from {
				selfLoop[from] = true
			}
			adj[from] = append(adj[from], to)
		}
	}

	// Iterative Tarjan.
	const unvisited = -1
	num := make([]int, len(preds))
	low := make([]int, len(preds))
	onStack := make([]bool, len(preds))
	for i := range num {
		num[i] = unvisited
	}
	var (
		counter int
		stack   []int
		sccs    [][]int
	)
	type frame struct{ v, edge int }
	for root := range preds {
		if num[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		num[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(adj[f.v]) {
				w := adj[f.v][f.edge]
				f.edge++
				if num[w] == unvisited {
					num[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && num[w] < low[f.v] {
					low[f.v] = num[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == num[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}

	strata := make([]Stratum, 0, len(sccs))
	for _, comp := range sccs {
		s := Stratum{Recursive: len(comp) > 1}
		inComp := make(map[string]bool, len(comp))
		for _, i := range comp {
			s.Preds = append(s.Preds, preds[i])
			inComp[preds[i]] = true
			if selfLoop[i] {
				s.Recursive = true
			}
		}
		sort.Strings(s.Preds)
		for i := range p.Rules {
			if inComp[p.Rules[i].Head.Pred] {
				s.Rules = append(s.Rules, i)
			}
		}
		strata = append(strata, s)
	}
	return strata
}
