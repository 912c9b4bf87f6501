// Package datalog is the rule front end of the reproduction: a parser
// and a stratified, semi-naive evaluator for Datalog programs —
// conjunctive rules, grouped aggregation (count/sum/min/max) in rule
// heads, and (mutually) recursive predicates. Rule bodies compile onto
// the statistics-driven engines of internal/plan; recursive strata run
// as a fixpoint loop over the warm grid distributions of
// internal/hypercube (a hypercube.Distribution per recursive rule), so
// every semi-naive delta round is routed at replication-factor cost
// instead of a rescatter, and the coordinator holds each predicate's
// closure once, as one sealed run.
//
// A program is the second statement form of the text front end's one
// lexical grammar — the tokens, the atom and the full grammar are
// stated once, in internal/query (lex.go); a conjunctive query is the
// first. This package owns the productions a query does not have
// (program, rule, goal, head, term). Every statement is terminated by
// "."; constants, negation, and facts in program text are not
// supported — base relations arrive as EDB data.
package datalog

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// Term is one head position: a plain variable, or an aggregate
// function applied to a body variable.
type Term struct {
	// Var is the variable name (the aggregate argument when Agg is
	// set).
	Var string
	// Agg is the aggregate function, or 0 for a plain variable.
	Agg relation.AggFunc
}

// String renders the term as it was written.
func (t Term) String() string {
	if t.Agg != 0 {
		return fmt.Sprintf("%s(%s)", t.Agg, t.Var)
	}
	return t.Var
}

// Head is a rule head: a predicate applied to terms.
type Head struct {
	// Pred is the predicate name.
	Pred string
	// Terms are the head positions in output order.
	Terms []Term
}

// writeAtom renders pred(v1, v2, …) in the program's canonical
// spacing.
func writeAtom(sb *strings.Builder, pred string, vars []string) {
	fmt.Fprintf(sb, "%s(%s)", pred, strings.Join(vars, ", "))
}

// Rule is one Datalog rule head :- body.
type Rule struct {
	// Head is the rule head.
	Head Head
	// Body lists the body atoms in written order.
	Body []query.Atom

	line int
}

// HasAggregate reports whether any head term is an aggregate.
func (r *Rule) HasAggregate() bool {
	for _, t := range r.Head.Terms {
		if t.Agg != 0 {
			return true
		}
	}
	return false
}

// String renders the rule in canonical form.
func (r *Rule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(", r.Head.Pred)
	for i, t := range r.Head.Terms {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteString(") :- ")
	for i, a := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeAtom(&sb, a.Name, a.Vars)
	}
	sb.WriteString(".")
	return sb.String()
}

// Goal is the optional "?- pred(vars)." output declaration.
type Goal struct {
	// Pred is the queried predicate.
	Pred string
	// Vars label the output columns; their count must match the
	// predicate's arity.
	Vars []string

	line int
}

// Program is a parsed, statically validated Datalog program.
type Program struct {
	// Rules in program order.
	Rules []Rule
	// Goal is the output declaration, nil when the program has none.
	Goal *Goal

	an analysis
}

// String renders the program in canonical form, one statement per
// line. Parsing the rendering yields an equal program (the fuzz
// round-trip property).
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteString("\n")
	}
	if p.Goal != nil {
		sb.WriteString("?- ")
		writeAtom(&sb, p.Goal.Pred, p.Goal.Vars)
		sb.WriteString(".\n")
	}
	return sb.String()
}

// IsDatalog reports whether the query text is addressed to this front
// end rather than the conjunctive-query parser: it contains a rule or
// goal marker.
func IsDatalog(src string) bool {
	return strings.Contains(src, ":-") || strings.Contains(src, "?-")
}

// Parse reads and statically validates a Datalog program: syntax,
// consistent predicate arities, range restriction (safety), the
// aggregate discipline, and stratification (no recursion through
// aggregation, no self-join bodies).
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	return prog, nil
}

func parse(src string) (*Program, error) {
	ts, err := query.Tokenize(src)
	if err != nil {
		return nil, err
	}
	prog := &Program{}
	for ts.Peek().Text != "" {
		if ts.Peek().Text == "?-" {
			g, err := parseGoal(ts)
			if err != nil {
				return nil, err
			}
			if prog.Goal != nil {
				return nil, fmt.Errorf("line %d: second goal (one '?-' per program)", g.line)
			}
			prog.Goal = g
			continue
		}
		r, err := parseRule(ts)
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, *r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("program has no rules")
	}
	if err := prog.analyze(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseGoal reads goal := "?-" atom ".".
func parseGoal(ts *query.Tokens) (*Goal, error) {
	line := ts.Next().Line // "?-"
	a, err := ts.Atom()
	if err != nil {
		return nil, err
	}
	if err := ts.Expect("."); err != nil {
		return nil, err
	}
	return &Goal{Pred: a.Name, Vars: a.Vars, line: line}, nil
}

// parseRule reads rule := head ":-" atoms ".".
func parseRule(ts *query.Tokens) (*Rule, error) {
	name, err := ts.Ident()
	if err != nil {
		return nil, err
	}
	if err := ts.Expect("("); err != nil {
		return nil, err
	}
	r := &Rule{Head: Head{Pred: name.Text}, line: name.Line}
	for {
		t, err := parseTerm(ts)
		if err != nil {
			return nil, err
		}
		r.Head.Terms = append(r.Head.Terms, t)
		sep := ts.Next()
		if sep.Text == ")" {
			break
		}
		if sep.Text != "," {
			return nil, fmt.Errorf("line %d: expected ',' or ')' in head of %s, got %s", sep.Line, name.Text, sep)
		}
	}
	if t := ts.Next(); t.Text != ":-" {
		return nil, fmt.Errorf("line %d: rule %s has no ':-' body (facts are not supported; load them as EDB data): got %s",
			t.Line, name.Text, t)
	}
	if r.Body, err = ts.Atoms(); err != nil {
		return nil, err
	}
	if t := ts.Next(); t.Text != "." {
		return nil, fmt.Errorf("line %d: expected ',' or '.' after body atom, got %s", t.Line, t)
	}
	return r, nil
}

// parseTerm reads term := ident | agg "(" ident ")".
func parseTerm(ts *query.Tokens) (Term, error) {
	id, err := ts.Ident()
	if err != nil {
		return Term{}, err
	}
	if ts.Peek().Text != "(" {
		return Term{Var: id.Text}, nil
	}
	f, ok := relation.ParseAggFunc(id.Text)
	if !ok {
		return Term{}, fmt.Errorf("line %d: unknown aggregate function %q (count, sum, min, max)", id.Line, id.Text)
	}
	ts.Next() // '('
	arg, err := ts.Ident()
	if err != nil {
		return Term{}, err
	}
	if err := ts.Expect(")"); err != nil {
		return Term{}, err
	}
	return Term{Var: arg.Text, Agg: f}, nil
}
