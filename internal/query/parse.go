package query

import "fmt"

// Parse reads a conjunctive query, the first statement form of the
// grammar in lex.go:
//
//	q(x,y,z) = R(x,y), S(y,z)
//
// or, with the head omitted (the head of a full CQ is determined by
// the body anyway):
//
//	R(x,y), S(y,z)
//
// A declared head must list exactly the body's variables (the paper's
// queries are full); only its name is kept.
func Parse(s string) (*Query, error) {
	q, err := parse(s)
	if err != nil {
		return nil, fmt.Errorf("query parse: %w", err)
	}
	return q, nil
}

func parse(s string) (*Query, error) {
	ts, err := Tokenize(s)
	if err != nil {
		return nil, err
	}
	atoms, err := ts.Atoms()
	if err != nil {
		return nil, err
	}
	var head *Atom
	if len(atoms) == 1 && ts.Peek().Text == "=" {
		ts.Next()
		head = &atoms[0]
		if atoms, err = ts.Atoms(); err != nil {
			return nil, err
		}
	}
	if t := ts.Next(); t.Text != "" {
		return nil, fmt.Errorf("line %d: expected ',' between atoms, got %s", t.Line, t)
	}
	if head == nil {
		return New("q", atoms...)
	}
	q, err := New(head.Name, atoms...)
	if err != nil {
		return nil, err
	}
	declared := make(map[string]bool, len(head.Vars))
	for _, v := range head.Vars {
		if q.VarIndex(v) < 0 {
			return nil, fmt.Errorf("head variable %s not in body (query must be full)", v)
		}
		declared[v] = true
	}
	for _, v := range q.Vars() {
		if !declared[v] {
			return nil, fmt.Errorf("body variable %s missing from head (query must be full)", v)
		}
	}
	return q, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Resolve is the one way from a request's (query text, family label)
// pair to a query: exactly one of the two must be set.
func Resolve(text, family string) (*Query, error) {
	switch {
	case text != "" && family != "":
		return nil, fmt.Errorf("use either query or family, not both")
	case text != "":
		return Parse(text)
	case family != "":
		return ParseFamily(family)
	default:
		return nil, fmt.Errorf("one of query or family is required")
	}
}
