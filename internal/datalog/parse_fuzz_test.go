package datalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/query"
)

// programSeeds is FuzzParseProgram's corpus.
var programSeeds = []string{
	"tc(x,y) :- e(x,y).",
	"tc(x,y) :- e(x,y).\ntc(x,z) :- tc(x,y), e(y,z).\n?- tc(x,y).",
	"odd(x,y) :- e(x,y).\nodd(x,z) :- even(x,y), e(y,z).\neven(x,z) :- odd(x,y), e(y,z).",
	"deg(x, count(y)) :- e(x,y).",
	"agg(x, count(y), sum(y), min(y), max(y)) :- e(x,y).",
	"p(x,y,z) :- r(x,y), s(y,z).\n?- p(a,b,c).",
	"% comment\np(x,y) :- e(x,y). % trailing\n",
	// Rejections the parser must diagnose without panicking.
	"",
	"?- tc(x,y).",
	"e(x,y).",
	"tc(x,,y) :- e(x,y).",
	"tc(x,y) :- e(x,y)",
	"tc(x,y) :- e(x,1).",
	"p(x) :- e(x,y).\nq(x,y) :- p(x,y).",
	"p(x,z) :- e(x,y), e(y,z).",
	"p(x, avg(y)) :- e(x,y).",
	"p(count(y), x) :- e(x,y).",
	"p(x, count(y)) :- p(x,y).",
	"q(x,y) = R(x,y),S(y,z)",
	"tc(x,y) : e(x,y).",
	"? tc(x,y).",
	"𝛼(x,y) :- e(x,y).",
}

// FuzzParseProgram asserts Parse never panics, and that accepted
// programs survive a canonical-rendering round trip: String() parses
// back to a program with the identical rendering.
func FuzzParseProgram(f *testing.F) {
	for _, s := range programSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		canon := prog.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical rendering rejected: %q from %q: %v", canon, src, err)
		}
		if again.String() != canon {
			t.Fatalf("round trip not stable:\n%q\n%q", canon, again.String())
		}
	})
}

// querySeeds mirrors query.FuzzParse's corpus (a test file of another
// package cannot be imported), plus bodies on the edges of the atom
// production.
var querySeeds = []string{
	"q(x,y,z) = R(x,y), S(y,z)",
	"L3(x0,x1,x2,x3) = S1(x0,x1), S2(x1,x2), S3(x2,x3)",
	"C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1)",
	"C5(x1,x2,x3,x4,x5) = S1(x1,x2), S2(x2,x3), S3(x3,x4), S4(x4,x5), S5(x5,x1)",
	"T2(z,x1,x2) = S1(z,x1), S2(z,x2)",
	"B(x1,x2,x3) = S12(x1,x2), S13(x1,x3), S23(x2,x3)",
	"SP2(z,x1,x2) = S1(z,x1), S2(z,x2), S3(x1,x2)",
	"R(x,y)",
	"R(x,x,y)",
	"R(x), S(y)",
	"E(u,v), E2(v,w), E3(w,u)",
	" q ( x , y ) = R ( x , y ) ",
	"q(α,β) = R(α,β)",
	"q(x,y) = R(x,y",
	"q(x) =",
	"q(x) = R()",
	"q(x,y) = R(x,y),",
	"q(x) = R(x) S(x)",
	"q(w) = R(x)",
	"()",
	"=",
	"",
	"1bad name(x) = R(x)",
	"q() = R(x,y)",
	"q(   ) = R(x)",
	"R(x,,y)",
	"q(x,,y) = R(x,y)",
	"q(x,y) = R(x,y,)",
	"tc(x,y) :- e(x,y).",
	"tc(x,z) :- tc(x,y), e(y,z).",
	"h(x, count(y)) :- r(x,y).",
	"total(sum(y)) :- r(x,y).",
	"?- tc(x,y).",
	// Edges of the shared atom production.
	"R(x y)",
	"R(x,y) S(y,z)",
	"R(x,y),, S(y,z)",
	", R(x,y)",
	"R(x,1)",
	"R1(x_1,y2)",
	"R(x,y) % comment, S(y",
	"R(x,y) % a.b\n, S(y,z)",
	"R(x,y)), S(y,z)",
	"R((x,y)",
	"R(x,y), R(y,z)",
	"h(x), hh(x)",
	"count(x,y), sum(y)",
	"R(x,y).",
	"R(x,y). S(y,z)",
	"R(x;y)",
	"R\n(\nx\n)",
}

// FuzzGrammarsAgree holds the two statement forms to one language of
// atoms: a headless conjunctive body is accepted by query.Parse iff it
// is accepted as the body of a safe rule, and the rule's body query
// renders like the parsed query up to its name. Text before the last
// "=" (a declared query head, which must be full where a rule head need
// only be safe) is not part of the body.
func FuzzGrammarsAgree(f *testing.F) {
	for _, s := range append(append([]string{}, querySeeds...), programSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		body := s[strings.LastIndexByte(s, '=')+1:]
		q, qerr := query.Parse(body)

		// Pick a head the body cannot clash with: a fresh predicate over
		// the body's variables (any one variable when the query parser
		// has already refused the body).
		name, vars := "h", []string{"x"}
		if ts, err := query.Tokenize(body); err == nil {
			var prev query.Token
			firstVar := ""
			for tok := ts.Next(); tok.Text != ""; prev, tok = tok, ts.Next() {
				switch {
				case tok.Ident:
					for strings.HasPrefix(tok.Text, name) {
						name += "h"
					}
					if firstVar == "" && prev.Text == "(" {
						firstVar = tok.Text
					}
				case tok.Text == "." || tok.Text == ":-" || tok.Text == "?-":
					// Several Datalog statements, not one rule body.
					if qerr == nil {
						t.Fatalf("query.Parse(%q) accepted a statement token", body)
					}
					return
				}
			}
			if firstVar != "" {
				vars = []string{firstVar}
			}
		}
		if qerr == nil {
			vars = q.Vars()
		}
		rule := fmt.Sprintf("%s(%s) :- %s\n.", name, strings.Join(vars, ","), body)
		prog, perr := Parse(rule)
		if (qerr == nil) != (perr == nil) {
			t.Fatalf("grammars disagree on body %q:\n  query.Parse: %v\n  datalog.Parse(%q): %v", body, qerr, rule, perr)
		}
		if qerr != nil {
			return
		}
		bq, err := prog.Rules[0].BodyQuery()
		if err != nil {
			t.Fatalf("BodyQuery of accepted rule %q: %v", rule, err)
		}
		if got, want := strings.TrimPrefix(bq.String(), name), strings.TrimPrefix(q.String(), q.Name); got != want {
			t.Fatalf("body %q: rule body query renders %q, parsed query %q", body, got, want)
		}
	})
}
