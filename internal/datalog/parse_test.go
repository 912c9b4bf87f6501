package datalog

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestParseBasic(t *testing.T) {
	prog, err := Parse(`
		% transitive closure
		tc(x, y) :- e(x, y).
		tc(x, z) :- tc(x, y), e(y, z).
		?- tc(a, b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(prog.Rules))
	}
	if prog.Goal == nil || prog.Goal.Pred != "tc" || !reflect.DeepEqual(prog.Goal.Vars, []string{"a", "b"}) {
		t.Fatalf("bad goal: %+v", prog.Goal)
	}
	if got := prog.Rules[1].String(); got != "tc(x, z) :- tc(x, y), e(y, z)." {
		t.Fatalf("bad rendering: %q", got)
	}
	if !prog.an.idb["tc"] || prog.an.idb["e"] {
		t.Fatal("IDB/EDB classification wrong")
	}
	if got := prog.EDBPreds(); !reflect.DeepEqual(got, []string{"e"}) {
		t.Fatalf("EDBPreds = %v", got)
	}
	if !slices.ContainsFunc(prog.Strata(), func(s Stratum) bool { return s.Recursive }) {
		t.Fatal("tc program should be recursive")
	}
	if prog.OutputPred() != "tc" {
		t.Fatalf("output pred = %s", prog.OutputPred())
	}
}

func TestParseAggregateHead(t *testing.T) {
	prog, err := Parse(`deg(x, count(y)) :- e(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	if !r.HasAggregate() {
		t.Fatal("aggregate not detected")
	}
	want := []Term{{Var: "x"}, {Var: "y", Agg: relation.AggCount}}
	if !reflect.DeepEqual(r.Head.Terms, want) {
		t.Fatalf("head terms = %+v", r.Head.Terms)
	}
	if !prog.an.aggPred["deg"] {
		t.Fatal("deg should be an aggregate predicate")
	}
	if slices.ContainsFunc(prog.Strata(), func(s Stratum) bool { return s.Recursive }) {
		t.Fatal("aggregate program is not recursive")
	}
}

// TestParseRoundTrip: the canonical rendering re-parses to an equal
// program.
func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n?- tc(x, y).\n",
		"deg(x, count(y), max(y)) :- e(x, y).\n",
		"big(x, y, z) :- r(x, y), s(y, z).\n",
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Fatalf("round trip changed:\n%q\n%q", p1.String(), p2.String())
		}
	}
}

// TestParseRejections is the strictness contract: every malformed or
// ill-typed program is rejected with a diagnosable error.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty", "", "no rules"},
		{"goal only", "?- e(x,y).", "no rules"},
		{"goal undefined pred", "p(x,y) :- e(x,y).\n?- q(x,y).", "no defining rule"},
		{"fact", "e(x, y).", "facts are not supported"},
		{"unterminated", "tc(x,y) :- e(x,y)", "expected ',' or '.'"},
		{"empty position", "tc(x,,y) :- e(x,y).", "expected identifier"},
		{"trailing comma", "tc(x,y) :- e(x,y,).", "expected identifier"},
		{"constant", "tc(x,y) :- e(x,1).", "constants are not supported"},
		{"lone colon", "tc(x,y) : e(x,y).", "':' not followed by '-'"},
		{"lone question", "? tc(x,y).", "'?' not followed by '-'"},
		{"arity clash", "p(x) :- e(x,y).\nq(x,y) :- p(x,y).", "arity"},
		{"unsafe head", "p(x, z) :- e(x, y).", "unsafe"},
		{"self join", "p(x,z) :- e(x,y), e(y,z).", "self-joins are not supported"},
		{"second goal", "p(x,y) :- e(x,y).\n?- p(x,y).\n?- p(a,b).", "second goal"},
		{"goal arity", "p(x,y) :- e(x,y).\n?- p(x).", "arity"},
		{"goal repeats var", "p(x,y) :- e(x,y).\n?- p(x,x).", "repeated"},
		{"unknown aggregate", "p(x, avg(y)) :- e(x,y).", "unknown aggregate"},
		{"agg body var dropped", "p(x, count(y)) :- e(x,y,z).", "missing from the head"},
		{"group after agg", "p(count(y), x) :- e(x,y).", "group variable x after an aggregate"},
		{"agg repeated group", "p(x, x, count(y)) :- e(x,y).", "repeats group variable"},
		{"agg two rules", "p(x, count(y)) :- e(x,y).\np(x, count(y)) :- f(x,y).", "exactly one defining rule"},
		{"agg in body", "d(x, count(y)) :- e(x,y).\nq(x,c) :- d(x,c).", "may not appear in a rule body"},
		{"agg recursion", "p(x, count(y)) :- p(x,y).", "may not appear in a rule body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) accepted", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%q) error %q does not mention %q", tc.src, err, tc.wantErr)
			}
		})
	}
}

// TestStrata: dependency-first order, recursion flags, mutual
// recursion in one stratum.
func TestStrata(t *testing.T) {
	prog, err := Parse(`
		odd(x, y) :- e(x, y).
		odd(x, z) :- even(x, y), e(y, z).
		even(x, z) :- odd(x, y), e(y, z).
		reach2(x, y) :- odd(x, y).
		?- reach2(x, y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	strata := prog.Strata()
	if len(strata) != 2 {
		t.Fatalf("got %d strata, want 2: %+v", len(strata), strata)
	}
	if !reflect.DeepEqual(strata[0].Preds, []string{"even", "odd"}) || !strata[0].Recursive {
		t.Fatalf("stratum 0 = %+v", strata[0])
	}
	if !reflect.DeepEqual(strata[1].Preds, []string{"reach2"}) || strata[1].Recursive {
		t.Fatalf("stratum 1 = %+v", strata[1])
	}

	// A self-loop makes a singleton SCC recursive.
	tc := MustParse("tc(x,y) :- e(x,y).\ntc(x,z) :- tc(x,y), e(y,z).")
	st := tc.Strata()
	if len(st) != 1 || !st[0].Recursive {
		t.Fatalf("tc strata = %+v", st)
	}

	// Non-recursive chains come out dependency-first.
	chain := MustParse(`
		top(x, y) :- mid(x, y).
		mid(x, y) :- base(x, y).
		base(x, y) :- e(x, y).
	`)
	var order []string
	for _, s := range chain.Strata() {
		if s.Recursive {
			t.Fatalf("chain stratum %v marked recursive", s.Preds)
		}
		order = append(order, s.Preds...)
	}
	if !reflect.DeepEqual(order, []string{"base", "mid", "top"}) {
		t.Fatalf("evaluation order = %v", order)
	}
}

func TestIsDatalog(t *testing.T) {
	if !IsDatalog("tc(x,y) :- e(x,y).") || !IsDatalog("?- tc(x,y).") {
		t.Fatal("datalog text not detected")
	}
	if IsDatalog("q(x,y) = R(x,y),S(y,z)") || IsDatalog("R(x,y),S(y,z)") {
		t.Fatal("CQ text misdetected as datalog")
	}
}
