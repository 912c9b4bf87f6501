package query

import (
	"strings"
	"testing"
)

func TestParseWithHead(t *testing.T) {
	q, err := Parse("q(x,y,z) = R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" || q.NumAtoms() != 2 || q.NumVars() != 3 {
		t.Errorf("parsed %s", q)
	}
}

func TestParseWithoutHead(t *testing.T) {
	q, err := Parse("R(x,y), S(y,z), T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumAtoms() != 3 || q.Characteristic() != -1 {
		t.Errorf("parsed %s", q)
	}
}

func TestParseWhitespace(t *testing.T) {
	q, err := Parse("  q( x , y ) =  R( x , y )  ")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVars() != 2 {
		t.Errorf("vars = %v", q.Vars())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(x) =",
		"q(x = R(x)",
		"noparens",
		"R(x,y), , S(y)",
		"R(x,y),",
		"R()",
		"1R(x)",
		"R(1x)",
		"q(x,y) = R(x)",     // head var y not in body
		"q(x) = R(x), S(y)", // body var y missing from head
		"R(x y)",            // missing comma inside atom is parsed as one ident "x y" → invalid
		"R(x,y) S(y,z)",     // missing comma between atoms
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

// TestParseRejections pins the parser-hardening fixes: invalid head
// relation names, declared-but-empty heads (which must still fail the
// fullness check), and empty positions in identifier lists — all of
// which the parser once accepted silently.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"head name with space", "1bad name(x) = R(x)", "identifiers begin with a letter"},
		{"head name starting with digit", "1bad(x) = R(x)", "identifiers begin with a letter"},
		{"head name with dash", "no-good(x) = R(x)", "unexpected character '-'"},
		{"empty declared head", "q() = R(x,y)", "empty position in atom q"},
		{"blank declared head", "q(   ) = R(x)", "empty position in atom q"},
		{"empty position in atom", "R(x,,y)", "empty position"},
		{"trailing empty position in atom", "q(x,y) = R(x,y,)", "empty position"},
		{"empty position in head", "q(x,,y) = R(x,y)", "empty position"},
		{"leading empty position in head", "q(,x) = R(x)", "empty position"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.in)
			if err == nil {
				t.Fatalf("Parse(%q) = %v, want error", c.in, q)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("Parse(%q) error %q, want substring %q", c.in, err, c.wantSub)
			}
		})
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, q := range []*Query{Chain(4), Cycle(5), Star(3), SpokedWheel(2), Binom(4, 2)} {
		s := q.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(String(%s)): %v", q.Name, err)
		}
		if got.String() != s {
			t.Errorf("round trip mismatch:\n in: %s\nout: %s", s, got.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a query")
}

func TestParseSelfJoinRejected(t *testing.T) {
	_, err := Parse("R(x,y), R(y,z)")
	if err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Errorf("want self-join error, got %v", err)
	}
}

// TestParseSharedLexer covers what conjunctive text gained from sharing
// the Datalog front end's tokenizer: "%" comments, and errors that name
// the line they occur on.
func TestParseSharedLexer(t *testing.T) {
	accepted := []struct{ in, want string }{
		{"R(x,y), S(y,z) % the skew join", "q(x,y,z) = R(x,y),S(y,z)"},
		{"% triangle\nC3(x,y,z) =\n  R(x,y), % first edge\n  S(y,z),\n  T(z,x)\n", "C3(x,y,z) = R(x,y),S(y,z),T(z,x)"},
		{"R(x,y)%", "q(x,y) = R(x,y)"},
	}
	for _, c := range accepted {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
		} else if q.String() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, q, c.want)
		}
	}
	rejected := []struct{ in, wantSub string }{
		{"R(x,y),\nS(y,,z)", "line 2: expected identifier"},
		{"R(x,y),\n\nS(y;z)", "line 3: unexpected character ';'"},
		{"R(x,y)\nS(y,z)", "line 2: expected ',' between atoms"},
		{"q(x,y) =\n% nothing follows\n", "line 3: expected identifier, got end of input"},
		{"R(x,y) % S(y,z)\n, S(y", "line 2: expected ',' or ')' in atom S, got end of input"},
		{"% only a comment", "line 1: expected identifier, got end of input"},
	}
	for _, c := range rejected {
		if _, err := Parse(c.in); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}
