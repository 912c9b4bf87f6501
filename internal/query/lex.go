package query

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// This file is the text front end's one lexical grammar. Conjunctive
// queries (Parse) and Datalog programs (internal/datalog.Parse) are two
// statement forms over the same tokens and the same atom:
//
//	query     := [ atom "=" ] atoms
//	program   := { rule | goal }
//	rule      := head ":-" atoms "."
//	goal      := "?-" atom "."
//	head      := ident "(" term { "," term } ")"
//	term      := ident | agg "(" ident ")"
//	agg       := "count" | "sum" | "min" | "max"
//	atoms     := atom { "," atom }
//	atom      := ident "(" ident { "," ident } ")"
//
// Identifiers are letters, digits and underscores beginning with a
// letter; whitespace is insignificant; "%" starts a comment to end of
// line. Empty positions ("R(x,,y)"), empty argument lists and anything
// outside this alphabet — constants included — are errors, reported
// with the line they occur on. The query, rule, goal, head and term
// productions live with their parsers; atoms and atom live here.

// Token is one lexeme: an identifier, or a punctuation mark named by its
// own text — "(", ")", ",", ".", "=", ":-", "?-" — or, with empty Text,
// the end of input that closes every stream.
type Token struct {
	// Text is the lexeme as written.
	Text string
	// Ident reports an identifier rather than a mark.
	Ident bool
	// Line is the 1-based source line the token starts on.
	Line int
}

// String quotes the lexeme for an error message.
func (t Token) String() string {
	if t.Text == "" {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Tokens is a tokenized source text with a read position: the stream
// both parsers descend over.
type Tokens struct {
	toks []Token
	pos  int
}

// Tokenize splits src into tokens, rejecting anything outside the
// grammar's alphabet. Errors carry the line, not a package prefix —
// the calling parser adds its own.
func Tokenize(src string) (*Tokens, error) {
	toks := make([]Token, 0, len(src)+1) // one per byte and the end: never regrown
	line := 1
	for i := 0; i < len(src); {
		r, w := utf8.DecodeRuneInString(src[i:])
		switch {
		case r == '\n':
			line++
			i++
		case unicode.IsSpace(r):
			i += w
		case r == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case r == '(' || r == ')' || r == ',' || r == '.' || r == '=':
			toks = append(toks, Token{Text: src[i : i+1], Line: line})
			i++
		case r == ':' || r == '?':
			if i+1 == len(src) || src[i+1] != '-' {
				return nil, fmt.Errorf("line %d: '%c' not followed by '-'", line, r)
			}
			toks = append(toks, Token{Text: src[i : i+2], Line: line})
			i += 2
		case unicode.IsLetter(r):
			j := i + w
			for j < len(src) {
				r, w := utf8.DecodeRuneInString(src[j:])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				j += w
			}
			toks = append(toks, Token{Text: src[i:j], Ident: true, Line: line})
			i = j
		case unicode.IsDigit(r):
			return nil, fmt.Errorf("line %d: constants are not supported (identifiers begin with a letter; base facts arrive as data)", line)
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, r)
		}
	}
	return &Tokens{toks: append(toks, Token{Line: line})}, nil
}

// Peek returns the next token without consuming it.
func (ts *Tokens) Peek() Token { return ts.toks[ts.pos] }

// Next consumes and returns the next token; the end of input repeats
// forever.
func (ts *Tokens) Next() Token {
	t := ts.toks[ts.pos]
	if t.Text != "" {
		ts.pos++
	}
	return t
}

// Expect consumes the next token and fails unless it is the
// punctuation mark.
func (ts *Tokens) Expect(mark string) error {
	if t := ts.Next(); t.Text != mark {
		return fmt.Errorf("line %d: expected '%s', got %s", t.Line, mark, t)
	}
	return nil
}

// Ident consumes the next token and fails unless it is an identifier.
func (ts *Tokens) Ident() (Token, error) {
	t := ts.Next()
	if !t.Ident {
		return t, fmt.Errorf("line %d: expected identifier, got %s", t.Line, t)
	}
	return t, nil
}

// Atom reads atom := ident "(" ident { "," ident } ")".
func (ts *Tokens) Atom() (Atom, error) {
	name, err := ts.Ident()
	if err != nil {
		return Atom{}, err
	}
	if err := ts.Expect("("); err != nil {
		return Atom{}, err
	}
	n := 1 // one more position than commas ahead: Vars is allocated once
	for i := ts.pos; ts.toks[i].Ident || ts.toks[i].Text == ","; i++ {
		if !ts.toks[i].Ident {
			n++
		}
	}
	a := Atom{Name: name.Text, Vars: make([]string, 0, n)}
	for {
		v, err := ts.Ident()
		if err != nil {
			return Atom{}, fmt.Errorf("%v: empty position in atom %s", err, a.Name)
		}
		a.Vars = append(a.Vars, v.Text)
		switch sep := ts.Next(); sep.Text {
		case ")":
			return a, nil
		case ",":
		default:
			return Atom{}, fmt.Errorf("line %d: expected ',' or ')' in atom %s, got %s", sep.Line, a.Name, sep)
		}
	}
}

// Atoms reads atoms := atom { "," atom } and stops before the first
// token that is not a comma; the caller checks its own terminator.
func (ts *Tokens) Atoms() ([]Atom, error) {
	var atoms []Atom
	for {
		a, err := ts.Atom()
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
		if ts.Peek().Text != "," {
			return atoms, nil
		}
		ts.Next()
	}
}
