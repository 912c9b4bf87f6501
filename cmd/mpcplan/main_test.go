package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
)

func TestParseRat(t *testing.T) {
	r, err := plan.ParseEpsilon("1/2")
	if err != nil || r.RatString() != "1/2" {
		t.Errorf("plan.ParseEpsilon(1/2) = %v, %v", r, err)
	}
	if _, err := plan.ParseEpsilon("x"); err == nil {
		t.Error("want error for garbage")
	}
	if _, err := plan.ParseEpsilon("1"); err == nil {
		t.Error("want error for ε = 1")
	}
	if _, err := plan.ParseEpsilon("-1/2"); err == nil {
		t.Error("want error for negative ε")
	}
}

func TestResolveQuery(t *testing.T) {
	if _, err := query.Resolve("", ""); err == nil {
		t.Error("want error when neither flag is set")
	}
	if _, err := query.Resolve("R(x)", "L2"); err == nil {
		t.Error("want error when both flags are set")
	}
	q, err := query.Resolve("R(x,y), S(y,z)", "")
	if err != nil || q.NumAtoms() != 2 {
		t.Errorf("query.Resolve text: %v, %v", q, err)
	}
	if _, err := query.Resolve("", "C4"); err != nil {
		t.Errorf("query.Resolve family: %v", err)
	}
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

func TestRunEndToEnd(t *testing.T) {
	// Full pipeline on a simple query, explicit ε.
	if err := run("q(x,y) = R(x,y)", "", "0", 8, 100); err != nil {
		t.Fatal(err)
	}
	// Default ε (the query's own exponent).
	if err := run("", "L3", "", 16, 200); err != nil {
		t.Fatal(err)
	}
	if err := run("", "nope", "0", 8, 100); err == nil {
		t.Error("want error for bad family")
	}
	if err := run("", "L4", "7/3", 8, 100); err == nil {
		t.Error("want error for bad epsilon")
	}
	if err := run("", "L4", "0", 0, 100); err == nil {
		t.Error("want error for p = 0")
	}
}

// TestTriangleExplainOutput is the CLI half of the PR's acceptance
// check: the EXPLAIN for C3 shows the LP-derived p^{1/3} grid and the
// paper-bound comparison.
func TestTriangleExplainOutput(t *testing.T) {
	out := capture(t, func() error { return run("", "C3", "1/3", 64, 20000) })
	for _, want := range []string{
		"τ* = 3/2",
		"share exponents e = v/τ*: x1=1/3 x2=1/3 x3=1/3",
		"[x1:4 x2:4 x3:4], grid 64 (p^{1/3} per hashed dimension)",
		"paper bound Σ_j |S_j|/p^{Σe_i}: 3750 tuples/worker",
		"engine: one-round hypercube",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q in:\n%s", want, out)
		}
	}
}
