// Package core is the high-level entry point of the reproduction of
// "Communication Steps for Parallel Query Processing" (Beame, Koutris,
// Suciu, PODS 2013). It ties the subsystems together behind a small
// API:
//
//   - Analyze inspects a conjunctive query: hypergraph statistics, the
//     two LPs of Figure 1, τ*, the one-round space exponent, HyperCube
//     share exponents, and round bounds for a given ε.
//   - GroundTruth evaluates a query on a single node: the reference
//     answer every cluster execution is checked against.
//
// Execution goes through the planner (internal/plan) or an engine
// (hypercube.Run, multiround.Build + Execute) directly.
package core

import (
	"fmt"
	"math/big"

	"repro/internal/cover"
	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/theory"
)

// Analysis is the static profile of a conjunctive query under the MPC
// model.
type Analysis struct {
	// Query is the analyzed query.
	Query *query.Query
	// Tau is τ*(q), the fractional covering number.
	Tau *big.Rat
	// SpaceExponent is 1 − 1/τ*, the minimal ε for one round
	// (Theorem 1.1).
	SpaceExponent *big.Rat
	// VertexCover is an optimal fractional vertex cover (per variable).
	VertexCover []*big.Rat
	// EdgePacking is an optimal fractional edge packing (per atom).
	EdgePacking []*big.Rat
	// ShareExponents are the HyperCube exponents e_i = v_i/τ*.
	ShareExponents []*big.Rat
	// Characteristic is χ(q) = k + ℓ − a − c.
	Characteristic int
	// TreeLike reports whether q is connected with χ(q) = 0.
	TreeLike bool
	// Connected reports hypergraph connectivity.
	Connected bool
	// Radius and Diameter are hypergraph distances (only meaningful
	// when Connected).
	Radius, Diameter int
}

// Analyze profiles q. Works for connected and disconnected queries;
// Radius/Diameter are zero for disconnected ones.
func Analyze(q *query.Query) (*Analysis, error) {
	cr, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Query:          q,
		Tau:            cr.Tau,
		SpaceExponent:  cr.SpaceExponent(),
		VertexCover:    cr.VertexCover,
		EdgePacking:    cr.EdgePacking,
		ShareExponents: cr.ShareExponents(),
		Characteristic: q.Characteristic(),
		TreeLike:       q.TreeLike(),
		Connected:      q.Connected(),
	}
	if a.Connected {
		if a.Radius, err = q.Radius(); err != nil {
			return nil, err
		}
		if a.Diameter, err = q.Diameter(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ExpectedAnswers returns E[|q(I)|] = n^{1+χ} over random matching
// databases (Lemma 3.4; connected queries only).
func (a *Analysis) ExpectedAnswers(n int) (float64, error) {
	return theory.ExpectedAnswers(a.Query, n)
}

// RoundBounds returns the tuple-based MPC(ε) round lower bound
// (Corollary 4.8; requires tree-like) and the Lemma 4.3 upper bound.
// For non-tree-like connected queries the lower bound returned is 1
// when q ∈ Γ¹_ε and 2 otherwise (the generic one-round test).
func (a *Analysis) RoundBounds(eps *big.Rat) (lower, upper int, err error) {
	if !a.Connected {
		return 0, 0, fmt.Errorf("core: round bounds need a connected query")
	}
	upper, err = theory.RoundsUpperBound(a.Query, eps)
	if err != nil {
		return 0, 0, err
	}
	if a.TreeLike {
		lower, err = theory.RoundsLowerBound(a.Query, eps)
		if err != nil {
			return 0, 0, err
		}
		return lower, upper, nil
	}
	in, err := cover.GammaOne(a.Query, eps)
	if err != nil {
		return 0, 0, err
	}
	if in {
		return 1, upper, nil
	}
	return 2, upper, nil
}

// GroundTruth evaluates q over db on a single node — the reference
// answer used by tests and experiment harnesses. It deliberately uses
// the pairwise hash join so the reference is computed by a different
// algorithm than the WCOJ default the cluster runs.
func GroundTruth(q *query.Query, db *relation.Database) ([]relation.Tuple, error) {
	b, err := localjoin.FromDatabase(q, db)
	if err != nil {
		return nil, err
	}
	return localjoin.Evaluate(q, b, localjoin.HashJoin)
}

// String renders the analysis as a compact report.
func (a *Analysis) String() string {
	s := fmt.Sprintf("query: %s\n", a.Query)
	s += fmt.Sprintf("  atoms=%d vars=%d arity=%d χ=%d connected=%v tree-like=%v\n",
		a.Query.NumAtoms(), a.Query.NumVars(), a.Query.TotalArity(),
		a.Characteristic, a.Connected, a.TreeLike)
	s += fmt.Sprintf("  τ* = %s, space exponent ε = %s\n", a.Tau.RatString(), a.SpaceExponent.RatString())
	if a.Connected {
		s += fmt.Sprintf("  radius = %d, diameter = %d\n", a.Radius, a.Diameter)
	}
	s += "  vertex cover:"
	for i, v := range a.Query.Vars() {
		s += fmt.Sprintf(" %s=%s", v, a.VertexCover[i].RatString())
	}
	s += "\n  edge packing:"
	for j, at := range a.Query.Atoms {
		s += fmt.Sprintf(" %s=%s", at.Name, a.EdgePacking[j].RatString())
	}
	s += "\n  share exponents:"
	for i, v := range a.Query.Vars() {
		s += fmt.Sprintf(" %s=%s", v, a.ShareExponents[i].RatString())
	}
	return s + "\n"
}
