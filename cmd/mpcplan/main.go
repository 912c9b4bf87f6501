// Command mpcplan analyzes a conjunctive query under the MPC(ε) model
// and explains the plan the statistics-driven planner would execute:
// the hypergraph statistics, both LPs of Figure 1 with their optimal
// solutions, τ*, the one-round space exponent, round bounds, and the
// EXPLAIN report of internal/plan — LP-derived shares, predicted load
// against the paper's bound and the ε-budget, and the engine decision
// (one-round HyperCube, multiround decomposition, or skew-aware
// routing).
//
// Usage:
//
//	mpcplan -query 'q(x,y,z) = R(x,y), S(y,z)' [-eps 1/2] [-p 64] [-n 10000]
//	mpcplan -family C5 [-eps 1/3] [-p 64]
//	mpcplan -query 'tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z).'
//
// A -query containing ':-' or '?-' is analyzed as a Datalog program
// (internal/datalog): mpcplan prints its EDB/IDB split, the stratified
// evaluation order with recursion flags, and the planner's EXPLAIN for
// every rule body of two or more atoms; a one-atom rule, which evaluation
// answers over its relation's run with no plan and no round, gets one
// line saying so.
//
// Without -eps the planner uses the query's own one-round space
// exponent 1 − 1/τ*. The -n flag sets the cardinality of the assumed
// matching database the plan is costed against (mpcplan is static:
// real data flows through cmd/mpcrun, which collects live statistics).
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/query"
)

func main() {
	var (
		queryStr  = flag.String("query", "", "conjunctive query, e.g. 'q(x,y) = R(x,y)'")
		familyStr = flag.String("family", "", "query family: L<k>, C<k>, T<k>, SP<k>, B<k>_<m>")
		epsStr    = flag.String("eps", "", "space exponent ε as a fraction, e.g. 1/2 (default: the query's own 1 − 1/τ*)")
		p         = flag.Int("p", 64, "number of servers for share computation")
		n         = flag.Int("n", 10000, "assumed relation cardinality for plan costing")
	)
	flag.Parse()
	if err := run(*queryStr, *familyStr, *epsStr, *p, *n); err != nil {
		fmt.Fprintln(os.Stderr, "mpcplan:", err)
		os.Exit(1)
	}
}

func run(queryStr, familyStr, epsStr string, p, n int) error {
	if p < 1 {
		return fmt.Errorf("-p = %d, need ≥ 1", p)
	}
	if n < 1 {
		return fmt.Errorf("-n = %d, need ≥ 1", n)
	}
	eps, err := plan.ParseEpsilon(epsStr)
	if err != nil {
		return err
	}
	if datalog.IsDatalog(queryStr) {
		if familyStr != "" {
			return fmt.Errorf("use either a Datalog -query or -family, not both")
		}
		return runDatalog(queryStr, eps, p, n)
	}
	q, err := query.Resolve(queryStr, familyStr)
	if err != nil {
		return err
	}
	a, err := core.Analyze(q)
	if err != nil {
		return err
	}
	fmt.Print(a)
	if err := experiments.Figure1(os.Stdout, []*query.Query{q}); err != nil {
		return err
	}
	// The planner: share exponents from the LPs, integer shares, cost
	// estimates, engine choice — the one source of share math.
	pl, err := plan.Build(q, plan.MatchingStats(q, n), plan.Options{P: p, Epsilon: eps})
	if err != nil {
		return err
	}
	if a.Connected {
		lower, upper, err := a.RoundBounds(pl.Epsilon)
		if err != nil {
			return err
		}
		fmt.Printf("rounds at ε=%s: lower %d, upper %d\n", pl.Epsilon.RatString(), lower, upper)
	}
	fmt.Print(pl.Explain())
	return nil
}

// runDatalog analyzes a Datalog program: the canonical rendering, its
// evaluation structure, and, in evaluation order, the planner's EXPLAIN
// for every rule body of two or more atoms against an assumed matching
// database of cardinality n — or, for a one-atom body, which
// datalog.Eval answers on the coordinator without a plan, one line.
func runDatalog(src string, eps *big.Rat, p, n int) error {
	prog, err := datalog.Parse(src)
	if err != nil {
		return err
	}
	fmt.Printf("program:\n%s%s", prog, prog.Describe())
	for _, s := range prog.Strata() {
		for _, ri := range s.Rules {
			r := &prog.Rules[ri]
			if len(r.Body) == 1 {
				fmt.Printf("\nrule: %s\n  no plan: one atom, answered on the coordinator over %s's run, with no round\n", r, r.Body[0].Name)
				continue
			}
			q, err := r.BodyQuery()
			if err != nil {
				return err
			}
			pl, err := r.Plan(plan.MatchingStats(q, n), plan.Options{P: p, Epsilon: eps})
			if err != nil {
				return err
			}
			fmt.Printf("\nrule: %s\n%s", r, pl.Explain())
		}
	}
	return nil
}
