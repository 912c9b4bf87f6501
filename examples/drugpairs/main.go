// The drug-interaction workload from the paper's introduction
// (Ullman's example): apply a user-defined comparison to every pair of
// drugs — a cartesian product R(x) × S(y). With p servers known in
// advance, the optimal schedule partitions each set into g = √p groups
// and gives each server one pair of groups: replication √p, reducer
// size 2n/√p.
//
// This example sweeps the group count g and reports the
// replication-vs-reducer-size tradeoff the introduction describes,
// then confirms the planner recovers g = √p automatically from the
// LPs (the vertex cover of R(x),S(y) is v_x = v_y = 1, τ* = 2, shares
// p^{1/2} each) and executes the product through it.
//
// Run with:
//
//	go run ./examples/drugpairs
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	const (
		n = 6500 // number of drugs, as in Ullman's example
		p = 64
	)
	q := query.CartesianPair() // q(x,y) = R(x), S(y)

	// The tradeoff table from the introduction: g groups per set →
	// replication g, reducer input 2n/g, g² reducers.
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "drug interaction tradeoff, n=%d drugs\n", n)
	fmt.Fprintln(tw, "groups g\treducers g²\treplication\treducer input")
	for _, g := range []int{1, 2, 4, 8, int(math.Sqrt(p)), 16, 80} {
		fmt.Fprintf(tw, "%d\t%d\t%d×\t%d items\n", g, g*g, g, 2*n/g)
	}
	tw.Flush()
	fmt.Printf("\nwith p = %d servers the sweet spot is g = √p = %d: every server\nhandles exactly one pair of groups.\n\n", p, int(math.Sqrt(p)))

	// The planner recovers this automatically: the fractional vertex
	// cover of R(x),S(y) is (1,1), τ* = 2, share exponents (1/2,1/2),
	// so shares are √p × √p. Run it on a scaled-down instance (n²
	// pairs materialize in memory; 400² = 160k is plenty to see the
	// load profile).
	const nRun = 400
	db := relation.NewDatabase(nRun)
	r := relation.New("R", "x")
	s := relation.New("S", "y")
	for i := 1; i <= nRun; i++ {
		r.MustAdd(relation.Tuple{i})
		s.MustAdd(relation.Tuple{i})
	}
	db.AddRelation(r)
	db.AddRelation(s)

	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pl.Explain())

	res, err := pl.Execute(db, plan.ExecOptions{
		Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pairs examined: %d (want n² = %d at n=%d)\n", len(res.Answers), nRun*nRun, nRun)
	fmt.Printf("max per-server input: %d tuples (ideal 2n/√p = %d)\n",
		res.Stats.MaxLoadTuples(), 2*nRun/int(math.Sqrt(p)))
	fmt.Printf("replication: %.2fx (theory √p = %.0f)\n",
		res.Stats.Replication(db.InputBits()), math.Sqrt(p))
}
