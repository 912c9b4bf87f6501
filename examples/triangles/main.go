// Triangle counting à la Suri–Vassilvitskii ("Counting triangles and
// the curse of the last reducer", WWW 2011), one of the works the
// HyperCube algorithm generalizes. The triangle query C3 is planned by
// the statistics-driven planner and then evaluated two ways on the
// same graph:
//
//  1. the planner's own choice — one round of HyperCube shuffle with
//     the LP-derived shares p^{1/3}×p^{1/3}×p^{1/3} (ε = 1/3), and
//  2. the same query planned at ε = 0, where the one-round load blows
//     the tighter budget and the planner itself falls back to the
//     two-round Γ^r_0 plan: first the path S1⋈S2, then the close with
//     S3 — less replication per round, more rounds.
//
// Both report the same triangles; the interesting output is the
// communication profile, which the planner's EXPLAIN predicts.
//
// Run with:
//
//	go run ./examples/triangles
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	q := query.Triangle()
	const (
		n = 20000
		p = 64
	)
	rng := rand.New(rand.NewPCG(2013, 6))
	db := relation.MatchingDatabase(rng, q, n)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C3 on matching database, n=%d, p=%d; true triangles: %d\n\n", n, p, len(truth))

	// The planner chooses strategy 1 on its own: the LP gives share
	// exponents (1/3,1/3,1/3) and one round fits the ε = 1/3 budget.
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pl.Explain())
	one, err := pl.Execute(db, plan.ExecOptions{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner choice (%v, shares %s):\n", pl.Engine, pl.Shares)
	fmt.Printf("  triangles found: %d\n", len(one.Answers))
	fmt.Printf("  rounds: %d, max load: %d tuples, replication %.2fx\n\n",
		one.Stats.NumRounds(), one.Stats.MaxLoadTuples(), one.Stats.Replication(db.InputBits()))

	// Tighten the budget to ε = 0: one round would need p^{2/3}-scale
	// loads, so the planner falls back to the two-round decomposition
	// (join two edges, then close).
	pl0, err := plan.Build(q, relation.CollectStats(db), plan.Options{
		P: p, Epsilon: big.NewRat(0, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pl0.Explain())
	multi, err := pl0.Execute(db, plan.ExecOptions{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner choice at ε=0 (%v):\n", pl0.Engine)
	fmt.Printf("  triangles found: %d\n", len(multi.Answers))
	fmt.Printf("  rounds: %d, max load/round: %d tuples, total %.2fx input\n\n",
		multi.Stats.NumRounds(), multi.Stats.MaxLoadTuples(), multi.Stats.Replication(db.InputBits()))

	if len(one.Answers) != len(truth) || len(multi.Answers) != len(truth) {
		log.Fatal("triangle counts disagree with ground truth")
	}
	fmt.Println("both strategies agree with the single-node ground truth ✓")
	fmt.Println("tradeoff: one round costs p^(1/3) replication; two rounds cost an extra synchronization")
}
