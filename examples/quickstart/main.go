// Quickstart: analyze the chain query L3, generate a random matching
// database, and let the statistics-driven planner choose and execute
// the evaluation strategy on a simulated 64-server MPC cluster.
//
// L3(x0..x3) = S1(x0,x1), S2(x1,x2), S3(x2,x3) has τ* = 2, so its
// one-round space exponent is ε = 1/2 (Theorem 1.1): the planner
// derives share exponents (0, 1/2, 0, 1/2) from the vertex-cover LP,
// predicts that one round fits the ε-budget, and runs the HyperCube
// algorithm — each input tuple replicated to √p servers, every one of
// the n answers found in a single shuffle.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	// The chain query L3(x0,…,x3) = S1(x0,x1), S2(x1,x2), S3(x2,x3).
	q := query.Chain(3)

	// Static analysis: τ*, space exponent, share exponents (Theorem 1.1).
	analysis, err := core.Analyze(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(analysis)

	// A random matching database with n = 10,000 tuples per relation:
	// every relation is a permutation of [n] (Section 2.5 of the paper).
	const n = 10000
	rng := rand.New(rand.NewPCG(42, 42))
	db := relation.MatchingDatabase(rng, q, n)

	// The planner: collect statistics, solve the LPs, pick shares and
	// engine, and explain the decision.
	const p = 64
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(pl.Explain())

	// Execute the plan end to end through the columnar exchange.
	res, err := pl.Execute(db, plan.ExecOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	truth, err := core.GroundTruth(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted %v on p=%d servers, shares %s\n", pl.Engine, p, pl.Shares)
	fmt.Printf("found %d answers (ground truth %d)\n", len(res.Answers), len(truth))
	fmt.Printf("max per-server load: %d tuples (planner predicted %.0f)\n",
		res.Stats.MaxLoadTuples(), pl.Cost.LoadTuples)
	fmt.Printf("replication: %.2fx the input (theory: p^ε = %.2f)\n",
		res.Stats.Replication(db.InputBits()), math.Sqrt(p))
}
