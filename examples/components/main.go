// Connected components in the tuple-based MPC(ε) model (Theorem 4.10):
// on the paper's layered-graph family (components are paths crossing
// all layers, exactly the L_k reduction) the number of rounds must
// grow with p for any tuple-based algorithm. This example contrasts
// three algorithms across a p sweep:
//
//   - neighbor-min label flooding: Θ(diameter) rounds,
//   - hash-to-min: Θ(log diameter) rounds — still growing with p,
//   - the dense-regime contrast (ε = 1: one server may hold the whole
//     graph): always 2 rounds, the Karloff-et-al. regime the paper
//     contrasts against.
//
// The lower bound rides on the chain-query reduction: a path crossing
// k layers is exactly an L_k instance. The planner's EXPLAIN for that
// underlying query (printed first) shows why one round cannot work at
// ε = 1/2 — the one-round load blows the budget and the Γ^r_ε plan
// needs multiple rounds — which is the phenomenon the table then
// measures on real component algorithms.
//
// Run with:
//
//	go run ./examples/components
package main

import (
	"fmt"
	"log"
	"math"
	"math/big"
	"math/rand/v2"
	"os"
	"text/tabwriter"

	"repro/internal/cc"
	"repro/internal/plan"
	"repro/internal/query"
)

func main() {
	rng := rand.New(rand.NewPCG(2013, 4))

	// The reduction target: components on a k-layer graph embed the
	// chain query L_k. Plan it at ε = 1/2 to see the round structure.
	const kDemo = 8
	lk := query.Chain(kDemo)
	pl, err := plan.Build(lk, plan.MatchingStats(lk, 10000), plan.Options{
		P: 64, Epsilon: big.NewRat(1, 2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the Theorem 4.10 reduction embeds L%d; its plan at ε=1/2:\n", kDemo)
	fmt.Print(pl.Explain())
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layered graphs with k = ⌊√p⌋ layers (Theorem 4.10 input family)")
	fmt.Fprintln(tw, "p\tlayers\tvertices\tneighbor-min\thash-to-min\tdense(ε=1)\tlog2 p")
	for _, p := range []int{4, 16, 64, 256} {
		layers := int(math.Sqrt(float64(p)))
		if layers < 2 {
			layers = 2
		}
		width := 16
		g, err := cc.Layered(rng, layers, width)
		if err != nil {
			log.Fatal(err)
		}
		truth := cc.SequentialComponents(g)

		nm, err := cc.Run(g, cc.NeighborMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		h2m, err := cc.Run(g, cc.HashToMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		dense, err := cc.DenseTwoRound(g, cc.Options{Workers: p, Epsilon: 1, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		for v, l := range truth {
			if nm.Labels[v] != l || h2m.Labels[v] != l || dense.Labels[v] != l {
				log.Fatalf("label mismatch at vertex %d (p=%d)", v, p)
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
			p, layers, g.N, nm.Stats.NumRounds(), h2m.Stats.NumRounds(), dense.Stats.NumRounds(), math.Log2(float64(p)))
	}
	tw.Flush()
	fmt.Println("\nsparse tuple-based algorithms need more rounds as p grows (Ω(log p));")
	fmt.Println("the dense regime (entire input on one server) stays at 2 — exactly the")
	fmt.Println("contrast the paper draws with Karloff, Suri, Vassilvitskii (SODA 2010).")
}
