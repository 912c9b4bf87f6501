// Skewed joins: what happens to the MPC bounds outside the paper's
// skew-free matching databases. The paper's upper bounds "hold only on
// matching databases" (Section 2.5) and point to dedicated techniques
// for skew; this example makes that concrete on the binary join
// R(x,y) ⋈ S(y,z):
//
//   - on matching inputs, hash partitioning balances perfectly;
//   - on Zipf inputs, the server owning the heaviest join value
//     receives a constant fraction of the data, regardless of p;
//   - a heavy-hitter-resilient routing (split the big side of each
//     heavy value across a server block, broadcast the small side)
//     restores near-ideal balance.
//
// The statistics-driven planner automates exactly this fallback: on
// the Zipf input its collected statistics show a heavy hitter above
// the (|R|+|S|)/p threshold and the EXPLAIN below picks the skew-aware
// engine; on the matching input it stays with plain one-round
// HyperCube.
//
// Run with:
//
//	go run ./examples/skewjoin
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"text/tabwriter"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/skew"
)

func main() {
	const (
		n = 4000
		p = 32
	)
	rng := rand.New(rand.NewPCG(2013, 8))

	// The planner detects the skew from statistics alone.
	q := skew.JoinQuery()
	zr0, zs0 := skew.ZipfJoinInput(rng, n, 1.1)
	db := relation.NewDatabase(n)
	db.AddRelation(zr0)
	db.AddRelation(zs0)
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pl.Explain())
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "R(x,y) ⋈ S(y,z), n=%d tuples per relation, p=%d servers (ideal load 2n/p = %d)\n",
		n, p, 2*n/p)
	fmt.Fprintln(tw, "input\tdiscipline\tmax server load\theavy hitters\tanswers")

	type inputCase struct {
		name string
		r, s *relation.Relation
	}
	zr, zs := skew.ZipfJoinInput(rng, n, 1.1)
	mr, ms := skew.MatchingJoinInput(rng, n)
	for _, in := range []inputCase{{"zipf(1.1)", zr, zs}, {"matching", mr, ms}} {
		truth, err := skew.GroundTruth(in.r, in.s)
		if err != nil {
			log.Fatal(err)
		}
		for _, mode := range []skew.Mode{skew.Standard, skew.Resilient} {
			res, rt, err := skew.RunJoin(in.r, in.s, p, mode, skew.Options{Seed: 5})
			if err != nil {
				log.Fatal(err)
			}
			if res.Run.Len() != len(truth) {
				log.Fatalf("%s/%s: %d answers, want %d", in.name, mode, res.Run.Len(), len(truth))
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n",
				in.name, mode, res.Stats.MaxLoadTuples(), len(rt.Heavy), res.Run.Len())
		}
	}
	tw.Flush()
	fmt.Println("\nboth disciplines return identical (verified) join results; they differ")
	fmt.Println("purely in load profile — the phenomenon the paper's matching-database")
	fmt.Println("assumption removes. Every server runs the same local evaluator, the")
	fmt.Println("worst-case-optimal leapfrog join.")
}
