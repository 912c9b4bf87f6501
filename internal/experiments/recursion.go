package experiments

// E-REC: the recursion experiment. Semi-naive evaluation is the
// communication argument for the Datalog front end: a naive fixpoint
// re-ships the entire accumulated result through the join at every
// iteration, while the semi-naive loop runs the cold hypercube join
// once and then feeds only the per-iteration delta through the warm
// maintained distribution. On power-law graphs — where reachability
// converges in few iterations but the closure dwarfs the edge set —
// the gap is the whole point. Each cell evaluates transitive closure
// both ways over the same Zipf-targeted random graph and compares
// total communication and round counts; the answer sets must agree
// exactly before any number is reported. Both sides seed the closure
// with the edges where they already are, without a round — the
// semi-naive side because its base rule reads one atom — so every
// round either side is charged is a join.

import (
	"fmt"
	"io"
	"math/rand/v2"
	"text/tabwriter"

	"repro/internal/datalog"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
)

// RecursionRow is one cell of the E-REC experiment.
type RecursionRow struct {
	// N is the edge count of the generated power-law graph.
	N int
	// P is the number of servers.
	P int
	// Answers is the size of the transitive closure.
	Answers int
	// Iterations is the semi-naive fixpoint iteration count.
	Iterations int
	// SemiRounds and SemiBits are the semi-naive run's communication
	// record (cold hypercube run plus every warm delta batch; the base
	// rule costs none).
	SemiRounds int
	SemiBits   int64
	// NaiveRounds and NaiveBits are the naive fixpoint's record: a
	// full cold join of e against the entire accumulated closure at
	// every iteration until nothing new appears.
	NaiveRounds int
	NaiveBits   int64
	// Ratio is NaiveBits / SemiBits — what feeding deltas through the
	// warm distribution saves over re-shipping the world.
	Ratio float64
}

// recursionProgram is the reachability program both strategies answer.
const recursionProgram = "tc(x,y) :- e(x,y).\ntc(x,z) :- tc(x,y), e(y,z)."

// Recursion runs the E-REC experiment: transitive closure over
// power-law graphs of the given edge counts on a p-server cluster,
// semi-naive versus naive re-evaluation.
func Recursion(w io.Writer, sizes []int, p int, seed uint64) ([]RecursionRow, error) {
	if p < 1 {
		return nil, fmt.Errorf("experiments: recursion with p=%d", p)
	}
	prog, err := datalog.Parse(recursionProgram)
	if err != nil {
		return nil, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-REC: transitive closure on power-law graphs, semi-naive vs naive fixpoint")
	fmt.Fprintln(tw, "edges\tp\tclosure\titers\tsemi rounds\tsemi bits\tnaive rounds\tnaive bits\tnaive/semi")
	var rows []RecursionRow
	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: recursion with n=%d, need ≥ 2", n)
		}
		db := relation.NewDatabase(n)
		db.AddRelation(relation.SkewedZipf(rand.New(rand.NewPCG(seed, uint64(n))), "e", []string{"y", "x"}, n, 1.2))

		semi, err := datalog.Eval(prog, db, datalog.Options{P: p, Seed: seed})
		if err != nil {
			return nil, err
		}
		naiveAnswers, naiveRounds, naiveBits, err := naiveClosure(db, p, seed)
		if err != nil {
			return nil, err
		}
		if got, want := semi.Run.Len(), naiveAnswers; got != want {
			return nil, fmt.Errorf("experiments: recursion n=%d p=%d semi-naive found %d pairs, naive found %d",
				n, p, got, want)
		}
		row := RecursionRow{
			N:           n,
			P:           p,
			Answers:     semi.Run.Len(),
			Iterations:  semi.Iterations,
			SemiRounds:  semi.Stats.NumRounds(),
			SemiBits:    semi.Stats.TotalBits(),
			NaiveRounds: naiveRounds,
			NaiveBits:   naiveBits,
		}
		if row.SemiBits > 0 {
			row.Ratio = float64(row.NaiveBits) / float64(row.SemiBits)
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f×\n",
			row.N, row.P, row.Answers, row.Iterations,
			row.SemiRounds, row.SemiBits, row.NaiveRounds, row.NaiveBits, row.Ratio)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// naiveClosure is the strategy E-REC argues against: every iteration
// cold-joins the whole accumulated closure against e, paying a full
// scatter of both sides each time, until a pass derives nothing new.
func naiveClosure(db *relation.Database, p int, seed uint64) (answers, rounds int, bits int64, err error) {
	edges, ok := db.Relation("e")
	if !ok {
		return 0, 0, 0, fmt.Errorf("experiments: naive closure needs relation e")
	}
	q, err := query.New("tc", query.Atom{Name: "tc", Vars: []string{"x", "y"}}, query.Atom{Name: "e", Vars: []string{"y", "z"}})
	if err != nil {
		return 0, 0, 0, err
	}
	known := relation.Merge([]*relation.Run{edges.Run()})
	for {
		step := relation.NewDatabase(db.N)
		step.AddRelation(edges)
		step.AddRelation(relation.FromRun("tc", []string{"x", "y"}, known))
		res, err := hypercube.Run(q, step, p, hypercube.Options{Seed: seed})
		if err != nil {
			return 0, 0, 0, err
		}
		rounds += res.Stats.NumRounds()
		bits += res.Stats.TotalBits()
		// Project q's (x,y,z) answers onto (x,z) and fold into the
		// closure; a pass that grows nothing is the fixpoint.
		merged := relation.Merge([]*relation.Run{known, relation.Project(res.Run, []int{0, 2})})
		if merged.Len() == known.Len() {
			return known.Len(), rounds, bits, nil
		}
		known = merged
	}
}
