// Command mpcbench regenerates the tables, the figure, and every
// quantitative experiment of the paper (the usage below is the
// experiment index; internal/experiments documents each one).
//
// Usage:
//
//	mpcbench -table 1            # Table 1
//	mpcbench -table 2            # Table 2
//	mpcbench -figure 1           # Figure 1 LPs for the running examples
//	mpcbench -experiment hc-load
//	mpcbench -experiment lb-fraction
//	mpcbench -experiment witness
//	mpcbench -experiment rounds
//	mpcbench -experiment round-bounds
//	mpcbench -experiment cc
//	mpcbench -experiment skew
//	mpcbench -experiment shuffle
//	mpcbench -experiment wire
//	mpcbench -experiment delta
//	mpcbench -experiment opt-shares
//	mpcbench -experiment friedgut
//	mpcbench -experiment recursion
//	mpcbench -all                # everything
//
// mpcbench reports the paper's quantities — loads, rounds, answer
// fractions — not this system's speed: performance is measured end to
// end by bench/run.sh and per stage by the Go benchmarks in the root
// bench_test.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"repro/internal/experiments"
	"repro/internal/query"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate Table 1 or 2")
		figure     = flag.Int("figure", 0, "regenerate Figure 1")
		experiment = flag.String("experiment", "", "hc-load | lb-fraction | witness | rounds | round-bounds | cc | skew | shuffle | wire | delta | opt-shares | friedgut | knowledge | tail | recursion")
		all        = flag.Bool("all", false, "run everything")
		n          = flag.Int("n", 2000, "domain size for data experiments")
		seed       = flag.Uint64("seed", 2013, "random seed")
		trials     = flag.Int("trials", 5, "trials per randomized cell")
	)
	flag.Parse()
	if err := run(os.Stdout, *table, *figure, *experiment, *all, *n, *seed, *trials); err != nil {
		fmt.Fprintln(os.Stderr, "mpcbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, table, figure int, experiment string, all bool, n int, seed uint64, trials int) error {
	ran := false
	if all || table == 1 {
		ran = true
		fmt.Fprintln(w, "── Table 1 ──")
		if _, err := experiments.Table1(w, n, trials, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || table == 2 {
		ran = true
		fmt.Fprintln(w, "── Table 2 ──")
		if _, err := experiments.Table2(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || figure == 1 {
		ran = true
		fmt.Fprintln(w, "── Figure 1 (vertex cover & edge packing LPs) ──")
		qs := []*query.Query{query.Chain(3), query.Cycle(3), query.Star(3), query.Binom(4, 2)}
		if err := experiments.Figure1(w, qs); err != nil {
			return err
		}
	}
	zero := big.NewRat(0, 1)
	half := big.NewRat(1, 2)
	if all || experiment == "hc-load" {
		ran = true
		fmt.Fprintln(w, "── E-HC: HyperCube load vs Proposition 3.2 bound ──")
		for _, q := range []*query.Query{query.Cycle(3), query.Chain(3), query.Star(3)} {
			if _, err := experiments.HCLoad(w, q, n, []int{8, 16, 32, 64, 128, 256}, seed); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	if all || experiment == "lb-fraction" {
		ran = true
		fmt.Fprintln(w, "── E-LB1: answer fraction below the space exponent (Thm 3.3 / Prop 3.11) ──")
		rows, err := experiments.LBFraction(w, query.Cycle(3), n, 0, []int{4, 16, 64, 256}, trials, seed)
		if err != nil {
			return err
		}
		if err := experiments.FractionChart(w, rows); err != nil {
			fmt.Fprintf(w, "(chart skipped: %v)\n", err)
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "witness" {
		ran = true
		fmt.Fprintln(w, "── E-WIT: JOIN-WITNESS (Prop 3.12) ──")
		wn := n
		if wn > 400 {
			wn = 400 // the witness experiment needs many sequential joins
		}
		if _, err := experiments.Witness(w, wn, []int{16, 64, 256}, []float64{0, 0.25, 0.5}, trials, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "rounds" {
		ran = true
		fmt.Fprintln(w, "── E-MR: multi-round plans (Example 4.2 / Lemma 4.3) ──")
		if _, err := experiments.Rounds(w, []int{4, 8, 16}, []*big.Rat{zero, half}, 200, 16, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "round-bounds" {
		ran = true
		fmt.Fprintln(w, "── E-RLB: (ε,r)-plan certificates vs closed forms ──")
		if _, err := experiments.RoundBounds(w, []*big.Rat{zero, half}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "cc" {
		ran = true
		fmt.Fprintln(w, "── E-CC: connected components on layered graphs (Thm 4.10) ──")
		rows, err := experiments.CC(w, []int{4, 16, 64, 256}, 8, seed)
		if err != nil {
			return err
		}
		if err := experiments.CCChart(w, rows); err != nil {
			fmt.Fprintf(w, "(chart skipped: %v)\n", err)
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "skew" {
		ran = true
		fmt.Fprintln(w, "── E-SKEW: heavy hitters vs HC hashing (Sections 2.5/3.3) ──")
		if _, err := experiments.Skew(w, n, 32, 1.1, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "shuffle" {
		ran = true
		fmt.Fprintln(w, "── E-SHUF: columnar exchange shuffle throughput & per-round load ──")
		if _, err := experiments.Shuffle(w, 5*n, []int{8, 32, 64, 128}, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "wire" {
		ran = true
		fmt.Fprintln(w, "── E-WIRE: distributed wire codec throughput (internal/wire) ──")
		if _, err := experiments.Wire(w, []int{1 << 10, 1 << 14, 1 << 17}, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "delta" {
		ran = true
		fmt.Fprintln(w, "── E-DELTA: incremental maintenance vs full re-join ──")
		// The headline cells: maintenance cost is the replication
		// factor regardless of n, so the gap widens with the database.
		if _, err := experiments.Delta(w, []int{10_000, 100_000}, []int{16, 64}, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "recursion" {
		ran = true
		fmt.Fprintln(w, "── E-REC: semi-naive vs naive fixpoint on power-law reachability ──")
		rn := n
		if rn > 400 {
			rn = 400 // naive re-evaluation re-ships the closure every pass
		}
		if _, err := experiments.Recursion(w, []int{rn / 4, rn}, 16, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "opt-shares" {
		ran = true
		fmt.Fprintln(w, "── E-OPT: size-aware vs cover shares (Afrati–Ullman) ──")
		if _, err := experiments.OptimalShares(w, 64); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "friedgut" {
		ran = true
		fmt.Fprintln(w, "── E-FRIED: Friedgut's inequality (Section 2.6) ──")
		if err := experiments.FriedgutCheck(w, 25, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "tail" {
		ran = true
		fmt.Fprintln(w, "── E-TAIL: HC load concentration (Prop 3.2's η) ──")
		if _, err := experiments.Tail(w, query.Cycle(3), 27, 10*trials, 1.25, []int{300, 1200, 4800}, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || experiment == "knowledge" {
		ran = true
		fmt.Fprintln(w, "── E-KNOW: bit-budgeted knowledge (Lemmas 3.6/3.7) ──")
		kn := n
		if kn > 100 {
			kn = 100 // known-answer counts need many trials, keep n modest
		}
		if _, err := experiments.Knowledge(w, kn, 20*trials, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("nothing selected; use -table, -figure, -experiment or -all")
	}
	return nil
}
