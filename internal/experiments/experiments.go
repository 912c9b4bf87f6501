// Package experiments regenerates every table and figure of Beame,
// Koutris, Suciu (PODS 2013) plus the quantitative experiments implied
// by the theorems. Each experiment writes a human-readable table to an
// io.Writer and returns structured rows so the benchmark harness and
// tests can assert on the numbers. The experiment IDs (T1, T2, F1,
// E-HC, E-LB1, E-WIT, E-MR, E-RLB, E-CC) are the ones cmd/mpcbench
// prints.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"text/tabwriter"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/theory"
	"repro/internal/witness"
)

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Query            string
	ExpectedAnalytic float64
	MeasuredMean     float64
	Tau              *big.Rat
	SpaceExponent    *big.Rat
	VertexCover      []*big.Rat
	ShareExponents   []*big.Rat
}

// table1Queries returns the query families of Table 1 at
// representative sizes.
func table1Queries() []*query.Query {
	return []*query.Query{
		query.Cycle(3), query.Cycle(4), query.Cycle(6),
		query.Star(3), query.Star(5),
		query.Chain(2), query.Chain(3), query.Chain(5),
		query.Binom(3, 2), query.Binom(4, 2), query.Binom(4, 3),
	}
}

// Table1 regenerates Table 1: for each running-example query it
// reports the analytic expected answer count n^{1+χ}, the measured
// mean over `trials` random matching databases, the optimal fractional
// vertex cover, share exponents, τ* and the space exponent.
func Table1(w io.Writer, n, trials int, seed uint64) ([]Table1Row, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	var rows []Table1Row
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tE[|q|] analytic\tE[|q|] measured\tmin vertex cover\tshare exponents\tτ*\tspace exponent")
	for _, q := range table1Queries() {
		a, err := core.Analyze(q)
		if err != nil {
			return nil, err
		}
		analytic, err := a.ExpectedAnswers(n)
		if err != nil {
			return nil, err
		}
		total := 0
		for trial := 0; trial < trials; trial++ {
			db := relation.MatchingDatabase(rng, q, n)
			truth, err := core.GroundTruth(q, db)
			if err != nil {
				return nil, err
			}
			total += len(truth)
		}
		measured := float64(total) / float64(trials)
		row := Table1Row{
			Query:            q.Name,
			ExpectedAnalytic: analytic,
			MeasuredMean:     measured,
			Tau:              a.Tau,
			SpaceExponent:    a.SpaceExponent,
			VertexCover:      a.VertexCover,
			ShareExponents:   a.ShareExponents,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%s\t%s\t%s\t%s\n",
			q.Name, analytic, measured,
			ratVec(a.VertexCover), ratVec(a.ShareExponents),
			a.Tau.RatString(), a.SpaceExponent.RatString())
	}
	return rows, tw.Flush()
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Query         string
	SpaceExponent *big.Rat
	RoundsEps0    int
	PlanRounds    int
	Tradeoff      string
}

// Table2 regenerates Table 2: per query family, the space exponent,
// the number of rounds for ε = 0 (formula and the greedy plan's actual
// depth), and the rounds/space tradeoff.
func Table2(w io.Writer) ([]Table2Row, error) {
	zero := big.NewRat(0, 1)
	type entry struct {
		q        *query.Query
		formula  int
		tradeoff string
	}
	ceilLog2 := func(k int) int {
		r, pow := 0, 1
		for pow < k {
			pow *= 2
			r++
		}
		return r
	}
	entries := []entry{
		{query.Cycle(8), ceilLog2(8), "~log k / log(2/(1-ε))"},
		{query.Cycle(16), ceilLog2(16), "~log k / log(2/(1-ε))"},
		{query.Chain(8), ceilLog2(8), "~log k / log(2/(1-ε))"},
		{query.Chain(16), ceilLog2(16), "~log k / log(2/(1-ε))"},
		{query.Star(8), 1, "NA"},
		{query.SpokedWheel(4), 2, "NA"},
	}
	var rows []Table2Row
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tspace exponent\trounds(ε=0) formula\trounds(ε=0) greedy plan\ttradeoff")
	for _, e := range entries {
		a, err := core.Analyze(e.q)
		if err != nil {
			return nil, err
		}
		plan, err := multiround.Build(e.q, zero)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Query:         e.q.Name,
			SpaceExponent: a.SpaceExponent,
			RoundsEps0:    e.formula,
			PlanRounds:    plan.Rounds(),
			Tradeoff:      e.tradeoff,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\n",
			e.q.Name, a.SpaceExponent.RatString(), e.formula, plan.Rounds(), e.tradeoff)
	}
	return rows, tw.Flush()
}

// Figure1 prints the vertex-cover LP and edge-packing LP of Figure 1
// for each query, their optimal solutions, and verifies duality and
// tightness.
func Figure1(w io.Writer, queries []*query.Query) error {
	for _, q := range queries {
		fmt.Fprintf(w, "=== %s ===\n", q)
		vcLP := cover.VertexCoverLP(q)
		epLP := cover.EdgePackingLP(q)
		fmt.Fprintf(w, "vertex covering LP:\n%s", indent(vcLP.String()))
		fmt.Fprintf(w, "edge packing LP:\n%s", indent(epLP.String()))
		r, err := cover.Solve(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "optimal: τ* = %s (duality verified)\n", r.Tau.RatString())
		fmt.Fprintf(w, "cover:  %s (tight: %v)\n", ratVecNamed(q.Vars(), r.VertexCover), r.CoverTight())
		names := make([]string, q.NumAtoms())
		for i, a := range q.Atoms {
			names[i] = a.Name
		}
		fmt.Fprintf(w, "packing: %s (tight: %v)\n\n", ratVecNamed(names, r.EdgePacking), r.PackingTight())
	}
	return nil
}

// HCLoadRow is one point of the E-HC load experiment.
type HCLoadRow struct {
	Query       string
	N, P        int
	MaxTuples   int64
	BoundTuples float64
	Ratio       float64
	Complete    bool
}

// HCLoad measures the HyperCube maximum per-server load against the
// Proposition 3.2 bound ℓ·n/p^{1/τ*} across a p sweep, verifying that
// every answer is found.
func HCLoad(w io.Writer, q *query.Query, n int, ps []int, seed uint64) ([]HCLoadRow, error) {
	rng := rand.New(rand.NewPCG(seed, 2))
	db := relation.MatchingDatabase(rng, q, n)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(q)
	if err != nil {
		return nil, err
	}
	tau := a.Tau
	tauF, _ := tau.Float64()
	var rows []HCLoadRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-HC: %s, n=%d (bound = ℓ·n/p^(1/τ*), τ* = %s)\n", q.Name, n, tau.RatString())
	fmt.Fprintln(tw, "p\tmax tuples/server\tbound\tratio\tall answers")
	epsF, _ := a.SpaceExponent.Float64()
	for _, p := range ps {
		res, err := hypercube.Run(q, db, p, hypercube.Options{
			Epsilon: epsF,
			Seed:    seed,
		})
		if err != nil {
			return nil, err
		}
		bound := float64(q.NumAtoms()) * hypercube.TheoreticalLoad(n, p, tauF)
		complete := res.Run.Len() == len(truth)
		row := HCLoadRow{
			Query:       q.Name,
			N:           n,
			P:           p,
			MaxTuples:   res.Stats.MaxLoadTuples(),
			BoundTuples: bound,
			Ratio:       float64(res.Stats.MaxLoadTuples()) / bound,
			Complete:    complete,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.2f\t%v\n", p, row.MaxTuples, bound, row.Ratio, complete)
	}
	return rows, tw.Flush()
}

// LBFractionRow is one point of the E-LB1 experiment.
type LBFractionRow struct {
	P                 int
	MeasuredFraction  float64
	PredictedFraction float64
}

// LBFraction runs the Proposition 3.11 sampled algorithm below the
// space exponent and compares the measured answer fraction with the
// Theorem 3.3 ceiling 1/p^{τ*(1−ε)−1}.
func LBFraction(w io.Writer, q *query.Query, n int, eps float64, ps []int, trials int, seed uint64) ([]LBFractionRow, error) {
	rng := rand.New(rand.NewPCG(seed, 3))
	var rows []LBFractionRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-LB1: %s at ε=%.3f, n=%d (%d trials)\n", q.Name, eps, n, trials)
	fmt.Fprintln(tw, "p\tmeasured fraction\ttheoretical ceiling 1/p^(τ*(1-ε)-1)")
	for _, p := range ps {
		foundSum, truthSum := 0, 0
		for trial := 0; trial < trials; trial++ {
			db := relation.MatchingDatabase(rng, q, n)
			truth, err := core.GroundTruth(q, db)
			if err != nil {
				return nil, err
			}
			res, err := hypercube.RunSampled(q, db, p, hypercube.Options{
				Epsilon: eps,
				Seed:    rng.Uint64(),
			})
			if err != nil {
				return nil, err
			}
			foundSum += res.Run.Len()
			truthSum += len(truth)
		}
		measured := 0.0
		if truthSum > 0 {
			measured = float64(foundSum) / float64(truthSum)
		}
		predicted, err := theory.OneRoundFraction(q, eps, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LBFractionRow{P: p, MeasuredFraction: measured, PredictedFraction: predicted})
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\n", p, measured, predicted)
	}
	return rows, tw.Flush()
}

// WitnessRow is one point of the E-WIT experiment.
type WitnessRow struct {
	P           int
	Eps         float64
	SuccessProb float64
}

// Witness runs the Proposition 3.12 JOIN-WITNESS experiment: the
// conditional success probability of the one-round algorithm across p,
// for ε below and at the 1/2 threshold.
func Witness(w io.Writer, n int, ps []int, epss []float64, trials int, seed uint64) ([]WitnessRow, error) {
	var rows []WitnessRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-WIT: n=%d, %d trials per cell\n", n, trials)
	fmt.Fprintln(tw, "p\tε\tP[witness found | witness exists]")
	for _, eps := range epss {
		for _, p := range ps {
			rng := rand.New(rand.NewPCG(seed, uint64(p)*1000+uint64(eps*100)))
			prob, err := witness.SuccessProbability(rng, n, p, eps, trials)
			if err != nil {
				return nil, err
			}
			rows = append(rows, WitnessRow{P: p, Eps: eps, SuccessProb: prob})
			fmt.Fprintf(tw, "%d\t%.2f\t%.3f\n", p, eps, prob)
		}
	}
	return rows, tw.Flush()
}

// RoundsRow is one point of the E-MR experiment.
type RoundsRow struct {
	Query      string
	Eps        *big.Rat
	PlanRounds int
	Executed   int
	Lower      int
	Upper      int
	Complete   bool
}

// Rounds builds and executes Γ^r_ε plans for chain queries across ε,
// checking that the executed round count matches ⌈log_{kε} k⌉ and
// that all answers are found.
func Rounds(w io.Writer, ks []int, epss []*big.Rat, n, p int, seed uint64) ([]RoundsRow, error) {
	rng := rand.New(rand.NewPCG(seed, 4))
	var rows []RoundsRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-MR: chain queries, n=%d, p=%d\n", n, p)
	fmt.Fprintln(tw, "query\tε\tlower\tplan\texecuted\tupper\tcomplete")
	for _, k := range ks {
		q := query.Chain(k)
		db := relation.MatchingDatabase(rng, q, n)
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			return nil, err
		}
		for _, eps := range epss {
			plan, err := multiround.Build(q, eps)
			if err != nil {
				return nil, err
			}
			res, err := multiround.Execute(plan, db, p, multiround.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			lower, err := theory.RoundsLowerBound(q, eps)
			if err != nil {
				return nil, err
			}
			upper, err := theory.RoundsUpperBound(q, eps)
			if err != nil {
				return nil, err
			}
			complete := res.Run.Len() == len(truth)
			rows = append(rows, RoundsRow{
				Query: q.Name, Eps: eps, PlanRounds: plan.Rounds(),
				Executed: res.Stats.NumRounds(), Lower: lower, Upper: upper, Complete: complete,
			})
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%v\n",
				q.Name, eps.RatString(), lower, plan.Rounds(), res.Stats.NumRounds(), upper, complete)
		}
	}
	return rows, tw.Flush()
}

// RoundBoundsRow is one line of the E-RLB experiment.
type RoundBoundsRow struct {
	Query     string
	Eps       *big.Rat
	PlanLower int // certified by the (ε,r)-plan construction
	Formula   int // closed-form lower bound
	Upper     int
}

// RoundBounds verifies the (ε,r)-plan constructions of Lemmas 4.6/4.9
// and tabulates certified lower bounds against the closed forms and
// the Lemma 4.3 upper bounds.
func RoundBounds(w io.Writer, epss []*big.Rat) ([]RoundBoundsRow, error) {
	var rows []RoundBoundsRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-RLB: (ε,r)-plan certificates (Theorem 4.5 / Lemmas 4.6, 4.9)")
	fmt.Fprintln(tw, "query\tε\tplan lower\tformula lower\tupper")
	for _, eps := range epss {
		ke, err := theory.KEpsilon(eps)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{ke + 1, 2 * ke, 3*ke + 1, ke * ke * 2} {
			plan, err := theory.ChainPlan(k, eps)
			if err != nil {
				return nil, err
			}
			if _, err := plan.Verify(eps); err != nil {
				return nil, fmt.Errorf("chain plan L%d: %w", k, err)
			}
			formula, err := theory.ChainRoundsLower(k, eps)
			if err != nil {
				return nil, err
			}
			upper, err := theory.RoundsUpperBound(query.Chain(k), eps)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RoundBoundsRow{
				Query: fmt.Sprintf("L%d", k), Eps: eps,
				PlanLower: plan.LowerBound(), Formula: formula, Upper: upper,
			})
			fmt.Fprintf(tw, "L%d\t%s\t%d\t%d\t%d\n", k, eps.RatString(), plan.LowerBound(), formula, upper)
		}
		me, err := theory.MEpsilon(eps)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{me + 1, 4 * me, 8 * me} {
			plan, err := theory.CyclePlan(k, eps)
			if err != nil {
				return nil, err
			}
			if _, err := plan.Verify(eps); err != nil {
				return nil, fmt.Errorf("cycle plan C%d: %w", k, err)
			}
			formula, err := theory.CycleRoundsLower(k, eps)
			if err != nil {
				return nil, err
			}
			upper, err := theory.RoundsUpperBound(query.Cycle(k), eps)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RoundBoundsRow{
				Query: fmt.Sprintf("C%d", k), Eps: eps,
				PlanLower: plan.LowerBound(), Formula: formula, Upper: upper,
			})
			fmt.Fprintf(tw, "C%d\t%s\t%d\t%d\t%d\n", k, eps.RatString(), plan.LowerBound(), formula, upper)
		}
	}
	return rows, tw.Flush()
}

// CCRow is one point of the E-CC experiment.
type CCRow struct {
	P          int
	Layers     int
	NMRounds   int
	H2MRounds  int
	DenseRound int
	LowerLogP  float64
}

// CC runs connected components on the Theorem 4.10 layered family with
// k = ⌊p^δ⌋ layers (δ = 1/2 for ε = 0), reporting rounds for
// neighbor-min, hash-to-min, and the dense two-round contrast.
func CC(w io.Writer, ps []int, width int, seed uint64) ([]CCRow, error) {
	rng := rand.New(rand.NewPCG(seed, 5))
	var rows []CCRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-CC: layered graphs, k = ⌊√p⌋ layers (Theorem 4.10)")
	fmt.Fprintln(tw, "p\tlayers\tneighbor-min rounds\thash-to-min rounds\tdense rounds\tlog2 p")
	for _, p := range ps {
		layers := int(math.Sqrt(float64(p)))
		if layers < 2 {
			layers = 2
		}
		g, err := cc.Layered(rng, layers, width)
		if err != nil {
			return nil, err
		}
		truth := cc.SequentialComponents(g)
		nm, err := cc.Run(g, cc.NeighborMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: seed})
		if err != nil {
			return nil, err
		}
		h2m, err := cc.Run(g, cc.HashToMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: seed})
		if err != nil {
			return nil, err
		}
		dense, err := cc.DenseTwoRound(g, cc.Options{Workers: p, Epsilon: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		for v, l := range truth {
			if nm.Labels[v] != l || h2m.Labels[v] != l || dense.Labels[v] != l {
				return nil, fmt.Errorf("cc experiment: wrong label for vertex %d at p=%d", v, p)
			}
		}
		rows = append(rows, CCRow{
			P: p, Layers: layers,
			NMRounds: nm.Stats.NumRounds(), H2MRounds: h2m.Stats.NumRounds(), DenseRound: dense.Stats.NumRounds(),
			LowerLogP: math.Log2(float64(p)),
		})
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1f\n",
			p, layers, nm.Stats.NumRounds(), h2m.Stats.NumRounds(), dense.Stats.NumRounds(), math.Log2(float64(p)))
	}
	return rows, tw.Flush()
}

func ratVec(rs []*big.Rat) string {
	out := "("
	for i, r := range rs {
		if i > 0 {
			out += ","
		}
		out += r.RatString()
	}
	return out + ")"
}

func ratVecNamed(names []string, rs []*big.Rat) string {
	out := ""
	for i, r := range rs {
		if i > 0 {
			out += " "
		}
		out += names[i] + "=" + r.RatString()
	}
	return out
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "  " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
