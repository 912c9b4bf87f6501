package experiments

// Extension experiments beyond the paper's tables and figures: the
// skew discussion of Sections 2.5/3.3 made quantitative, the
// Afrati-Ullman size-aware share optimization HC builds on, a
// numerical verification of Friedgut's inequality (Section 2.6), and
// ASCII charts for the two headline decay curves.

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"text/tabwriter"
	"time"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/friedgut"
	"repro/internal/hypercube"
	"repro/internal/knowledge"
	"repro/internal/mpc"
	"repro/internal/plot"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
	"repro/internal/theory"
	"repro/internal/wire"
)

// WireRow is one point of the E-WIRE experiment: throughput of the
// distributed runtime's wire codec (internal/wire) on the columnar
// data frame — the serialization cost a TCP shuffle adds on top of
// the in-process loopback.
type WireRow struct {
	// Tuples is the packed tuple count of the encoded buffer.
	Tuples int
	// FrameBytes is the encoded frame size.
	FrameBytes int
	// EncodeMiBPerSec is serialization throughput, the copy a socket
	// write makes of the zero-copy word segment included.
	EncodeMiBPerSec float64
	// DecodeMiBPerSec is deserialization throughput: one copy into word
	// memory and the validation of the run where it lands.
	DecodeMiBPerSec float64
}

// Wire measures encode and decode throughput of the codec every
// connection runs — wire.Writer out, wire.Reader in, both reused from
// frame to frame as a session reuses them — on the columnar data frame
// for each buffer size: 3-ary packed tuples (the triangle-scatter
// shape), repeated enough times to smooth timer noise.
func Wire(w io.Writer, sizes []int, seed uint64) ([]WireRow, error) {
	rng := rand.New(rand.NewPCG(seed, 0x33))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-WIRE: wire codec throughput, packed 3-ary data frames")
	fmt.Fprintln(tw, "tuples\tframe bytes\tencode MiB/s\tdecode MiB/s")
	var rows []WireRow
	for _, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("experiments: wire frame of %d tuples", n)
		}
		buf := relation.NewRun(3)
		row := make(relation.Tuple, 3)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = rng.IntN(1 << 20)
			}
			buf.Append(row)
		}
		buf.Seal()
		frame := &wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Buf: buf}}
		reps := max(3, 2_000_000/n)
		var enc bytes.Buffer
		out := wire.NewWriter(&enc)
		start := time.Now()
		for i := 0; i < reps; i++ {
			enc.Reset()
			if err := out.Flush(frame); err != nil {
				return nil, err
			}
		}
		encSec := time.Since(start).Seconds()
		src := bytes.NewReader(nil)
		in := wire.NewReader(src)
		start = time.Now()
		for i := 0; i < reps; i++ {
			src.Reset(enc.Bytes())
			if _, err := in.Next(); err != nil {
				return nil, err
			}
		}
		decSec := time.Since(start).Seconds()
		mib := float64(enc.Len()) * float64(reps) / (1 << 20)
		r := WireRow{
			Tuples:          n,
			FrameBytes:      enc.Len(),
			EncodeMiBPerSec: mib / encSec,
			DecodeMiBPerSec: mib / decSec,
		}
		rows = append(rows, r)
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\n", r.Tuples, r.FrameBytes, r.EncodeMiBPerSec, r.DecodeMiBPerSec)
	}
	return rows, tw.Flush()
}

// SkewRow is one point of the E-SKEW experiment.
type SkewRow struct {
	Input        string
	Mode         string
	MaxLoad      int64
	HeavyHitters int
	IdealLoad    float64
	Complete     bool
}

// Skew contrasts standard hash partitioning with the heavy-hitter
// resilient discipline on the binary join R(x,y) ⋈ S(y,z): Zipf inputs
// versus matching (skew-free) controls.
func Skew(w io.Writer, n, p int, zipfS float64, seed uint64) ([]SkewRow, error) {
	rng := rand.New(rand.NewPCG(seed, 6))
	var rows []SkewRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-SKEW: R(x,y) ⋈ S(y,z), n=%d, p=%d, Zipf(s=%.2f)\n", n, p, zipfS)
	fmt.Fprintln(tw, "input\tmode\tmax load (tuples)\theavy hitters\tideal 2n/p\tcomplete")
	ideal := 2 * float64(n) / float64(p)
	type inputCase struct {
		name string
		r, s *relation.Relation
	}
	zr, zs := skew.ZipfJoinInput(rng, n, zipfS)
	mr, ms := skew.MatchingJoinInput(rng, n)
	for _, in := range []inputCase{{"zipf", zr, zs}, {"matching", mr, ms}} {
		truth, err := skew.GroundTruth(in.r, in.s)
		if err != nil {
			return nil, err
		}
		for _, mode := range []skew.Mode{skew.Standard, skew.Resilient} {
			res, rt, err := skew.RunJoin(in.r, in.s, p, mode, skew.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			complete := res.Run.Len() == len(truth)
			row := SkewRow{
				Input:        in.name,
				Mode:         mode.String(),
				MaxLoad:      res.Stats.MaxLoadTuples(),
				HeavyHitters: len(rt.Heavy),
				IdealLoad:    ideal,
				Complete:     complete,
			}
			rows = append(rows, row)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%v\n",
				in.name, mode, res.Stats.MaxLoadTuples(), len(rt.Heavy), ideal, complete)
		}
	}
	return rows, tw.Flush()
}

// OptimalSharesRow is one point of the E-OPT experiment.
type OptimalSharesRow struct {
	Sizes     string
	CoverCost int64
	OptCost   int64
	Shares    string
}

// OptimalShares compares vertex-cover shares with size-aware optimal
// shares across cardinality ratios on the cartesian-product query (the
// drug-interaction workload).
func OptimalShares(w io.Writer, p int) ([]OptimalSharesRow, error) {
	q := query.CartesianPair()
	var rows []OptimalSharesRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-OPT: size-aware shares vs cover shares for R(x)×S(y), p=%d\n", p)
	fmt.Fprintln(tw, "|R|,|S|\tcover-shares cost\toptimal cost\toptimal shares")
	coverShares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
	if err != nil {
		return nil, err
	}
	for _, sz := range []struct{ r, s int }{
		{1000, 1000}, {1000, 4000}, {1000, 16000}, {1000, 64000},
	} {
		sizes := map[string]int{"R": sz.r, "S": sz.s}
		coverCost, err := hypercube.CommunicationCost(q, coverShares, sizes)
		if err != nil {
			return nil, err
		}
		opt, err := hypercube.OptimalSharesForSizes(q, sizes, p)
		if err != nil {
			return nil, err
		}
		optCost, err := hypercube.CommunicationCost(q, opt, sizes)
		if err != nil {
			return nil, err
		}
		row := OptimalSharesRow{
			Sizes:     fmt.Sprintf("%d,%d", sz.r, sz.s),
			CoverCost: coverCost,
			OptCost:   optCost,
			Shares:    opt.String(),
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", row.Sizes, coverCost, optCost, opt)
	}
	return rows, tw.Flush()
}

// FriedgutCheck numerically verifies Friedgut's inequality on random
// weighted instances of the running-example queries and the AGM size
// bound on matching databases (experiment E-FRIED).
func FriedgutCheck(w io.Writer, trials int, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 7))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E-FRIED: Friedgut's inequality (Section 2.6), random weights")
	fmt.Fprintln(tw, "query\tcover\ttrials\tmax LHS/RHS")
	cases := []struct {
		q     *query.Query
		cover []*big.Rat
		desc  string
	}{
		{query.Triangle(), []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 2), big.NewRat(1, 2)}, "(1/2,1/2,1/2)"},
		{query.Chain(3), []*big.Rat{big.NewRat(1, 1), big.NewRat(0, 1), big.NewRat(1, 1)}, "(1,0,1)"},
		{query.Star(3), []*big.Rat{big.NewRat(1, 1), big.NewRat(1, 1), big.NewRat(1, 1)}, "(1,1,1)"},
	}
	for _, c := range cases {
		worst := 0.0
		for trial := 0; trial < trials; trial++ {
			ws := map[string]*friedgut.Weights{}
			for _, a := range c.q.Atoms {
				wt := friedgut.NewWeights(a.Arity())
				for i := 0; i < 5+rng.IntN(40); i++ {
					tp := make(relation.Tuple, a.Arity())
					for j := range tp {
						tp[j] = rng.IntN(12) + 1
					}
					if err := wt.Set(tp, rng.Float64()*2); err != nil {
						return err
					}
				}
				ws[a.Name] = wt
			}
			lhs, rhs, err := friedgut.Verify(c.q, ws, c.cover, 1e-9)
			if err != nil {
				return err
			}
			if rhs > 0 && lhs/rhs > worst {
				worst = lhs / rhs
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\n", c.q.Name, c.desc, trials, worst)
	}
	return tw.Flush()
}

// TailRow is one point of the E-TAIL experiment.
type TailRow struct {
	N             int
	Trials        int
	MeanLoad      float64
	ExceedRate    float64 // fraction of trials with max load > threshold·mean
	ThresholdLoad float64
}

// Tail measures the concentration behind Proposition 3.2's failure
// probability η ≤ exp(−O(n/p^{1−ε})): the probability (over hash
// choices) that the HyperCube max load exceeds factor × the expected
// per-server load ℓ·n/p^{1/τ*} shrinks rapidly as n grows (relative
// fluctuations are Θ(1/√(n/p^{1/τ*}))).
func Tail(w io.Writer, q *query.Query, p, trials int, factor float64, ns []int, seed uint64) ([]TailRow, error) {
	rng := rand.New(rand.NewPCG(seed, 8))
	a, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	epsF, _ := a.SpaceExponent().Float64()
	tauF := a.TauFloat()
	var rows []TailRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-TAIL: %s, p=%d, %d hash draws per n, threshold %.2f×expected (ℓ·n/p^(1/τ*))\n",
		q.Name, p, trials, factor)
	fmt.Fprintln(tw, "n\tmean max load\tthreshold\tP[max load > threshold]")
	for _, n := range ns {
		db := relation.MatchingDatabase(rng, q, n)
		expected := float64(q.NumAtoms()) * hypercube.TheoreticalLoad(n, p, tauF)
		threshold := factor * expected
		loads := make([]float64, trials)
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			res, err := hypercube.Run(q, db, p, hypercube.Options{
				Epsilon: epsF,
				Seed:    rng.Uint64(),
			})
			if err != nil {
				return nil, err
			}
			loads[trial] = float64(res.Stats.MaxLoadTuples())
			sum += loads[trial]
		}
		mean := sum / float64(trials)
		exceed := 0
		for _, l := range loads {
			if l > threshold {
				exceed++
			}
		}
		row := TailRow{
			N:             n,
			Trials:        trials,
			MeanLoad:      mean,
			ExceedRate:    float64(exceed) / float64(trials),
			ThresholdLoad: threshold,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.3f\n", n, mean, threshold, row.ExceedRate)
	}
	return rows, tw.Flush()
}

// KnowledgeRow is one point of the E-KNOW experiment.
type KnowledgeRow struct {
	Fraction    float64
	KnownTuples float64 // mean |K(S_j)|/n across relations
	KnownAnswer float64 // mean known answers
	Ceiling     float64 // Lemma 3.7 ceiling Π f^{u_j}·E[|q|]
}

// Knowledge runs the Section 3.2 information experiment on C3: servers
// receive a fraction f of each matching's bits under the prefix
// encoding; the known tuples track f·n (Lemma 3.6) and the known
// answers stay below the tight-packing ceiling (Lemma 3.7).
func Knowledge(w io.Writer, n, trials int, seed uint64) ([]KnowledgeRow, error) {
	q := query.Triangle()
	cr, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	packing := make([]float64, q.NumAtoms())
	for j, u := range cr.EdgePacking {
		packing[j], _ = u.Float64()
	}
	expected, err := theory.ExpectedAnswers(q, n)
	if err != nil {
		return nil, err
	}
	var rows []KnowledgeRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-KNOW: C3, n=%d, %d trials — bit-budgeted knowledge (Lemmas 3.6/3.7)\n", n, trials)
	fmt.Fprintln(tw, "f (bit fraction)\tknown tuples /n\tknown answers (mean)\tceiling Πf^u·E[|q|]")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		rng := rand.New(rand.NewPCG(seed, uint64(frac*1000)))
		tupleFrac, answerSum := 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			db := relation.MatchingDatabase(rng, q, n)
			known := map[string][]relation.Tuple{}
			for _, a := range q.Atoms {
				rel, _ := db.Relation(a.Name)
				k, err := knowledge.FractionKnowledge(rel, n, frac)
				if err != nil {
					return nil, err
				}
				known[a.Name] = k
				tupleFrac += float64(len(k)) / float64(n) / float64(q.NumAtoms())
			}
			ans, err := knowledge.KnownAnswers(q, known)
			if err != nil {
				return nil, err
			}
			answerSum += float64(len(ans))
		}
		fracs := []float64{frac, frac, frac}
		ceiling, err := knowledge.AnswerBound(q, fracs, packing, expected)
		if err != nil {
			return nil, err
		}
		row := KnowledgeRow{
			Fraction:    frac,
			KnownTuples: tupleFrac / float64(trials),
			KnownAnswer: answerSum / float64(trials),
			Ceiling:     ceiling,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%.1f\t%.3f\t%.3f\t%.3f\n", frac, row.KnownTuples, row.KnownAnswer, ceiling)
	}
	return rows, tw.Flush()
}

// FractionChart renders the E-LB1 decay as a log-log ASCII chart.
func FractionChart(w io.Writer, rows []LBFractionRow) error {
	c := plot.New("answer fraction vs p (log-log): measured (o) vs Thm 3.3 ceiling (+)")
	c.LogX, c.LogY = true, true
	var xs, measured, predicted []float64
	for _, r := range rows {
		xs = append(xs, float64(r.P))
		measured = append(measured, r.MeasuredFraction)
		predicted = append(predicted, r.PredictedFraction)
	}
	c.Add(plot.Series{Name: "measured", Marker: 'o', X: xs, Y: measured})
	c.Add(plot.Series{Name: "ceiling", Marker: '+', X: xs, Y: predicted})
	return c.Render(w)
}

// CCChart renders the E-CC round growth.
func CCChart(w io.Writer, rows []CCRow) error {
	c := plot.New("connected-components rounds vs p: neighbor-min (o), hash-to-min (x), dense (d)")
	c.LogX = true
	var xs, nm, h2m, dense []float64
	for _, r := range rows {
		xs = append(xs, float64(r.P))
		nm = append(nm, float64(r.NMRounds))
		h2m = append(h2m, float64(r.H2MRounds))
		dense = append(dense, float64(r.DenseRound))
	}
	c.Add(plot.Series{Name: "neighbor-min", Marker: 'o', X: xs, Y: nm})
	c.Add(plot.Series{Name: "hash-to-min", Marker: 'x', X: xs, Y: h2m})
	c.Add(plot.Series{Name: "dense", Marker: 'd', X: xs, Y: dense})
	return c.Render(w)
}

// ShuffleRow is one point of the E-SHUF experiment: the columnar
// exchange's shuffle throughput on the triangle query, alongside the
// paper's per-round load metric.
type ShuffleRow struct {
	N            int
	P            int
	RoutedTuples int64
	TotalBits    int64
	MaxLoadBits  int64
	Seconds      float64
	TuplesPerSec float64
	MiBPerSec    float64
}

// Shuffle times the HyperCube scatter of the triangle query through
// the columnar exchange for each p: tuples routed per second, MiB of
// accounted communication per second, and the per-round max load the
// paper's bounds govern — the wall-clock and model views of the same
// round in one table.
func Shuffle(w io.Writer, n int, ps []int, seed uint64) ([]ShuffleRow, error) {
	q := query.Triangle()
	rng := rand.New(rand.NewPCG(seed, 17))
	db := relation.MatchingDatabase(rng, q, n)
	var rows []ShuffleRow
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E-SHUF: columnar exchange shuffle, triangle query, n=%d\n", n)
	fmt.Fprintln(tw, "p\trouted tuples\ttuples/s\tMiB/s\tmax load (bits)\ttotal (bits)")
	for _, p := range ps {
		shares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
		if err != nil {
			return nil, err
		}
		hasher := hypercube.NewHasher(shares, seed)
		cluster, ctx, err := dist.Open(dist.Options{}, mpc.Config{
			Workers:   p,
			Epsilon:   1,
			InputBits: db.InputBits(),
			DomainN:   db.N,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		cluster.BeginRound()
		for _, a := range q.Atoms {
			rel, ok := db.Relation(a.Name)
			if !ok {
				return nil, fmt.Errorf("experiments: missing relation %s", a.Name)
			}
			if err := cluster.Scatter(ctx, rel, "", hypercube.NewGridPartitioner(shares, hasher, a)); err != nil {
				return nil, err
			}
		}
		if err := cluster.EndRound(ctx); err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		rs := cluster.Stats().Rounds[0]
		row := ShuffleRow{
			N:            n,
			P:            p,
			RoutedTuples: rs.TotalTuples,
			TotalBits:    rs.TotalBits,
			MaxLoadBits:  rs.MaxReceivedBits,
			Seconds:      elapsed,
			TuplesPerSec: float64(rs.TotalTuples) / elapsed,
			MiBPerSec:    float64(rs.TotalBits) / 8 / (1 << 20) / elapsed,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%d\t%d\t%.3g\t%.2f\t%d\t%d\n",
			p, row.RoutedTuples, row.TuplesPerSec, row.MiBPerSec, row.MaxLoadBits, row.TotalBits)
	}
	return rows, tw.Flush()
}
