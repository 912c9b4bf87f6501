package repro

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the quantitative experiments implied by the theorems and the
// design-choice ablations (share rounding, placement hashing, local
// join strategies, shuffle paths — see README.md). Domain metrics
// (round counts, load ratios, answer fractions) are attached to each
// benchmark via b.ReportMetric, so `go test -bench . -benchmem`
// regenerates the paper's numbers alongside timing data.

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/multiround"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
	"repro/internal/theory"
	"repro/internal/witness"
)

// BenchmarkTable1 regenerates Table 1 (expected answer sizes, vertex
// covers, share exponents, τ*, space exponents).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(io.Discard, 200, 3, 2013); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (rounds/space tradeoffs).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 solves both Figure 1 LPs for the running examples.
func BenchmarkFigure1(b *testing.B) {
	qs := []*query.Query{query.Chain(3), query.Cycle(3), query.Star(3), query.Binom(4, 2)}
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard, qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHCLoad measures the one-round HyperCube max load against
// the Proposition 3.2 bound (experiment E-HC), one sub-benchmark per
// query family and p.
func BenchmarkHCLoad(b *testing.B) {
	for _, tc := range []struct {
		q *query.Query
		p int
	}{
		{query.Cycle(3), 64},
		{query.Cycle(3), 256},
		{query.Chain(3), 64},
		{query.Star(3), 64},
	} {
		b.Run(fmt.Sprintf("%s/p=%d", tc.q.Name, tc.p), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 1))
			n := 3000
			db := relation.MatchingDatabase(rng, tc.q, n)
			a, err := core.Analyze(tc.q)
			if err != nil {
				b.Fatal(err)
			}
			epsF, _ := a.SpaceExponent.Float64()
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := hypercube.Run(tc.q, db, tc.p, hypercube.Options{
					Epsilon: epsF, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				tauF, _ := a.Tau.Float64()
				bound := float64(tc.q.NumAtoms()) * hypercube.TheoreticalLoad(n, tc.p, tauF)
				ratio = float64(res.Stats.MaxLoadTuples()) / bound
			}
			b.ReportMetric(ratio, "load/bound")
		})
	}
}

// BenchmarkOneRoundFraction runs the Prop 3.11 sampled algorithm below
// the space exponent (experiment E-LB1) and reports the found answer
// fraction against the Theorem 3.3 ceiling.
func BenchmarkOneRoundFraction(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("C3/eps=0/p=%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2, 2))
			q := query.Cycle(3)
			n := 2000
			const trials = 12 // E[|C3|] = 1 per db; aggregate for a stable fraction
			var measured, predicted float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				found, total := 0, 0
				for trial := 0; trial < trials; trial++ {
					db := relation.MatchingDatabase(rng, q, n)
					truth, err := core.GroundTruth(q, db)
					if err != nil {
						b.Fatal(err)
					}
					res, err := hypercube.RunSampled(q, db, p, hypercube.Options{
						Epsilon: 0, Seed: rng.Uint64(),
					})
					if err != nil {
						b.Fatal(err)
					}
					found += res.Run.Len()
					total += len(truth)
				}
				if total > 0 {
					measured = float64(found) / float64(total)
				}
				var err error
				predicted, err = theory.OneRoundFraction(q, 0, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(measured, "fraction")
			b.ReportMetric(predicted, "ceiling")
		})
	}
}

// BenchmarkMultiRound builds and executes Γ^r_ε plans (experiment
// E-MR), reporting the executed round count.
func BenchmarkMultiRound(b *testing.B) {
	for _, tc := range []struct {
		k       int
		eps     *big.Rat
		epsName string
	}{
		{8, big.NewRat(0, 1), "0"},
		{16, big.NewRat(0, 1), "0"},
		{16, big.NewRat(1, 2), "1_2"},
		{64, big.NewRat(1, 2), "1_2"},
	} {
		b.Run(fmt.Sprintf("L%d/eps=%s", tc.k, tc.epsName), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 3))
			q := query.Chain(tc.k)
			db := relation.MatchingDatabase(rng, q, 500)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := multiround.Build(q, tc.eps)
				if err != nil {
					b.Fatal(err)
				}
				res, err := multiround.Execute(plan, db, 16, multiround.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.NumRounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkRoundBounds verifies the (ε,r)-plan certificates
// (experiment E-RLB).
func BenchmarkRoundBounds(b *testing.B) {
	epss := []*big.Rat{big.NewRat(0, 1), big.NewRat(1, 2)}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RoundBounds(io.Discard, epss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectedComponents runs the Theorem 4.10 experiment
// (E-CC), reporting the round count of each strategy on the layered
// family.
func BenchmarkConnectedComponents(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(4, 4))
			layers := 2
			for layers*layers < p {
				layers++
			}
			g, err := cc.Layered(rng, layers, 8)
			if err != nil {
				b.Fatal(err)
			}
			var nm, h2m int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rn, err := cc.Run(g, cc.NeighborMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rh, err := cc.Run(g, cc.HashToMin, cc.Options{Workers: p, Epsilon: 0.5, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				nm, h2m = rn.Stats.NumRounds(), rh.Stats.NumRounds()
			}
			b.ReportMetric(float64(nm), "neighbor-min-rounds")
			b.ReportMetric(float64(h2m), "hash-to-min-rounds")
		})
	}
}

// BenchmarkWitness runs the Proposition 3.12 JOIN-WITNESS experiment
// (E-WIT) and reports the conditional success probability.
func BenchmarkWitness(b *testing.B) {
	for _, tc := range []struct {
		p   int
		eps float64
	}{
		{64, 0.0},
		{64, 0.5},
	} {
		b.Run(fmt.Sprintf("p=%d/eps=%.1f", tc.p, tc.eps), func(b *testing.B) {
			var prob float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(5, uint64(i)))
				pr, err := witness.SuccessProbability(rng, 144, tc.p, tc.eps, 4)
				if err != nil {
					b.Fatal(err)
				}
				prob = pr
			}
			b.ReportMetric(prob, "success")
		})
	}
}

// --- ablation benches (design choices, see README.md) ---

// BenchmarkShareRounding compares greedy vs floor-only integer share
// rounding by realized grid utilization.
func BenchmarkShareRounding(b *testing.B) {
	q := query.Triangle()
	for _, mode := range []struct {
		name string
		m    hypercube.RoundingMode
	}{
		{"greedy", hypercube.GreedyRounding},
		{"floor", hypercube.FloorRounding},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var util float64
			p := 50 // not a perfect cube: rounding matters
			for i := 0; i < b.N; i++ {
				s, err := hypercube.SharesForQuery(q, p, mode.m)
				if err != nil {
					b.Fatal(err)
				}
				util = float64(s.GridSize()) / float64(p)
			}
			b.ReportMetric(util, "grid-utilization")
		})
	}
}

// BenchmarkHashSkew measures the max/mean load ratio of the HC hash
// routing on matching databases (hashing quality ablation).
func BenchmarkHashSkew(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	q := query.Triangle()
	n := 4000
	p := 64
	db := relation.MatchingDatabase(rng, q, n)
	var skew float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hypercube.Run(q, db, p, hypercube.Options{Epsilon: 1.0 / 3.0, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		total := res.Stats.Rounds[0].TotalTuples
		mean := float64(total) / float64(p)
		skew = float64(res.Stats.MaxLoadTuples()) / mean
	}
	b.ReportMetric(skew, "max/mean")
}

// BenchmarkLocalJoin compares the two per-worker join strategies.
func BenchmarkLocalJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	q := query.Cycle(3)
	n := 400
	db := relation.MatchingDatabase(rng, q, n)
	bindings, err := localjoin.FromDatabase(q, db)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range joinStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.Evaluate(q, bindings, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// joinStrategies are the head-to-head contenders for the local join
// benchmarks below: the pairwise hash pipeline of the ground-truth
// oracle and the worst-case-optimal leapfrog join the workers run
// (localjoin.Default). The tuple-at-a-time backtracking join that used
// to run here is a test reference inside internal/localjoin; README,
// "The local join", keeps its numbers.
var joinStrategies = []localjoin.Strategy{localjoin.HashJoin, localjoin.Default}

// BenchmarkJoinTriangle is the cyclic-query head-to-head: the triangle
// C3 on matching databases. At n ≥ 10^4 the WCOJ evaluator must stay in
// the same league as the hash pipeline (whose pairwise intermediate is
// linear on matchings but quadratic on skewed inputs).
func BenchmarkJoinTriangle(b *testing.B) {
	q := query.Triangle()
	for _, n := range []int{1000, 10000} {
		rng := rand.New(rand.NewPCG(11, uint64(n)))
		db := relation.MatchingDatabase(rng, q, n)
		bindings, err := localjoin.FromDatabase(q, db)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range joinStrategies {
			b.Run(fmt.Sprintf("%v/n=%d", strat, n), func(b *testing.B) {
				var answers int
				for i := 0; i < b.N; i++ {
					out, err := localjoin.Evaluate(q, bindings, strat)
					if err != nil {
						b.Fatal(err)
					}
					answers = len(out)
				}
				b.ReportMetric(float64(answers), "answers")
			})
		}
	}
}

// BenchmarkWorkerJoinTriangle times the worker stage of one fat
// HyperCube round in isolation, at the shape of the end-to-end
// benchmark's tri_warm workload: three n = 100 000 matchings routed at
// shares 3×2×2 over p = 16, then Loopback Deliver + Join + Gather (the
// same workerStore code the mpcworker session runs). The partitioning is
// set-up. A sealed run remembers what a join derived from it, so the two
// joins a worker can be asked for are timed apart: cold is a first
// sighting — every iteration delivers runs nobody has read, re-adopted
// from the same words outside the timer, to a fresh pool, and pays the
// store merge (one piece per sender shard, so -cpu 1 has none) and the
// permuted atom's sort; warm is every later one — one pool, the join and
// its gather repeated over stores that are standing. B/op is the memory
// the join stage allocates per round across all workers.
//
// planted is warm over the same shape with n/1000 triangles planted
// (plantedTriangles), so the levels below depth 0 have answers to find.
func BenchmarkWorkerJoinTriangle(b *testing.B) {
	q := query.Triangle()
	n, p := 100000, 16
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(31, 31)), q, n)
	tuples := map[string][]relation.Tuple{}
	for _, a := range q.Atoms {
		rel, _ := db.Relation(a.Name)
		tuples[a.Name] = rel.Tuples
	}
	ds := routeTriangle(b, q, tuples, p)
	joinGather := []dist.Op{
		{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: q.String(), View: "out"}},
		{Kind: dist.OpGather, View: "out"},
	}
	ctx := context.Background()
	run := func(b *testing.B, l *dist.Loopback, script []dist.Op) (answers int) {
		reply, err := l.Run(ctx, script)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reply.Runs {
			answers += r.Len()
		}
		return answers
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		answers := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			unread := slices.Clone(ds)
			for j, d := range ds {
				var err error
				if unread[j].Buf, err = relation.NewRunFromWords(d.Buf.Arity(), d.Buf.Stride(), d.Buf.Words()); err != nil {
					b.Fatal(err)
				}
			}
			script := append([]dist.Op{{Kind: dist.OpDeliver, Round: 1, Deliveries: unread}}, joinGather...)
			b.StartTimer()
			answers = run(b, dist.NewLoopback(p), script)
		}
		b.ReportMetric(float64(answers), "answers")
	})
	warm := func(ds []exchange.Delivery) func(b *testing.B) {
		return func(b *testing.B) {
			l := dist.NewLoopback(p)
			answers := run(b, l, append([]dist.Op{{Kind: dist.OpDeliver, Round: 1, Deliveries: ds}}, joinGather...))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answers = run(b, l, joinGather)
			}
			b.ReportMetric(float64(answers), "answers")
		}
	}
	b.Run("warm", warm(ds))
	planted, _ := plantedTriangles(rand.New(rand.NewPCG(31, 32)), q, n)
	b.Run("planted", warm(routeTriangle(b, q, planted, p)))
}

// routeTriangle partitions the triangle's relations as one HyperCube
// round at tri_warm's shares, 3×2×2 over p workers.
func routeTriangle(tb testing.TB, q *query.Query, tuples map[string][]relation.Tuple, p int) []exchange.Delivery {
	s := &hypercube.Shares{Vars: q.Vars(), Dims: []int{3, 2, 2}}
	h := hypercube.NewHasher(s, 5)
	var ds []exchange.Delivery
	for _, a := range q.Atoms {
		part, err := exchange.Partition(a.Name, tuples[a.Name], a.Arity(), p, hypercube.NewGridPartitioner(s, h, a))
		if err != nil {
			tb.Fatal(err)
		}
		ds = append(ds, part...)
	}
	return ds
}

// plantedTriangles returns the triangle's three relations as n-matchings
// over 1…n in which n/1000 triangles (at least 3) are planted by rewiring
// S3, every relation staying a matching, and the planted triangles in
// q.Vars() order. A random instance has one triangle in expectation. The
// rewiring is the end-to-end benchmark's (genTriangle in bench/).
func plantedTriangles(rng *rand.Rand, q *query.Query, n int) (map[string][]relation.Tuple, []relation.Tuple) {
	perm := func() []int {
		p := rng.Perm(n)
		for i := range p {
			p[i]++
		}
		return p
	}
	p1, p2, p3 := perm(), perm(), perm()
	inv3 := make([]int, n+1) // value → source of p3
	for i, v := range p3 {
		inv3[v] = i + 1
	}
	var planted []relation.Tuple
	for _, x1 := range perm()[:max(3, n/1000)] {
		x2 := p1[x1-1]
		x3 := p2[x2-1]
		// Make S3 map x3 → x1 by swapping with the source that
		// currently maps to x1.
		j, old := inv3[x1], p3[x3-1]
		p3[x3-1], p3[j-1] = x1, old
		inv3[x1], inv3[old] = x3, j
		planted = append(planted, relation.Tuple{x1, x2, x3})
	}
	tuples := map[string][]relation.Tuple{}
	for i, perm := range [][]int{p1, p2, p3} {
		rel := make([]relation.Tuple, n)
		for k, v := range perm {
			rel[k] = relation.Tuple{k + 1, v}
		}
		tuples[q.Atoms[i].Name] = rel
	}
	return tuples, planted
}

// TestWorkerJoinTrianglePlanted runs the worker join at
// BenchmarkWorkerJoinTriangle's shape over planted triangles: every
// cell's EvaluateRuns equals the hash join of the runs the cell holds, and
// the cells' answers together hold every planted triangle.
func TestWorkerJoinTrianglePlanted(t *testing.T) {
	q := query.Triangle()
	const n, p = 100000, 16
	tuples, planted := plantedTriangles(rand.New(rand.NewPCG(31, 32)), q, n)
	cells := make([]localjoin.Runs, p)
	for _, d := range routeTriangle(t, q, tuples, p) {
		if cells[d.To] == nil {
			cells[d.To] = localjoin.Runs{}
		}
		cells[d.To][d.Rel] = append(cells[d.To][d.Rel], d.Buf)
	}
	found := map[[3]int]bool{}
	for w, runs := range cells {
		bindings := localjoin.Bindings{}
		for rel, rs := range runs {
			for _, r := range rs {
				bindings[rel] = r.AppendTuples(bindings[rel])
			}
		}
		want, err := localjoin.Evaluate(q, bindings, localjoin.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := localjoin.EvaluateRuns(q, runs)
		if err != nil {
			t.Fatal(err)
		}
		if tuples := got.Tuples(); len(tuples) != len(want) || len(want) > 0 && !slices.EqualFunc(tuples, want, relation.Tuple.Equal) {
			t.Fatalf("cell %d: %d answers, the hash join %d", w, len(tuples), len(want))
		}
		for _, a := range want {
			found[[3]int{a[0], a[1], a[2]}] = true
		}
	}
	for _, tri := range planted {
		if !found[[3]int{tri[0], tri[1], tri[2]}] {
			t.Errorf("planted triangle %v is in no cell's answer", tri)
		}
	}
	if len(found) < len(planted) {
		t.Errorf("%d answers over %d planted triangles", len(found), len(planted))
	}
}

// BenchmarkWorkerJoinChain times the worker stage of the end-to-end
// benchmark's chain4_warm workload's second round in isolation: 16
// Loopback workers, each holding its slice — 2 500 rows, routed on x2 — of
// V1(x0,x1,x2) and V2(x2,x3,x4), the two halves of an n = 40 000 matching
// chain, and every iteration one join plus a count-only gather (Limit −1).
// Each iteration delivers runs nobody has read, re-adopted from the same
// words outside the timer to a fresh pool, as the workload re-scatters its
// views every op. The answer's five 16-bit columns do not fit a word, so
// it takes two words a row; B/op is what the join writes across the pool.
func BenchmarkWorkerJoinChain(b *testing.B) {
	const n, p = 40000, 16
	rng := rand.New(rand.NewPCG(43, 43))
	col := func() []int { return rng.Perm(n) }
	x0, x1, x2, x3, x4 := col(), col(), col(), col(), col()
	q := query.MustParse("q(x0,x1,x2,x3,x4) = V1(x0,x1,x2), V2(x2,x3,x4)")
	cells := make([][2][]relation.Tuple, p)
	for i := 0; i < n; i++ {
		w := x2[i] % p
		cells[w][0] = append(cells[w][0], relation.Tuple{x0[i], x1[i], x2[i]})
		cells[w][1] = append(cells[w][1], relation.Tuple{x2[i], x3[i], x4[i]})
	}
	var ds []exchange.Delivery
	for w, s := range cells {
		for j, rel := range []string{"V1", "V2"} {
			ds = append(ds, exchange.Delivery{To: w, Rel: rel, Buf: relation.RunOf(3, s[j])})
		}
	}
	joinCount := []dist.Op{
		{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: q.String(), View: "out"}},
		{Kind: dist.OpGather, View: "out", Limit: -1},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		unread := slices.Clone(ds)
		for j, d := range ds {
			var err error
			if unread[j].Buf, err = relation.NewRunFromWords(3, d.Buf.Stride(), d.Buf.Words()); err != nil {
				b.Fatal(err)
			}
		}
		l := dist.NewLoopback(p)
		if _, err := l.Run(ctx, []dist.Op{{Kind: dist.OpDeliver, Round: 1, Deliveries: unread}}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		reply, err := l.Run(ctx, joinCount)
		if err != nil {
			b.Fatal(err)
		}
		answers = 0
		for _, rows := range reply.Rows {
			answers += rows
		}
	}
	b.ReportMetric(float64(answers), "answers")
}

// BenchmarkWorkerJoinCells times localjoin.EvaluateRuns alone on one
// worker's cell of each acyclic join the end-to-end workloads run, in ns
// per answer, over sealed runs whose trie indexes the first join built:
//
//   - chain4-round1: chain4_warm's first round, S1(x0,x1) ⋈ S2(x1,x2), the
//     rows of n = 40 000 matchings whose x1 lands on one of 16 workers —
//     2 500 a side;
//   - chain4-round2: its second, V1(x0,x1,x2) ⋈ V2(x2,x3,x4), routed on x2;
//   - reach-delta: reach_warm's Δ(x,y) ⋈ e(y,z), the pairs 8 edges apart on
//     625 paths of 16 edges (≈ 350) against the edges (≈ 625), routed on y;
//   - skew-zipf: skew_warm's R(x,y) ⋈ S(y,z), n = 100 000 with Zipf(1.3)
//     first columns and R.y a permutation, routed on y: a quarter of R's
//     rows share one x, whose y-range is intersected with S's whole first
//     level.
func BenchmarkWorkerJoinCells(b *testing.B) {
	const p = 16
	type cell struct {
		name string
		q    *query.Query
		rels [2][]relation.Tuple
	}
	var cells []cell
	rng := rand.New(rand.NewPCG(56, 56))
	const n = 40000
	x := [5][]int{rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n)}
	round1 := cell{name: "chain4-round1", q: query.MustParse("q(x0,x1,x2) = S1(x0,x1), S2(x1,x2)")}
	round2 := cell{name: "chain4-round2", q: query.MustParse("q(x0,x1,x2,x3,x4) = V1(x0,x1,x2), V2(x2,x3,x4)")}
	for i := range n {
		if x[1][i]%p == 0 {
			round1.rels[0] = append(round1.rels[0], relation.Tuple{x[0][i], x[1][i]})
			round1.rels[1] = append(round1.rels[1], relation.Tuple{x[1][i], x[2][i]})
		}
		if x[2][i]%p == 0 {
			round2.rels[0] = append(round2.rels[0], relation.Tuple{x[0][i], x[1][i], x[2][i]})
			round2.rels[1] = append(round2.rels[1], relation.Tuple{x[2][i], x[3][i], x[4][i]})
		}
	}
	cells = append(cells, round1, round2)
	const paths, edges, apart = 625, 16, 8
	label := rng.Perm(paths * (edges + 1))
	reach := cell{name: "reach-delta", q: query.MustParse("q(x,y,z) = D(x,y), e(y,z)")}
	for path := range paths {
		v := label[path*(edges+1) : (path+1)*(edges+1)]
		for i := range edges {
			if v[i]%p == 0 {
				reach.rels[1] = append(reach.rels[1], relation.Tuple{v[i] + 1, v[i+1] + 1})
			}
			if i+apart <= edges && v[i+apart]%p == 0 {
				reach.rels[0] = append(reach.rels[0], relation.Tuple{v[i] + 1, v[i+apart] + 1})
			}
		}
	}
	cells = append(cells, reach)
	const zn = 100000
	r := relation.SkewedZipf(rng, "R", []string{"x", "y"}, zn, 1.3)
	for i, y := range rng.Perm(zn) {
		r.Tuples[i][1] = y + 1
	}
	s := relation.SkewedZipf(rng, "S", []string{"y", "z"}, zn, 1.3)
	zipf := cell{name: "skew-zipf", q: query.MustParse("q(x,y,z) = R(x,y), S(y,z)")}
	for j, rel := range []*relation.Relation{r, s} {
		for _, t := range rel.Tuples {
			if t[1-j]%p == 0 {
				zipf.rels[j] = append(zipf.rels[j], t)
			}
		}
	}
	cells = append(cells, zipf)
	for _, c := range cells {
		runs := localjoin.Runs{}
		for j, a := range c.q.Atoms {
			runs[a.Name] = []*relation.Run{relation.RunOf(a.Arity(), c.rels[j])}
		}
		b.Run(c.name, func(b *testing.B) {
			out, err := localjoin.EvaluateRuns(c.q, runs)
			if err != nil || out.Len() == 0 {
				b.Fatalf("%s: %d answers, %v", c.q, out.Len(), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.EvaluateRuns(c.q, runs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*out.Len()), "ns/answer")
			b.ReportMetric(float64(out.Len()), "answers")
		})
	}
}

// BenchmarkWorkerJoinWide times one worker's join of V1(a,b,c) and
// V2(c,d,e), 40 000 rows each — the halves of a matching chain, so 40 000
// answers — on values below 2¹⁶ (packed: one word an input row) and on the
// same values offset by 2²² (wide: two words an input row, three an
// answer's). Each iteration joins fresh sealed runs, built outside the
// timer, so it builds the trie indexes a worker builds for runs it has
// just received.
func BenchmarkWorkerJoinWide(b *testing.B) {
	const n = 40000
	rng := rand.New(rand.NewPCG(46, 46))
	x0, x1, x2, x3, x4 := rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n)
	q := query.MustParse("q(a,b,c,d,e) = V1(a,b,c), V2(c,d,e)")
	for _, c := range []struct {
		name   string
		offset int
	}{{"packed", 0}, {"wide", 1 << 22}} {
		v1, v2 := make([]relation.Tuple, n), make([]relation.Tuple, n)
		for i := range n {
			v1[i] = relation.Tuple{c.offset + x0[i], c.offset + x1[i], c.offset + x2[i]}
			v2[i] = relation.Tuple{c.offset + x2[i], c.offset + x3[i], c.offset + x4[i]}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runs := localjoin.Runs{"V1": {relation.RunOf(3, v1)}, "V2": {relation.RunOf(3, v2)}}
				b.StartTimer()
				if out, err := localjoin.EvaluateRuns(q, runs); err != nil || out.Len() != n {
					b.Fatalf("%d answers, %v; want %d", out.Len(), err, n)
				}
			}
		})
	}
}

// BenchmarkGatherWide times the coordinator's gather of a wide answer:
// 16 workers each hold a sealed run of 2 500 five-column tuples over a
// 16-bit domain — the final answer of the end-to-end benchmark's
// chain4_warm workload, 5 × 16 bits being more than one word holds —
// and every iteration is one Cluster.Gather on loopback: the k-way
// merge of the two-word runs plus the one materialization of the answer.
func BenchmarkGatherWide(b *testing.B) {
	const p, per, arity, n = 16, 2500, 5, 40000
	rng := rand.New(rand.NewPCG(41, 41))
	ds := make([]exchange.Delivery, p)
	for w := range ds {
		run := relation.NewRun(arity)
		row := make(relation.Tuple, arity)
		for i := 0; i < per; i++ {
			for c := range row {
				row[c] = 1 + rng.IntN(n)
			}
			run.Append(row)
		}
		run.Seal()
		if run.Stride() == 1 {
			b.Fatal("fixture run is one word a row; the benchmark is about wider rows")
		}
		ds[w] = exchange.Delivery{To: w, Rel: "wide", Buf: run}
	}
	ctx := context.Background()
	l := dist.NewLoopback(p)
	if _, err := l.Run(ctx, []dist.Op{{Kind: dist.OpDeliver, Round: 1, Deliveries: ds}}); err != nil {
		b.Fatal(err)
	}
	cluster, err := dist.NewCluster(mpc.Config{Workers: p, DomainN: n}, l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		out, err := cluster.Gather(ctx, "wide")
		if err != nil {
			b.Fatal(err)
		}
		answers = out.Len()
	}
	b.ReportMetric(float64(answers), "answers")
}

// BenchmarkDatalogReach times one semi-naive transitive closure at the
// shape of the end-to-end benchmark's reach_warm workload: 625 disjoint
// paths of 16 edges over randomly labelled vertices, datalog.Eval on
// loopback pools of 16 — 15 delta iterations whose coordinator side
// (project, diff and merge of Δ against the closure) is what B/op and
// allocs/op watch.
func BenchmarkDatalogReach(b *testing.B) {
	benchDatalogReach(b, datalog.Options{P: 16, Seed: 7})
}

// BenchmarkDatalogReachTCP is BenchmarkDatalogReach as mpcserve runs
// it: 16 in-process dist.Serve listeners, a fresh dial per execution,
// recovery armed. The program's 16 thin rounds — the recursive rule's
// cold round and 15 delta rounds, on its one session; the base rule is
// answered where e is, without one — make it the benchmark of the TCP
// control path — what a round costs in round trips on top of what the
// model charges — which the loopback variant never touches.
func BenchmarkDatalogReachTCP(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	var serving sync.WaitGroup
	defer serving.Wait()
	defer cancel()
	addrs := make([]string, 16)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = dist.Serve(ctx, ln) // ends with ctx; a listener failure fails the dials below
		}()
	}
	var sessions []*dist.TCP
	benchDatalogReach(b, datalog.Options{
		P:        len(addrs),
		Seed:     7,
		Recovery: dist.RecoveryOptions{Enabled: true},
		Dial: func(int) (dist.Transport, error) {
			tr, err := dist.DialTCP(ctx, addrs)
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, tr)
			return tr, nil
		},
	})
	var dials, exchanges int64
	for _, tr := range sessions {
		dials += tr.Dials()
		exchanges += tr.Exchanges()
	}
	b.ReportMetric(float64(dials)/float64(b.N), "dials/op")
	b.ReportMetric(float64(exchanges)/float64(b.N), "exchanges/op")
}

// benchDatalogReach is the body of the DatalogReach benchmarks. Next to
// the time it reports the model's cost of one evaluation — its rounds
// and total Mbit — which every op repeats exactly.
func benchDatalogReach(b *testing.B, opts datalog.Options) {
	const paths, edges = 625, 16
	rng := rand.New(rand.NewPCG(43, 43))
	label := rng.Perm(paths * (edges + 1))
	e := relation.New("e", "x", "y")
	for p := 0; p < paths; p++ {
		path := label[p*(edges+1) : (p+1)*(edges+1)]
		for i := 0; i < edges; i++ {
			e.Tuples = append(e.Tuples, relation.Tuple{path[i] + 1, path[i+1] + 1})
		}
	}
	rng.Shuffle(len(e.Tuples), func(i, j int) { e.Tuples[i], e.Tuples[j] = e.Tuples[j], e.Tuples[i] })
	db := relation.NewDatabase(len(label))
	db.AddRelation(e)
	prog := datalog.MustParse("tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z).")
	b.ReportAllocs()
	b.ResetTimer()
	var res *datalog.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = datalog.Eval(prog, db, opts); err != nil {
			b.Fatal(err)
		}
	}
	if want := paths * edges * (edges + 1) / 2; res.Run.Len() != want {
		b.Fatalf("closure has %d pairs, want %d", res.Run.Len(), want)
	}
	b.ReportMetric(float64(res.Iterations), "iterations")
	b.ReportMetric(float64(res.Stats.NumRounds()), "rounds/op")
	b.ReportMetric(float64(res.Stats.TotalBits())/1e6, "Mbit/op")
}

// statsBenchDBs returns the two catalog shapes the statistics kernel
// is measured on at n = 100 000: the three matchings of the triangle
// (every column a permutation — distinct = n, the histogram's worst
// case) and the Zipf(1.3) two-atom join of the end-to-end benchmark's
// skew_warm workload (few distinct keys, heavy head).
func statsBenchDBs() map[string]*relation.Database {
	const n = 100000
	tri := relation.NewDatabase(n)
	rng := rand.New(rand.NewPCG(51, 51))
	for _, a := range query.Triangle().Atoms {
		tri.AddRelation(relation.Matching(rng, a.Name, a.Vars, n))
	}
	zipf := relation.NewDatabase(n)
	zipf.AddRelation(relation.SkewedZipf(rng, "R", []string{"x", "y"}, n, 1.3))
	zipf.AddRelation(relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, 1.3))
	return map[string]*relation.Database{"matchings": tri, "zipf1.3": zipf}
}

// BenchmarkStatsCollect times relation.CollectStats — the scan every
// dataset pays once, at its first query or first delta.
func BenchmarkStatsCollect(b *testing.B) {
	dbs := statsBenchDBs()
	for _, name := range []string{"matchings", "zipf1.3"} {
		db := dbs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchStatsSink = relation.CollectStats(db)
			}
		})
	}
}

// BenchmarkStatsDelta times IncrementalStats.Apply + Snapshot on the
// Zipf database for the two batch shapes that used to fall off the
// top-K maintenance's fast path: a random 1 % batch (its deletes,
// drawn uniformly over the tuples, mostly hit heavy values and demote
// tracked top-K entries) and the deletion of each relation's 8
// smallest tuples. Seeding is outside the timer.
func BenchmarkStatsDelta(b *testing.B) {
	db := statsBenchDBs()["zipf1.3"]
	rng := rand.New(rand.NewPCG(52, 52))
	random := relation.Delta{Appends: map[string][]relation.Tuple{}, Deletes: map[string][]relation.Tuple{}}
	smallest := relation.Delta{Deletes: map[string][]relation.Tuple{}}
	for _, name := range db.Names() {
		ts := db.Relations[name].Tuples
		for _, i := range rng.Perm(len(ts))[:len(ts)/200] {
			random.Deletes[name] = append(random.Deletes[name], ts[i])
			random.Appends[name] = append(random.Appends[name], relation.Tuple{1 + rng.IntN(db.N), 1 + rng.IntN(db.N)})
		}
		sorted := slices.Clone(ts)
		slices.SortFunc(sorted, relation.Tuple.Compare)
		smallest.Deletes[name] = sorted[:8]
	}
	for _, bc := range []struct {
		name  string
		delta relation.Delta
	}{{"random1pct", random}, {"smallest8", smallest}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inc := relation.NewIncrementalStats(db)
				b.StartTimer()
				inc.Apply(bc.delta)
				benchStatsSink = inc.Snapshot()
			}
		})
	}
}

var benchStatsSink *relation.Stats

// BenchmarkJoinZipf is the skewed head-to-head: R(x,y) ⋈ S(y,z) with
// Zipf(1.1)-distributed join values, where heavy hitters make the
// output (and the hash join's probe lists) large.
func BenchmarkJoinZipf(b *testing.B) {
	rng := rand.New(rand.NewPCG(12, 12))
	q := skew.JoinQuery()
	r, s := skew.ZipfJoinInput(rng, 5000, 1.1)
	bindings := localjoin.Bindings{"R": r.Tuples, "S": s.Tuples}
	for _, strat := range joinStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			var answers int
			for i := 0; i < b.N; i++ {
				out, err := localjoin.Evaluate(q, bindings, strat)
				if err != nil {
					b.Fatal(err)
				}
				answers = len(out)
			}
			b.ReportMetric(float64(answers), "answers")
		})
	}
}

// BenchmarkJoinMatchingChain is the skew-free control: the two-atom
// chain join on matching inputs, where every strategy produces exactly
// n answers and WCOJ must at least match the hash join.
func BenchmarkJoinMatchingChain(b *testing.B) {
	rng := rand.New(rand.NewPCG(13, 13))
	q := skew.JoinQuery()
	r, s := skew.MatchingJoinInput(rng, 10000)
	bindings := localjoin.Bindings{"R": r.Tuples, "S": s.Tuples}
	for _, strat := range joinStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.Evaluate(q, bindings, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCCStrategies times neighbor-min vs hash-to-min end to end.
func BenchmarkCCStrategies(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	g, err := cc.Layered(rng, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []cc.Algorithm{cc.NeighborMin, cc.HashToMin} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(g, algo, cc.Options{Workers: 16, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkewJoin contrasts the two routing disciplines on Zipf
// inputs (experiment E-SKEW), reporting the max-load ratio vs ideal.
func BenchmarkSkewJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	n, p := 3000, 32
	r, s := skew.ZipfJoinInput(rng, n, 1.1)
	ideal := 2 * float64(n) / float64(p)
	for _, mode := range []skew.Mode{skew.Standard, skew.Resilient} {
		b.Run(mode.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, _, err := skew.RunJoin(r, s, p, mode, skew.Options{Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(res.Stats.MaxLoadTuples()) / ideal
			}
			b.ReportMetric(ratio, "load/ideal")
		})
	}
}

// BenchmarkSkewExecute times one warm skew query at the shape of the
// end-to-end benchmark's skew_warm workload: R(x,y), S(y,z) at
// n = 100 000 with Zipf(1.3) first columns and R.y a permutation (so
// the join value is heavy in S alone), p = 16, plan built once outside
// the timer, every iteration one execution on loopback. "full" is one
// Plan.Execute — scatter, local joins, the gather of all ≈ n answers and
// their one materialization; "reply" is skew_warm's warm op, one
// ExecuteRun with an answer limit of 100, which gathers at most 16·100
// rows and counts the rest on the workers.
func BenchmarkSkewExecute(b *testing.B) {
	const n, p = 100000, 16
	rng := rand.New(rand.NewPCG(61, 61))
	r := relation.SkewedZipf(rng, "R", []string{"x", "y"}, n, 1.3)
	for i, y := range rng.Perm(n) {
		r.Tuples[i][1] = y + 1
	}
	db := relation.NewDatabase(n)
	db.AddRelation(r)
	db.AddRelation(relation.SkewedZipf(rng, "S", []string{"y", "z"}, n, 1.3))
	pl, err := plan.Build(query.MustParse("q(x,y,z) = R(x,y), S(y,z)"), db.Stats(), plan.Options{P: p})
	if err != nil {
		b.Fatal(err)
	}
	if pl.Engine != plan.SkewJoin {
		b.Fatalf("planner picked %v; the benchmark is about the skew engine", pl.Engine)
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		var res *plan.Result
		for i := 0; i < b.N; i++ {
			if res, err = pl.Execute(db, plan.ExecOptions{Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(res.Answers)), "answers")
		b.ReportMetric(float64(res.Stats.MaxLoadTuples()), "max-load")
	})
	b.Run("reply", func(b *testing.B) {
		b.ReportAllocs()
		var res *plan.Result
		for i := 0; i < b.N; i++ {
			if res, err = pl.ExecuteRun(db, plan.ExecOptions{Seed: 7, AnswerLimit: 100}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Count), "answers")
		b.ReportMetric(float64(res.Gathered), "gathered")
		b.ReportMetric(float64(res.Stats.MaxLoadTuples()), "max-load")
	})
}

// BenchmarkOptimalShares times the exhaustive size-aware share search
// (experiment E-OPT) and reports its advantage over cover shares.
func BenchmarkOptimalShares(b *testing.B) {
	q := query.CartesianPair()
	sizes := map[string]int{"R": 1000, "S": 64000}
	p := 64
	coverShares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
	if err != nil {
		b.Fatal(err)
	}
	coverCost, err := hypercube.CommunicationCost(q, coverShares, sizes)
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := hypercube.OptimalSharesForSizes(q, sizes, p)
		if err != nil {
			b.Fatal(err)
		}
		optCost, err := hypercube.CommunicationCost(q, opt, sizes)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(coverCost) / float64(optCost)
	}
	b.ReportMetric(gain, "cover/optimal")
}

// BenchmarkFriedgut times the inequality verification (experiment
// E-FRIED).
func BenchmarkFriedgut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.FriedgutCheck(io.Discard, 10, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnowledge runs the bit-budgeted knowledge experiment
// (E-KNOW, Lemmas 3.6/3.7).
func BenchmarkKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Knowledge(io.Discard, 60, 20, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanBuilders compares the greedy Γ^r_ε builder with the
// literal Lemma 4.3 radial construction, reporting round counts.
func BenchmarkPlanBuilders(b *testing.B) {
	q := query.SpokedWheel(4)
	eps := big.NewRat(0, 1)
	b.Run("greedy", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			plan, err := multiround.Build(q, eps)
			if err != nil {
				b.Fatal(err)
			}
			rounds = plan.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("radial", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			plan, err := multiround.BuildRadial(q, eps)
			if err != nil {
				b.Fatal(err)
			}
			rounds = plan.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// --- shuffle head-to-heads: legacy per-tuple routing vs the columnar
// exchange (internal/exchange) ---

// legacyMessage and legacyShuffle reproduce the historic per-tuple
// message path the exchange layer replaced: a recursive per-tuple
// destination closure, map[int]*Message accumulation, and per-worker
// mutex-locked []Tuple append stores with per-message bit accounting.
type legacyMessage struct {
	to     int
	rel    string
	tuples []relation.Tuple
}

// legacyDestinations is the pre-exchange recursive enumeration,
// allocating its closure state per tuple.
func legacyDestinations(s *hypercube.Shares, h *hypercube.Hasher, atom query.Atom, t relation.Tuple) []int {
	k := len(s.Dims)
	fixed := make([]int, k)
	isFixed := make([]bool, k)
	for pos, v := range atom.Vars {
		d := s.DimOf(v)
		if d < 0 {
			continue
		}
		c := h.Coord(d, t[pos])
		if isFixed[d] && fixed[d] != c {
			return nil
		}
		fixed[d] = c
		isFixed[d] = true
	}
	var free []int
	for d := 0; d < k; d++ {
		if !isFixed[d] {
			free = append(free, d)
		}
	}
	coords := make([]int, k)
	copy(coords, fixed)
	var out []int
	var rec func(i int)
	rec = func(i int) {
		if i == len(free) {
			id := 0
			for d, c := range coords {
				id = id*s.Dims[d] + c
			}
			out = append(out, id)
			return
		}
		d := free[i]
		for c := 0; c < s.Dims[d]; c++ {
			coords[d] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// legacyShuffle scatters db's relations for q with the per-tuple path
// and returns (routed tuples, accounted bits).
func legacyShuffle(q *query.Query, db *relation.Database, p int, s *hypercube.Shares, h *hypercube.Hasher) (int64, int64) {
	type worker struct {
		mu    sync.Mutex
		store map[string][]relation.Tuple
	}
	workers := make([]*worker, p)
	for i := range workers {
		workers[i] = &worker{store: make(map[string][]relation.Tuple)}
	}
	bitsPerValue := relation.BitsPerValue(db.N)
	var tuples, bits int64
	for _, a := range q.Atoms {
		rel, _ := db.Relation(a.Name)
		msgs := make(map[int]*legacyMessage)
		for _, t := range rel.Tuples {
			for _, dst := range legacyDestinations(s, h, a, t) {
				m, ok := msgs[dst]
				if !ok {
					m = &legacyMessage{to: dst, rel: a.Name}
					msgs[dst] = m
				}
				m.tuples = append(m.tuples, t)
			}
		}
		for _, m := range msgs {
			w := workers[m.to]
			w.mu.Lock()
			w.store[m.rel] = append(w.store[m.rel], m.tuples...)
			w.mu.Unlock()
			tuples += int64(len(m.tuples))
			bits += int64(len(m.tuples)) * int64(len(m.tuples[0])) * int64(bitsPerValue)
		}
	}
	return tuples, bits
}

// exchangeShuffle scatters db's relations for q through the columnar
// exchange and returns (routed tuples, accounted bits).
func exchangeShuffle(b *testing.B, q *query.Query, db *relation.Database, p int, s *hypercube.Shares, h *hypercube.Hasher) (int64, int64) {
	cluster, ctx, err := dist.Open(dist.Options{}, mpc.Config{
		Workers: p, Epsilon: 1, InputBits: db.InputBits(), DomainN: db.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	cluster.BeginRound()
	for _, a := range q.Atoms {
		rel, _ := db.Relation(a.Name)
		if err := cluster.Scatter(ctx, rel, "", hypercube.NewGridPartitioner(s, h, a)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cluster.EndRound(ctx); err != nil {
		b.Fatal(err)
	}
	rs := cluster.Stats().Rounds[0]
	return rs.TotalTuples, rs.TotalBits
}

// BenchmarkShuffleTriangle is the acceptance head-to-head: the
// HyperCube scatter of the triangle query at n = 10^4 must run ≥ 2×
// faster through the columnar exchange than through the per-tuple
// path. Reported metrics: routed Mtuples/s and accounted MiB/s.
func BenchmarkShuffleTriangle(b *testing.B) {
	q := query.Triangle()
	n, p := 10000, 64
	rng := rand.New(rand.NewPCG(21, 21))
	db := relation.MatchingDatabase(rng, q, n)
	s, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
	if err != nil {
		b.Fatal(err)
	}
	h := hypercube.NewHasher(s, 5)
	report := func(b *testing.B, tuples, bits int64) {
		sec := b.Elapsed().Seconds()
		if sec > 0 {
			b.ReportMetric(float64(tuples)*float64(b.N)/sec/1e6, "Mtuples/s")
			b.ReportMetric(float64(bits)*float64(b.N)/8/(1<<20)/sec, "MiB/s")
		}
	}
	b.Run("legacy-per-tuple", func(b *testing.B) {
		var tuples, bits int64
		for i := 0; i < b.N; i++ {
			tuples, bits = legacyShuffle(q, db, p, s, h)
		}
		report(b, tuples, bits)
	})
	b.Run("exchange", func(b *testing.B) {
		b.ReportAllocs()
		var tuples, bits int64
		for i := 0; i < b.N; i++ {
			tuples, bits = exchangeShuffle(b, q, db, p, s, h)
		}
		report(b, tuples, bits)
	})
}

// BenchmarkPartitionRun times exchange.PartitionRun alone, on the
// scatters the end-to-end workloads make at p = 16: ingest_cold's
// triangle atom (30 000 rows on the 3×2×2 grid), chain4_warm's
// re-scattered view (40 000 arity-3 rows on a 16-point grid), a
// 400-row worker route step, an atom whose rows take two words, and
// one side of the skew join's routing (Zipf 1.3, n = 100 000), whose
// partitioner is built per scatter as the engine builds it.
func BenchmarkPartitionRun(b *testing.B) {
	const p = 16
	rng := rand.New(rand.NewPCG(53, 53))
	tri := query.Triangle()
	shares := &hypercube.Shares{Vars: tri.Vars(), Dims: []int{3, 2, 2}}
	atom := hypercube.NewGridPartitioner(shares, hypercube.NewHasher(shares, 1), tri.Atoms[0])
	wide := relation.New("R", "x", "y")
	for range 30000 {
		wide.MustAdd(relation.Tuple{rng.IntN(1 << 40), rng.IntN(1 << 40)})
	}
	view, err := exchange.NewGrid([]int{4, 4}, []uint64{3, 4}, []exchange.GridBind{{Pos: 0, Dim: 0}, {Pos: 2, Dim: 1}})
	if err != nil {
		b.Fatal(err)
	}
	step, err := exchange.NewGrid([]int{p}, []uint64{5}, []exchange.GridBind{{Pos: 0, Dim: 0}})
	if err != nil {
		b.Fatal(err)
	}
	r, s := skew.ZipfJoinInput(rng, 100000, 1.3)
	rt := skew.CompileFromData(r, 1, s, 0, p, 1)
	for _, c := range []struct {
		name string
		run  *relation.Run
		part func() exchange.Partitioner
	}{
		{"ingest_atom", relation.Matching(rng, "R", []string{"x", "y"}, 30000).Run(), func() exchange.Partitioner { return atom }},
		{"chain_view", relation.Matching(rng, "V", []string{"a", "b", "c"}, 40000).Run(), func() exchange.Partitioner { return view }},
		{"route_step", relation.Matching(rng, "E", []string{"x", "y"}, 400).Run(), func() exchange.Partitioner { return step }},
		{"stride2", wide.Run(), func() exchange.Partitioner { return atom }},
		{"skew", r.Run(), func() exchange.Partitioner { return skew.NewPartitioner(rt, r, 1, true, 7) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exchange.PartitionRun("R", c.run, p, c.part()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.run.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkShuffleHashJoin is the plain-hash shuffle head-to-head on
// the Zipf join inputs of E-SKEW.
func BenchmarkShuffleHashJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(22, 22))
	n, p := 20000, 32
	r, s := skew.ZipfJoinInput(rng, n, 1.1)
	seed := uint64(9)
	yR := r.AttrIndex("y")
	yS := s.AttrIndex("y")
	b.Run("legacy-per-tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stores := make([]map[string][]relation.Tuple, p)
			for j := range stores {
				stores[j] = make(map[string][]relation.Tuple)
			}
			msgs := make(map[int]*legacyMessage)
			for _, t := range r.Tuples {
				dst := exchange.HashDest(t[yR], seed, p)
				m, ok := msgs[dst]
				if !ok {
					m = &legacyMessage{to: dst, rel: "R"}
					msgs[dst] = m
				}
				m.tuples = append(m.tuples, t)
			}
			for _, t := range s.Tuples {
				dst := exchange.HashDest(t[yS], seed, p)
				m, ok := msgs[dst+p] // second relation keyed apart
				if !ok {
					m = &legacyMessage{to: dst, rel: "S"}
					msgs[dst+p] = m
				}
				m.tuples = append(m.tuples, t)
			}
			for _, m := range msgs {
				stores[m.to][m.rel] = append(stores[m.to][m.rel], m.tuples...)
			}
		}
	})
	b.Run("exchange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, ctx, err := dist.Open(dist.Options{}, mpc.Config{
				Workers: p, Epsilon: 1, InputBits: 1 << 30, DomainN: n,
			})
			if err != nil {
				b.Fatal(err)
			}
			cluster.BeginRound()
			if err := cluster.Scatter(ctx, r, "", exchange.HashPartitioner{Col: yR, P: p, Seed: seed}); err != nil {
				b.Fatal(err)
			}
			if err := cluster.Scatter(ctx, s, "", exchange.HashPartitioner{Col: yS, P: p, Seed: seed}); err != nil {
				b.Fatal(err)
			}
			if err := cluster.EndRound(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- micro benches for the substrates ---

// BenchmarkLPSolve times the exact simplex on the Figure 1 LPs.
func BenchmarkLPSolve(b *testing.B) {
	for _, q := range []*query.Query{query.Cycle(6), query.Chain(10), query.Binom(5, 2)} {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cover.Solve(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHyperCubeRouting times tuple destination computation.
func BenchmarkHyperCubeRouting(b *testing.B) {
	q := query.Triangle()
	s := &hypercube.Shares{Vars: q.Vars(), Dims: []int{4, 4, 4}}
	h := hypercube.NewHasher(s, 9)
	t := relation.Tuple{123, 456}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.NewGridPartitioner(s, h, q.Atoms[0]).Route(0, t, nil)
	}
}

// BenchmarkMatchingGeneration times matching database generation.
func BenchmarkMatchingGeneration(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	q := query.Cycle(3)
	for i := 0; i < b.N; i++ {
		relation.MatchingDatabase(rng, q, 10000)
	}
}
