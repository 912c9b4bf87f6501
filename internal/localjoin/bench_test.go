package localjoin_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// BenchmarkHashJoinZipf mirrors the mpcbench join-hash-zipf-n1000
// suite entry: the binary hash join over Zipf-skewed input whose
// output is quadratic in the heavy values.
func BenchmarkHashJoinZipf(b *testing.B) {
	zr, zs := skew.ZipfJoinInput(rand.New(rand.NewPCG(1, 0x21f)), 1000, 1.1)
	q := skew.JoinQuery()
	bindings := localjoin.Bindings{q.Atoms[0].Name: zr.Tuples, q.Atoms[1].Name: zs.Tuples}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := localjoin.Evaluate(q, bindings, localjoin.HashJoin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergedLevels times the two kinds of intersection mergesRows
// sends to a row-by-row merge; comparing it against a build whose
// mergesRows returns false measures what the merge saves. degree: the
// triangle over one random graph of 20 000 edges, d out-neighbours a
// vertex, so the depth-2 ranges hold about d rows each. ratio: R(x,y) ⋈
// S(x,z), 60 000 rows against 60 000/r, x drawn from 200 000 values, so
// depth 0 intersects two whole relations r times apart.
func BenchmarkMergedLevels(b *testing.B) {
	join := func(q *query.Query, runs localjoin.Runs) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.EvaluateRuns(q, runs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	tri := query.Triangle()
	for _, d := range []int{1, 2, 4, 8, 16, 32} {
		rng := rand.New(rand.NewPCG(uint64(d), 5))
		edges := make([]relation.Tuple, 0, 20000)
		for x := range 20000 / d {
			for range d {
				edges = append(edges, relation.Tuple{x, rng.IntN(20000 / d)})
			}
		}
		runs := localjoin.Runs{}
		for _, a := range tri.Atoms {
			runs[a.Name] = []*relation.Run{relation.RunOf(2, edges)}
		}
		b.Run(fmt.Sprintf("degree=%d", d), join(tri, runs))
	}
	pair := query.MustParse("q(x,y,z) = R(x,y), S(x,z)")
	for _, r := range []float64{1.5, 3, 6, 12} {
		rng := rand.New(rand.NewPCG(uint64(r*10), 9))
		rel := func(n int) []*relation.Run {
			ts := make([]relation.Tuple, n)
			for i := range ts {
				ts[i] = relation.Tuple{rng.IntN(200000), rng.IntN(1 << 20)}
			}
			return []*relation.Run{relation.RunOf(2, ts)}
		}
		b.Run(fmt.Sprintf("ratio=%g", r), join(pair, localjoin.Runs{"R": rel(60000), "S": rel(int(60000 / r))}))
	}
}
