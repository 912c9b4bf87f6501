package hypercube_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// TestPartitionRunMatchesRoute is exchange's test of the same name on
// the engines' partitioners: a HyperCube grid, which PartitionRun routes
// a column at a time, the same grid sampled, and both sides of the skew
// join's routing, whose heavy values split over their blocks in run
// order or broadcast to them — over rows of one and two words, past two
// shards' worth. Each delivers what routing each row on its own does,
// one sealed run per destination, the same words on one core and two.
func TestPartitionRunMatchesRoute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewPCG(53, 11))
	q := query.Triangle()
	shares := &hypercube.Shares{Vars: q.Vars(), Dims: []int{3, 2, 2}}
	hasher := hypercube.NewHasher(shares, 7)
	zr, zs := skew.ZipfJoinInput(rng, 5000, 1.3)
	rt := skew.CompileFromData(zr, 1, zs, 0, 8, 1)
	if len(rt.Heavy) == 0 {
		t.Fatal("the Zipf input has no heavy hitters")
	}
	type routed struct {
		name string
		run  *relation.Run
		p    int
		part exchange.Partitioner
	}
	var cases []routed
	for _, top := range []int{1 << 12, 1 << 40} {
		rel := relation.New("R", "x", "y")
		for range 2*2048 + 100 {
			rel.MustAdd(relation.Tuple{rng.IntN(top), rng.IntN(64)})
		}
		for i, a := range q.Atoms {
			grid := hypercube.NewGridPartitioner(shares, hasher, a)
			sampled := hypercube.NewGridPartitioner(shares, hasher, a).WithSample(map[int]int{0: 0, 3: 1, 5: 0, 7: 2, 11: 1})
			cases = append(cases,
				routed{fmt.Sprintf("grid of atom %d", i), rel.Run(), shares.GridSize(), grid},
				routed{fmt.Sprintf("sampled grid of atom %d", i), rel.Run(), 3, sampled})
		}
	}
	cases = append(cases,
		routed{"skew, R's side", zr.Run(), rt.P, skew.NewPartitioner(rt, zr, 1, true, 5)},
		routed{"skew, S's side", zs.Run(), rt.P, skew.NewPartitioner(rt, zs, 0, false, 5)})
	for _, c := range cases {
		what := fmt.Sprintf("%s at stride %d", c.name, c.run.Stride())
		want := make([][]relation.Tuple, c.p)
		for i := 0; i < c.run.Len(); i++ {
			row := c.run.Row(i, make(relation.Tuple, c.run.Arity()))
			for _, d := range c.part.Route(i, row, nil) {
				want[d] = append(want[d], row)
			}
		}
		var words [2][][]uint64
		for k, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			ds, err := exchange.PartitionRun("R", c.run, c.p, c.part)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got := make([][]relation.Tuple, c.p)
			for i, d := range ds {
				if i > 0 && ds[i-1].To >= d.To || !d.Buf.Sealed() || d.Buf.Len() == 0 {
					t.Fatalf("%s: delivery %d to %d: sealed %v, %d rows", what, i, d.To, d.Buf.Sealed(), d.Buf.Len())
				}
				got[d.To] = d.Buf.Tuples()
				words[k] = append(words[k], d.Buf.Words())
			}
			for d := range want {
				if !slices.EqualFunc(got[d], want[d], relation.Tuple.Equal) {
					t.Fatalf("%s on %d cores: destination %d holds %d rows, want %d", what, procs, d, len(got[d]), len(want[d]))
				}
			}
		}
		if !slices.EqualFunc(words[0], words[1], slices.Equal) {
			t.Fatalf("%s: the deliveries differ between one core and two", what)
		}
	}
}
