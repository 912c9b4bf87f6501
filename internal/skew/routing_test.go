package skew

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// routingInputs are the shapes the compiler is checked on: Zipf joins
// at two exponents, a matching (no heavy value), one value everywhere
// (one block of all p servers), a heavy value present on one side only,
// an empty side, and labels that include 0 and negatives.
func routingInputs() map[string][2]*relation.Relation {
	rng := rand.New(rand.NewPCG(71, 72))
	in := map[string][2]*relation.Relation{}
	r, s := ZipfJoinInput(rng, 3000, 1.3)
	in["zipf1.3"] = [2]*relation.Relation{r, s}
	r, s = ZipfJoinInput(rng, 2000, 0.9)
	in["zipf0.9"] = [2]*relation.Relation{r, s}
	r, s = MatchingJoinInput(rng, 500)
	in["matching"] = [2]*relation.Relation{r, s}
	allR, allS := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for i := 1; i <= 400; i++ {
		allR.Tuples = append(allR.Tuples, relation.Tuple{i, 7})
		allS.Tuples = append(allS.Tuples, relation.Tuple{7, i})
	}
	in["all-equal"] = [2]*relation.Relation{allR, allS}
	oneR, _ := MatchingJoinInput(rng, 600)
	oneS := relation.New("S", "y", "z")
	for i := 1; i <= 600; i++ {
		oneS.Tuples = append(oneS.Tuples, relation.Tuple{1 + i%3, i})
	}
	in["heavy-in-S-only"] = [2]*relation.Relation{oneR, oneS}
	in["empty-S"] = [2]*relation.Relation{allR, relation.New("S", "y", "z")}
	negR, negS := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for i := 0; i < 300; i++ {
		negR.Tuples = append(negR.Tuples, relation.Tuple{i, i%5 - 2})
		negS.Tuples = append(negS.Tuples, relation.Tuple{i%7 - 3, i})
	}
	in["zero-and-negative"] = [2]*relation.Relation{negR, negS}
	return in
}

// TestCompiledRoutingMatchesOracle: the routing compiled from the
// catalog's histogram runs, the routing compiled from the data, and
// the map-based detection the engine used to run per query agree on
// the heavy order, every block and every split side — and the two
// partitioners built on them send every tuple of both sides to the
// same servers.
func TestCompiledRoutingMatchesOracle(t *testing.T) {
	for name, in := range routingInputs() {
		r, s := in[0], in[1]
		ry, sy := r.AttrIndex("y"), s.AttrIndex("y")
		histR := relation.CollectRelationStats(r).Cols[ry].Hist
		histS := relation.CollectRelationStats(s).Cols[sy].Hist
		for _, p := range []int{1, 4, 16, 64} {
			for _, factor := range []float64{0, 0.25, 1, 3} {
				t.Run(fmt.Sprintf("%s/p=%d/factor=%v", name, p, factor), func(t *testing.T) {
					cat := Compile(histR, histS, len(r.Tuples), len(s.Tuples), p, factor)
					data := CompileFromData(r, ry, s, sy, p, factor)
					if !reflect.DeepEqual(cat, data) {
						t.Fatalf("compiled from catalog %+v, from data %+v", cat, data)
					}
					heavy, blocks, splitR := oracleRouting(r, s, ry, sy, p, factor)
					if len(cat.Heavy) != len(heavy) {
						t.Fatalf("%d heavy values, oracle %d", len(cat.Heavy), len(heavy))
					}
					for k, hv := range cat.Heavy {
						block := make([]int, hv.Size)
						for i := range block {
							block[i] = (hv.First + i) % p
						}
						if hv.Value != heavy[k] || !slices.Equal(block, blocks[hv.Value]) || hv.SplitR != splitR[hv.Value] {
							t.Fatalf("heavy[%d] = %+v; oracle value %d block %v splitR %v",
								k, hv, heavy[k], blocks[heavy[k]], splitR[heavy[k]])
						}
						if cat.find(hv.Value) != k {
							t.Fatalf("find(%d) = %d, want %d", hv.Value, cat.find(hv.Value), k)
						}
					}
					splitS := map[int]bool{}
					for v, sr := range splitR {
						splitS[v] = !sr
					}
					sides := []struct {
						rel   *relation.Relation
						col   int
						sideR bool
						split map[int]bool
					}{{r, ry, true, splitR}, {s, sy, false, splitS}}
					for _, side := range sides {
						got := NewPartitioner(cat, side.rel, side.col, side.sideR, 9)
						want := newOraclePartitioner(side.rel, side.col, p, 9, blocks, side.split)
						for i, tu := range side.rel.Run().Tuples() {
							if g, w := got.Route(i, tu, nil), want.Route(i, tu, nil); !slices.Equal(g, w) {
								t.Fatalf("%s tuple %d %v routes to %v, oracle %v", side.rel.Name, i, tu, g, w)
							}
						}
					}
				})
			}
		}
	}
}

// TestPredictedLoadIsExactOnAllEqual pins the prediction's terms on an
// input where nothing is left to hashing: one value, split side spread
// over all p servers, broadcast side replicated to each.
func TestPredictedLoadIsExactOnAllEqual(t *testing.T) {
	in := routingInputs()["all-equal"]
	rt := CompileFromData(in[0], 1, in[1], 0, 8, 1)
	res, _, err := RunJoin(in[0], in[1], 8, Resilient, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 400.0/8 + 400; rt.PredictedLoad() != want || float64(res.Stats.MaxLoadTuples()) != want {
		t.Errorf("predicted %v, measured %d, want %v", rt.PredictedLoad(), res.Stats.MaxLoadTuples(), want)
	}
}

// TestPartitionerKey: a partitioner's key is equal exactly when its
// routing, seed, side and column are — a routing compiled again from the
// same counts included, one whose blocks alone differ excluded.
func TestPartitionerKey(t *testing.T) {
	in := routingInputs()["zipf1.3"]
	r, s := in[0], in[1]
	histR, histS := relation.ColumnHistogram(r, 1), relation.ColumnHistogram(s, 0)
	rt := Compile(histR, histS, r.Size(), s.Size(), 16, 1)
	key := func(rt *Routing, col int, sideR bool, seed uint64) string {
		return NewPartitioner(rt, r, col, sideR, seed).(exchange.Keyed).Key()
	}
	warm := key(rt, 1, true, 9)
	if got := key(Compile(histR, histS, r.Size(), s.Size(), 16, 1), 1, true, 9); got != warm {
		t.Fatalf("a routing compiled again keys %q, want %q", got, warm)
	}
	halved := Compile(histR, histS, 2*r.Size(), 2*s.Size(), 16, 0.5)
	if halved.Threshold != rt.Threshold || len(halved.Heavy) != len(rt.Heavy) {
		t.Fatalf("halved routing: threshold %d, %d heavy; want %d, %d", halved.Threshold, len(halved.Heavy), rt.Threshold, len(rt.Heavy))
	}
	for name, other := range map[string]string{
		"other seed":   key(rt, 1, true, 10),
		"other side":   key(rt, 1, false, 9),
		"other column": key(rt, 0, true, 9),
		"other blocks": key(halved, 1, true, 9),
		"other p":      key(Compile(histR, histS, r.Size(), s.Size(), 8, 1), 1, true, 9),
	} {
		if other == warm {
			t.Errorf("%s keys like the warm partitioner: %q", name, other)
		}
	}
}

// TestPartitionerRanksOnce: sender shards route in parallel from their
// first tuple on, so whichever asks first numbers the split ranks, once,
// for all of them (run under -race): every tuple goes where a partitioner
// routing alone sends it.
func TestPartitionerRanksOnce(t *testing.T) {
	in := routingInputs()["zipf1.3"]
	r, s := in[0], in[1]
	rt := CompileFromData(r, 1, s, 0, 16, 1)
	tuples := r.Run().Tuples()
	alone := NewPartitioner(rt, r, 1, true, 9)
	want := make([][]int, len(tuples))
	for i, tu := range tuples {
		want[i] = alone.Route(i, tu, nil)
	}
	const shards = 4
	shared := NewPartitioner(rt, r, 1, true, 9)
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(tuples); i += shards {
				if got := shared.Route(i, tuples[i], nil); !slices.Equal(got, want[i]) {
					t.Errorf("tuple %d %v routes to %v, alone to %v", i, tuples[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOutputsAreDisjoint: on inputs whose split side repeats rows of a
// heavy value spread over more than one server, the per-worker answer
// counts sum to the size of their union — a count-only gather (limit −1)
// and a full merge (limit 0) agree — because every copy of a split-side
// row joins on the one server its first copy went to.
func TestOutputsAreDisjoint(t *testing.T) {
	in := routingInputs()
	allR, allS := in["all-equal"][0], in["all-equal"][1]
	doubled := relation.New(allR.Name, allR.Attrs...)
	for _, row := range allR.Rows() {
		doubled.Tuples = append(doubled.Tuples, row, row)
	}
	in["all-equal-doubled"] = [2]*relation.Relation{doubled, allS}
	for _, c := range []struct {
		name string
		p    int
	}{{"zipf1.3", 16}, {"all-equal-doubled", 4}, {"all-equal-doubled", 16}} {
		r, s := in[c.name][0], in[c.name][1]
		rt := CompileFromData(r, 1, s, 0, c.p, 1)
		repeats := 0
		for side, rel := range []*relation.Relation{r, s} {
			col := 1 - side // R(x,y) joins on column 1, S(y,z) on column 0
			rows := rel.Run().Tuples()
			for i := 1; i < len(rows); i++ {
				h := rt.find(rows[i][col])
				if h >= 0 && rt.Heavy[h].SplitR == (side == 0) && rt.Heavy[h].Size > 1 && slices.Equal(rows[i], rows[i-1]) {
					repeats++
				}
			}
		}
		if repeats == 0 {
			t.Fatalf("%s/p=%d: no split-side row of a multi-server block repeats", c.name, c.p)
		}
		full, err := Execute(JoinQuery(), r, s, 1, 0, rt, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		counted, err := Execute(JoinQuery(), r, s, 1, 0, rt, Options{Seed: 3, AnswerLimit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if counted.Count != full.Run.Len() || counted.Run.Len() != 0 {
			t.Errorf("%s/p=%d: the workers count %d answers, their union holds %d (%d repeated split-side rows)",
				c.name, c.p, counted.Count, full.Run.Len(), repeats)
		}
	}
}
