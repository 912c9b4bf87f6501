package dist_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
)

// The worker join reads the sealed runs its store holds as packed
// words (internal/localjoin, EvaluateRuns). These tests pin that path
// to the two references that share no code with it — the tuple API
// localjoin.Evaluate and core.GroundTruth — and to its aliasing
// contract: joining never writes to a run.

// sealedRuns splits tuples into k sealed runs of the given arity.
func sealedRuns(rng *rand.Rand, arity, k int, tuples []relation.Tuple) []*relation.Run {
	runs := make([]*relation.Run, k)
	for i := range runs {
		runs[i] = relation.NewRun(arity)
	}
	for _, t := range tuples {
		runs[rng.IntN(k)].Append(t)
	}
	for _, r := range runs {
		r.Seal()
	}
	return runs
}

// deliveries addresses runs to worker 0 under rel.
func deliveries(rel string, runs []*relation.Run) []exchange.Delivery {
	ds := make([]exchange.Delivery, len(runs))
	for i, r := range runs {
		ds[i] = exchange.Delivery{To: 0, Rel: rel, Buf: r}
	}
	return ds
}

// joinView joins q on a one-worker loopback and returns the merged
// answer of its view.
func joinView(t *testing.T, l *dist.Loopback, q *query.Query) []relation.Tuple {
	t.Helper()
	got, err := joinGather(l, q, "out")
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return got
}

// packedJoinQueries are the fixed shapes the random generator might
// miss: a permuted atom, repeats, repeats inside a permuted atom, a
// unary atom and a disconnected pair.
var packedJoinQueries = []string{
	"q(x,y,z) = S1(x,y), S2(y,z), S3(z,x)",
	"q(x) = S1(x,x)",
	"q(x,y) = S1(x,y), S2(y,y,x)",
	"q(x,y) = S1(x), S2(y,x), S3(y)",
	"q(x,y) = S1(x), S2(y)",
	"q(x,y,z) = S1(x,y,z), S2(z,y), S3(x,x)",
}

// randomJoinQuery draws 1–4 atoms of arity 1–3 over five variables,
// repeats within an atom allowed.
func randomJoinQuery(rng *rand.Rand) *query.Query {
	pool := []string{"v", "w", "x", "y", "z"}
	atoms := make([]query.Atom, 1+rng.IntN(4))
	for i := range atoms {
		vars := make([]string, 1+rng.IntN(3))
		for j := range vars {
			vars[j] = pool[rng.IntN(len(pool))]
		}
		atoms[i] = query.Atom{Name: fmt.Sprintf("S%d", i+1), Vars: vars}
	}
	return query.MustNew("q", atoms...)
}

// TestPackedJoinMatchesReferences is the differential property:
// over random queries and stores, the worker join
// ≡ localjoin.Evaluate on the same tuples ≡ core.GroundTruth. Stores
// are multi-run, sometimes empty or never delivered, sometimes hold a
// value ≥ 2³² (flat-layout runs at arity 2 and 3), and sometimes carry
// retractions and re-insertions applied through ApplyDelta.
func TestPackedJoinMatchesReferences(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x9ac4ed))
		var q *query.Query
		if trial < len(packedJoinQueries) {
			q = query.MustParse(packedJoinQueries[trial])
		} else {
			q = randomJoinQuery(rng)
		}
		domain := 2 + rng.IntN(7)
		big := rng.IntN(4) == 0 // the top domain value becomes 2³³+1
		value := func() int {
			v := 1 + rng.IntN(domain)
			if big && v == domain {
				return 1<<33 + 1
			}
			return v
		}
		randomTuples := func(arity, count int) []relation.Tuple {
			ts := make([]relation.Tuple, count)
			for i := range ts {
				ts[i] = make(relation.Tuple, arity)
				for j := range ts[i] {
					ts[i][j] = value()
				}
			}
			return ts
		}

		l := dist.NewLoopback(1)
		db := relation.NewDatabase(domain)
		for _, a := range q.Atoms {
			attrs := make([]string, a.Arity())
			for j := range attrs {
				attrs[j] = fmt.Sprintf("c%d", j)
			}
			rel := relation.New(a.Name, attrs...)
			db.AddRelation(rel)
			mode := rng.IntN(10)
			if mode == 0 {
				continue // never delivered: the store does not exist
			}
			var tuples []relation.Tuple
			if mode > 1 {
				tuples = randomTuples(a.Arity(), 1+rng.IntN(20))
			}
			if err := deliver(ctx, l, 1, deliveries(a.Name, sealedRuns(rng, a.Arity(), 1+rng.IntN(3), tuples))); err != nil {
				t.Fatal(err)
			}
			live := make(map[string]relation.Tuple, len(tuples))
			for _, tu := range tuples {
				live[tu.Key()] = tu
			}
			if rng.IntN(3) == 0 && len(tuples) > 0 {
				// Retract a few absent and a few stored tuples, then bring
				// some of them back (an absent one is then simply stored).
				apply := func(del bool, ts []relation.Tuple) {
					run := sealedRuns(rng, a.Arity(), 1, ts)[0]
					op := dist.Op{Kind: dist.OpDeliver, Round: 2, Del: del, Deliveries: deliveries(a.Name, []*relation.Run{run})}
					if _, err := l.Run(ctx, []dist.Op{op}); err != nil {
						t.Fatal(err)
					}
				}
				del := append(randomTuples(a.Arity(), 2), tuples[:1+rng.IntN(len(tuples))]...)
				apply(true, del)
				for _, tu := range del {
					delete(live, tu.Key())
				}
				if back := del[:rng.IntN(len(del))]; len(back) > 0 {
					apply(false, back)
					for _, tu := range back {
						live[tu.Key()] = tu
					}
				}
			}
			for _, tu := range live {
				rel.MustAdd(tu)
			}
		}

		want, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatalf("trial %d: %s: ground truth: %v", trial, q, err)
		}
		b, err := localjoin.FromDatabase(q, db)
		if err != nil {
			t.Fatal(err)
		}
		viaTuples, err := localjoin.Evaluate(q, b, localjoin.Default)
		if err != nil {
			t.Fatalf("trial %d: %s: evaluate: %v", trial, q, err)
		}
		if len(want) == 0 {
			want, viaTuples = nil, nil
		}
		if !reflect.DeepEqual(viaTuples, want) {
			t.Fatalf("trial %d: %s: Evaluate(Default) = %v, ground truth %v", trial, q, viaTuples, want)
		}
		if got := joinView(t, l, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %s (big=%v): worker join = %v, ground truth %v", trial, q, big, got, want)
		}
	}
}

// TestPackedJoinArityMismatch: a run whose arity differs from its
// atom's is reported with the text the tuple API uses, even when
// another atom is empty.
func TestPackedJoinArityMismatch(t *testing.T) {
	ctx := context.Background()
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	bad := []relation.Tuple{{1}, {2}}
	_, wantErr := localjoin.Evaluate(q, localjoin.Bindings{"R": bad, "S": {{1, 2}}}, localjoin.Default)
	if wantErr == nil {
		t.Fatal("tuple API accepted an arity mismatch")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for _, sRows := range [][]relation.Tuple{{{1, 2}}, nil} {
		l := dist.NewLoopback(1)
		if err := deliver(ctx, l, 1, deliveries("R", sealedRuns(rng, 1, 2, bad))); err != nil {
			t.Fatal(err)
		}
		if err := deliver(ctx, l, 1, deliveries("S", sealedRuns(rng, 2, 1, sRows))); err != nil {
			t.Fatal(err)
		}
		err := join(ctx, l, dist.JoinSpec{Query: q.String(), View: "out"})
		if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
			t.Errorf("|S|=%d: join error = %v, want %q", len(sRows), err, wantErr)
		}
	}
}

// TestJoinNeverMutatesSealedRuns: the recovery journal re-sends the
// buffers it delivered, so a trie that aliases a run's words must only
// read them. Two pools holding the very same buffers join
// concurrently (the race detector sees any write), twice each, and the
// runs' payloads are bit-identical afterwards. The stores cover the
// three builder cases: one run in level order (aliased), several runs
// (merged), and a permuted atom (copied and re-sorted).
func TestJoinNeverMutatesSealedRuns(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(7, 7))
	q := query.MustParse("q(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
	db := relation.MatchingDatabase(rng, q, 600)
	var ds []exchange.Delivery
	for i, a := range q.Atoms {
		rel, _ := db.Relation(a.Name)
		ds = append(ds, deliveries(a.Name, sealedRuns(rng, 2, 1+i%2*2, rel.Tuples))...)
	}
	var before [][]uint64
	for _, d := range ds {
		if d.Buf.Stride() != 1 {
			t.Fatal("matching runs must be one word a row")
		}
		before = append(before, slices.Clone(d.Buf.Words()))
	}
	want, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for pool := 0; pool < 2; pool++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := dist.NewLoopback(1)
			if err := deliver(ctx, l, 1, ds); err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 2; round++ {
				view := fmt.Sprintf("out%d", round)
				if err := join(ctx, l, dist.JoinSpec{Query: q.String(), View: view}); err != nil {
					t.Error(err)
					return
				}
				runs, err := gather(ctx, l, view)
				if err != nil {
					t.Error(err)
					return
				}
				if got := relation.Merge(runs).Tuples(); !reflect.DeepEqual(got, want) {
					t.Errorf("round %d: %d answers, want %d", round, len(got), len(want))
				}
			}
		}()
	}
	wg.Wait()
	for i, d := range ds {
		if !slices.Equal(d.Buf.Words(), before[i]) {
			t.Errorf("run %d of %s was modified by the join", i, d.Rel)
		}
	}
}

// TestHashJoinWorkerAllocs guards the cold worker join — a fresh session
// over a fixed two-run store — against materializing anything per row.
// It allocated 103 objects at the commit that made the packed path the
// worker's only evaluator (the tuple fallback this test was written for,
// 95, is gone). Since a store is merged into a run that stays (a run
// header and a one-run slice more per store) and a trie keeps its levels
// in one slice (five fewer per atom) it allocated 99. Since the answer is
// appended to a reused scratch and kept as one exact-size copy, not grown
// a quarter at a time, it allocated 84. Since the join's set-up keeps its
// variable order, depths, level plan and answer row in one slice of ints
// and its tries, levels and participants in one slice each — no map, no
// sort closure, no append growth — it allocates 52, and must not allocate
// more (the race detector's pool adds raceSlackAllocs).
func TestHashJoinWorkerAllocs(t *testing.T) {
	const maxAllocs = 52
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(3, 3))
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	var ds []exchange.Delivery
	for _, name := range []string{"R", "S"} {
		tuples := make([]relation.Tuple, 2000)
		for i := range tuples {
			tuples[i] = relation.Tuple{1 + rng.IntN(1000), 1 + rng.IntN(1000)}
		}
		ds = append(ds, deliveries(name, sealedRuns(rng, 2, 2, tuples))...)
	}
	spec := dist.JoinSpec{Query: q.String(), View: "out"}
	allocs := testing.AllocsPerRun(20, func() {
		l := dist.NewLoopback(1)
		if err := deliver(ctx, l, 1, ds); err != nil {
			t.Fatal(err)
		}
		if err := l.RunOn(ctx, 0, []dist.Op{{Kind: dist.OpJoin, Join: spec}}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs+raceSlackAllocs {
		t.Errorf("worker join: %.0f allocs per run, want at most %d", allocs, maxAllocs+raceSlackAllocs)
	}
}
