package plan_test

import (
	"context"
	"math/big"
	"math/rand/v2"
	"net"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// startAggPool spins up n in-process TCP worker listeners and returns
// their addresses.
func startAggPool(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go dist.Serve(ctx, ln)
	}
	return addrs
}

// TestAggregateAcrossEnginesAndTransports is the gather-fold
// differential: every engine × transport combination must produce the
// exact grouped aggregate the single-node reference computes over the
// ground-truth answer set, with byte-identical round statistics
// between loopback and TCP (the fold changes the output, never the
// communication).
func TestAggregateAcrossEnginesAndTransports(t *testing.T) {
	const p = 8
	rng := rand.New(rand.NewPCG(17, 19))

	// Scenario 1: skewed two-atom join — one-round and skew engines.
	r, s := skew.ZipfJoinInput(rng, 1500, 1.3)
	zipfDB := relation.NewDatabase(1500)
	zipfDB.AddRelation(r)
	zipfDB.AddRelation(s)

	// Scenario 2: a 4-chain at ε = 0 — one-round and multiround.
	chain := query.Chain(4)
	chainDB := relation.MatchingDatabase(rand.New(rand.NewPCG(23, 29)), chain, 400)

	scenarios := []struct {
		name    string
		q       *query.Query
		db      *relation.Database
		eps     *big.Rat
		engines []plan.Engine
		spec    relation.GroupSpec
	}{
		{
			name:    "zipf-join",
			q:       skew.JoinQuery(),
			db:      zipfDB,
			engines: []plan.Engine{plan.OneRound, plan.SkewJoin},
			spec: relation.GroupSpec{
				GroupBy: []int{0},
				Aggs: []relation.Aggregate{
					{Func: relation.AggCount, Col: 2},
					{Func: relation.AggMax, Col: 2},
				},
			},
		},
		{
			name:    "chain4-eps0",
			q:       chain,
			db:      chainDB,
			eps:     big.NewRat(0, 1),
			engines: []plan.Engine{plan.OneRound, plan.MultiRound},
			spec: relation.GroupSpec{
				GroupBy: []int{0},
				Aggs:    []relation.Aggregate{{Func: relation.AggCount, Col: chain.NumVars() - 1}},
			},
		},
	}

	addrs := startAggPool(t, p)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			truth, err := core.GroundTruth(sc.q, sc.db)
			if err != nil {
				t.Fatal(err)
			}
			want := relation.GroupAggregate(truth, sc.spec)
			base, err := plan.Build(sc.q, relation.CollectStats(sc.db), plan.Options{P: p, Epsilon: sc.eps})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range sc.engines {
				forced, err := base.WithEngine(eng)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				pl, err := forced.WithAggregate(sc.spec)
				if err != nil {
					t.Fatal(err)
				}
				loop, err := pl.Execute(sc.db, plan.ExecOptions{Seed: 5})
				if err != nil {
					t.Fatalf("%v loopback: %v", eng, err)
				}
				if !reflect.DeepEqual(loop.Answers, want) {
					t.Fatalf("%v loopback: %d aggregate rows, reference %d", eng, len(loop.Answers), len(want))
				}

				ctx := context.Background()
				tr, err := dist.DialTCP(ctx, addrs)
				if err != nil {
					t.Fatal(err)
				}
				// Asked for one row, the engine still gathers them all: a
				// fold reads every row of the answer.
				tcp, err := pl.ExecuteRun(sc.db, plan.ExecOptions{Seed: 5, Transport: tr, Context: ctx, AnswerLimit: 1})
				tr.Close()
				if err != nil {
					t.Fatalf("%v tcp: %v", eng, err)
				}
				if got := tcp.Run.Tuples(); !reflect.DeepEqual(got, want) || tcp.Count != len(want) {
					t.Fatalf("%v tcp: %d aggregate rows (count %d), reference %d", eng, len(got), tcp.Count, len(want))
				}
				if !reflect.DeepEqual(loop.Stats.Rounds, tcp.Stats.Rounds) {
					t.Fatalf("%v: round stats diverge between transports:\nloop %+v\n tcp %+v",
						eng, loop.Stats.Rounds, tcp.Stats.Rounds)
				}
			}
		})
	}
}

// TestWithAggregateValidation: the spec is validated against the
// query's variable count, and OutputVars reflects the fold.
func TestWithAggregateValidation(t *testing.T) {
	q := query.MustParse("R(x,y),S(y,z)")
	pl, err := plan.Build(q, plan.MatchingStats(q, 100), plan.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.WithAggregate(relation.GroupSpec{
		GroupBy: []int{0},
		Aggs:    []relation.Aggregate{{Func: relation.AggCount, Col: 3}},
	}); err == nil {
		t.Fatal("out-of-range aggregate column accepted")
	}
	if _, err := pl.WithAggregate(relation.GroupSpec{GroupBy: []int{0}}); err == nil {
		t.Fatal("spec without aggregates accepted")
	}
	agg, err := pl.WithAggregate(relation.GroupSpec{
		GroupBy: []int{0},
		Aggs:    []relation.Aggregate{{Func: relation.AggSum, Col: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.OutputVars(); !reflect.DeepEqual(got, []string{"x", "sum(z)"}) {
		t.Fatalf("OutputVars = %v", got)
	}
	if got := pl.OutputVars(); !reflect.DeepEqual(got, q.Vars()) {
		t.Fatalf("unaggregated OutputVars = %v", got)
	}
}
