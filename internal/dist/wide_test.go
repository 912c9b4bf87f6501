package dist_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
)

// The wide-tuple net: the differential families again, over domains
// that push runs onto the flat row-major layout, where the coordinator
// gathers, re-scatters and projects views without packed words. Two
// label shifts cover the two ways a run goes flat: +2¹³ keeps binary
// relations and three-column views packed and makes only the
// five-column answers flat (the chain4_warm shape: 5 × 14 bits > 64),
// +2³³ makes every run flat, arity 2 included.

// widened returns a database for q over n labels shifted up by offset:
// every relation is a random matching plus the identity tuples, so
// chains have many answers per label and cycles at least n.
func widened(q *query.Query, n int, offset int, salt uint64) *relation.Database {
	src := relation.MatchingDatabase(rand.New(rand.NewPCG(300, salt)), q, n)
	db := relation.NewDatabase(n + offset)
	for _, name := range src.Names() {
		r, _ := src.Relation(name)
		w := relation.New(r.Name, r.Attrs...)
		for i, t := range r.Tuples {
			row := make(relation.Tuple, len(t))
			diagonal := make(relation.Tuple, len(t))
			for c, v := range t {
				row[c] = v + offset
				diagonal[c] = i + 1 + offset
			}
			w.Tuples = append(w.Tuples, row)
			if !row.Equal(diagonal) {
				w.Tuples = append(w.Tuples, diagonal)
			}
		}
		db.AddRelation(w)
	}
	return db
}

// statsDigest fingerprints a communication record, per-worker vectors
// included.
func statsDigest(s *mpc.Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s.Rounds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDifferentialWideTuples: L4, L5 and C5 over flat-forcing domains,
// multiround and one-round: the engine's round statistics equal the
// digests recorded at the commit before the coordinator went run-native
// (routing, shares and accounting must not have moved), and the engine's
// round program driven by hand — stepped ≡ fused, loopback ≡ TCP —
// equals ground truth and the engine's record.
func TestDifferentialWideTuples(t *testing.T) {
	const p, n = 4, 250
	addrs := startPool(t, p)
	cases := []struct {
		name   string
		q      *query.Query
		multi  bool
		offset int
		golden string
	}{
		{"L4/multiround/answers-flat", query.Chain(4), true, 1 << 13, "478517b39984c222"},
		{"L4/multiround/all-flat", query.Chain(4), true, 1 << 33, "04759fd2cadc531b"},
		{"L5/multiround/answers-flat", query.Chain(5), true, 1 << 13, "9b80cf111c098f2b"},
		{"L5/multiround/all-flat", query.Chain(5), true, 1 << 33, "9f58c44bda5a2d03"},
		{"C5/multiround/all-flat", query.Cycle(5), true, 1 << 33, "841c3eb21731f050"},
		{"L4/one-round/answers-flat", query.Chain(4), false, 1 << 13, "582e1998017f7197"},
		{"C5/one-round/answers-flat", query.Cycle(5), false, 1 << 13, "87c0827fe693f9c2"},
		{"C5/one-round/all-flat", query.Cycle(5), false, 1 << 33, "9534748ae8b4f40d"},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := widened(c.q, n, c.offset, uint64(ci))
			truth, err := core.GroundTruth(c.q, db)
			if err != nil {
				t.Fatal(err)
			}
			if len(truth) == 0 {
				t.Fatal("empty ground truth proves nothing")
			}
			var base *mpc.Stats
			var prog program
			if c.multi {
				pl, err := multiround.Build(c.q, big.NewRat(0, 1))
				if err != nil {
					t.Fatal(err)
				}
				if pl.Rounds() < 2 {
					t.Fatalf("plan has %d rounds; the case is about re-scattered views", pl.Rounds())
				}
				res, err := multiround.Execute(pl, db, p, multiround.Options{Seed: 23})
				if err != nil {
					t.Fatal(err)
				}
				base, prog = res.Stats, multiProgram(pl, db, p, 23)
			} else {
				shares, err := hypercube.SharesForQuery(c.q, p, hypercube.GreedyRounding)
				if err != nil {
					t.Fatal(err)
				}
				res, err := hypercube.RunWithShares(c.q, db, p, shares, hypercube.Options{Seed: 23})
				if err != nil {
					t.Fatal(err)
				}
				base, prog = res.Stats, hcProgram(c.q, db, p, 0, shares, 23)
			}
			if got := statsDigest(base); got != c.golden {
				t.Errorf("round stats digest %s, recorded %s", got, c.golden)
			}
			driveAll(t, addrs, prog, truth, base)
		})
	}
}

// TestRecoveryWideRescatter: a worker killed at the round-2 barrier of
// a multiround run whose round-2 inputs are re-scattered runs on the
// flat layout is replaced and replayed from the journal — a scattered
// run must replay exactly like a scattered relation — with ground-truth
// answers and fault-free statistics, on both transports and on both
// schedules: the plan driven by hand on a stepped cluster (pipeline=false
// in the subtest's name, which is older than this net) and a fused one.
func TestRecoveryWideRescatter(t *testing.T) {
	const p = 4
	q := query.Chain(4)
	db := widened(q, 200, 1<<33, 9)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := multiround.Build(q, big.NewRat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := multiround.Execute(pl, db, p, multiround.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	prog := multiProgram(pl, db, p, 23)
	base, trace := prog.exploration("wide", truth, dist.OpenStepped).baseline(t, "loopback", p)
	if !reflect.DeepEqual(base.rounds, engine.Stats.Rounds) {
		t.Fatalf("round stats of the plan driven by hand differ from the engine's fault-free run")
	}
	for fused, sch := range schedules {
		for _, kind := range []string{"loopback", "tcp"} {
			t.Run(fmt.Sprintf("%s/pipeline=%v", kind, fused == 1), func(t *testing.T) {
				x := prog.exploration("wide", truth, sch.open)
				if _, err := x.holds(kind, p, base, trace.At(dist.OpBarrier, 1, 2, disttest.KillBefore)...); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestGatherWideAllocs pins what a wide gather costs the coordinator:
// 16 flat runs of 2 500 five-column tuples through Cluster.Gather. The
// commit before the run-native merge spent 359 209 allocations here
// (string keys, one backing array per run, a reflective sort); the
// merge tree needs two arenas, the answer's backing array and header
// slice, and a handful of small slices.
func TestGatherWideAllocs(t *testing.T) {
	const p, per, arity, n = 16, 2500, 5, 40000
	const parentAllocs, bound = 359206, 32
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
		ds[w] = exchange.Delivery{To: w, Rel: "wide", Buf: run}
	}
	ctx := context.Background()
	l := dist.NewLoopback(p)
	if err := deliver(ctx, l, 1, ds); err != nil {
		t.Fatal(err)
	}
	cluster, err := dist.NewCluster(mpc.Config{Workers: p, DomainN: n}, l)
	if err != nil {
		t.Fatal(err)
	}
	answers := 0
	allocs := testing.AllocsPerRun(5, func() {
		out, err := cluster.Gather(ctx, "wide")
		if err != nil {
			t.Fatal(err)
		}
		answers = out.Len()
	})
	if answers != p*per {
		t.Fatalf("gathered %d tuples, want %d", answers, p*per)
	}
	if allocs > bound || allocs*10 > parentAllocs {
		t.Errorf("wide gather: %.0f allocs per run, bound %d (parent commit %d)", allocs, bound, parentAllocs)
	}
}
