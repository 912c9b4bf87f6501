package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/multiround"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// The stepped ≡ fused net. There is one round schedule an execution
// runs — dist.Open's, which queues a round's steps and sends them at
// the next fence — and one a bare dist.NewCluster runs, which sends
// every step before its call returns. Here each engine's round program
// is driven by hand, through the public Cluster API, on both: the
// answers must equal the single-node ground truth and the engine's own,
// and the round statistics must be byte-identical to the engine's —
// when a step leaves changes nothing a worker computes and nothing the
// coordinator accounts.

// opener opens a cluster: dist.Open (fused) or dist.OpenStepped.
type opener func(dist.Options, mpc.Config) (*dist.Cluster, context.Context, error)

// schedules names the two.
var schedules = []struct {
	name string
	open opener
}{{"stepped", dist.OpenStepped}, {"fused", dist.Open}}

// program is one engine's round program, written out by hand: the
// cluster it wants and what it does with it.
type program struct {
	cfg mpc.Config
	run func(ctx context.Context, cl *dist.Cluster) ([]relation.Tuple, error)
}

// drive opens prog's cluster in env under the schedule and runs it.
func drive(t *testing.T, open opener, env dist.Options, prog program) ([]relation.Tuple, *dist.Cluster) {
	t.Helper()
	cl, ctx, err := open(env, prog.cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := prog.run(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	return answers, cl
}

// driveAll runs prog on both schedules over loopback and TCP and checks
// every run against the ground truth and the engine's round statistics.
func driveAll(t *testing.T, addrs []string, prog program, truth []relation.Tuple, want *mpc.Stats) {
	t.Helper()
	for _, sch := range schedules {
		for _, kind := range []string{"loopback", "tcp"} {
			var env dist.Options
			if kind == "tcp" {
				env.Transport = dialPool(t, addrs)
			}
			answers, cl := drive(t, sch.open, env, prog)
			if !sameTuples(answers, truth) {
				t.Errorf("%s %s: %d answers, ground truth %d", sch.name, kind, len(answers), len(truth))
			}
			if !reflect.DeepEqual(cl.Stats().Rounds, want.Rounds) {
				t.Errorf("%s %s: round stats differ from the engine's:\n got %+v\nwant %+v", sch.name, kind, cl.Stats().Rounds, want.Rounds)
			}
		}
	}
}

// capOK lets a round that broke the receive budget go on, as the engines do.
func capOK(err error) error {
	if errors.Is(err, mpc.ErrCapExceeded) {
		return nil
	}
	return err
}

// hcProgram is hypercube.RunWithShares by hand: one fat round.
func hcProgram(q *query.Query, db *relation.Database, p int, eps float64, shares *hypercube.Shares, seed uint64) program {
	return program{
		cfg: mpc.Config{Workers: p, Epsilon: eps, InputBits: db.InputBits(), DomainN: db.N},
		run: func(ctx context.Context, cl *dist.Cluster) ([]relation.Tuple, error) {
			hasher := hypercube.NewHasher(shares, seed)
			cl.BeginRound()
			for _, a := range q.Atoms {
				rel, _ := db.Relation(a.Name)
				if err := cl.Scatter(ctx, rel, a.Name, hypercube.NewGridPartitioner(shares, hasher, a)); err != nil {
					return nil, err
				}
			}
			if err := capOK(cl.EndRound(ctx)); err != nil {
				return nil, err
			}
			if err := cl.Join(ctx, q, nil, "out", 0); err != nil {
				return nil, err
			}
			return gatherTuples(ctx, cl, "out")
		},
	}
}

// multiProgram is multiround.Execute by hand: every step one round that
// scatters its groups' inputs — base relations, or the views an earlier
// round gathered, re-scattered as the runs they came back as — joins
// each group's view at the workers and gathers it.
func multiProgram(pl *multiround.Plan, db *relation.Database, p int, seed uint64) program {
	type source struct {
		attrs []string
		rel   *relation.Relation
		run   *relation.Run
	}
	eps, _ := pl.Epsilon.Float64()
	return program{
		cfg: mpc.Config{Workers: p, Epsilon: eps, InputBits: db.InputBits(), DomainN: db.N},
		run: func(ctx context.Context, cl *dist.Cluster) ([]relation.Tuple, error) {
			seed := seed // one hasher seed per group, counted up from here on every run
			env := make(map[string]source)
			for _, name := range db.Names() {
				r, _ := db.Relation(name)
				env[name] = source{attrs: r.Attrs, rel: r}
			}
			var last string
			for _, step := range pl.Steps {
				type work struct {
					g      multiround.Group
					shares *hypercube.Shares
					hasher *hypercube.Hasher
				}
				var round []work
				for _, g := range step.Groups {
					if g.Query == nil {
						continue
					}
					shares, err := hypercube.SharesForQuery(g.Query, p, hypercube.GreedyRounding)
					if err != nil {
						return nil, err
					}
					seed++
					round = append(round, work{g, shares, hypercube.NewHasher(shares, seed)})
				}
				if len(round) > 0 {
					cl.BeginRound()
					for _, w := range round {
						for _, a := range w.g.Query.Atoms {
							src, as := env[a.Name], w.g.View+"/"+a.Name
							part := hypercube.NewGridPartitioner(w.shares, w.hasher, a)
							var err error
							if src.rel != nil {
								err = cl.Scatter(ctx, src.rel, as, part)
							} else {
								err = cl.ScatterRun(ctx, src.run, as, part)
							}
							if err != nil {
								return nil, err
							}
						}
					}
					if err := capOK(cl.EndRound(ctx)); err != nil {
						return nil, err
					}
					for _, w := range round {
						bindings := make(map[string]string)
						for _, a := range w.g.Query.Atoms {
							bindings[a.Name] = w.g.View + "/" + a.Name
						}
						if err := cl.Join(ctx, w.g.Query, bindings, w.g.View+"!out", 0); err != nil {
							return nil, err
						}
						run, err := cl.Gather(ctx, w.g.View+"!out")
						if err != nil {
							return nil, err
						}
						env[w.g.View] = source{attrs: w.g.Query.Vars(), run: run}
					}
				}
				for _, g := range step.Groups {
					if g.Query == nil {
						env[g.View] = env[g.Atoms[0]]
					}
					last = g.View
				}
			}
			final := env[last]
			if final.rel != nil {
				return nil, fmt.Errorf("final view %s was never gathered", last)
			}
			cols := make([]int, 0, len(final.attrs))
			for _, v := range pl.Query.Vars() {
				cols = append(cols, slices.Index(final.attrs, v))
			}
			return relation.Project(final.run, cols).Tuples(), nil
		},
	}
}

// heavyRoute is one side of the skew engine's routing discipline,
// written against the exported Routing: light values hash to one
// server, a heavy value splits round-robin over its block on one side —
// every copy of a row to where its first copy goes — and is broadcast to
// the block on the other.
type heavyRoute struct {
	rt    *skew.Routing
	col   int
	sideR bool
	seed  uint64
	heavy map[int]int // join value → position in rt.Heavy
	rank  []int       // tuple index → rank among its value's occurrences
}

func newHeavyRoute(rt *skew.Routing, rel *relation.Relation, col int, sideR bool, seed uint64) *heavyRoute {
	rows := rel.Run().Tuples() // Scatter routes the run, in its order
	h := &heavyRoute{rt: rt, col: col, sideR: sideR, seed: seed, heavy: make(map[int]int), rank: make([]int, len(rows))}
	for i, hv := range rt.Heavy {
		h.heavy[hv.Value] = i
	}
	seen, first := make([]int, len(rt.Heavy)), map[string]int{}
	for i, t := range rows {
		if k, ok := h.heavy[t[col]]; ok {
			key := fmt.Sprint(t)
			if _, dup := first[key]; !dup {
				first[key] = seen[k]
			}
			h.rank[i] = first[key]
			seen[k]++
		}
	}
	return h
}

func (h *heavyRoute) Route(i int, t relation.Tuple, buf []int) []int {
	k, ok := h.heavy[t[h.col]]
	if !ok {
		return append(buf, exchange.HashDest(t[h.col], h.seed, h.rt.P))
	}
	hv := h.rt.Heavy[k]
	if hv.SplitR == h.sideR {
		return append(buf, (hv.First+h.rank[i]%hv.Size)%h.rt.P)
	}
	for j := 0; j < hv.Size; j++ {
		buf = append(buf, (hv.First+j)%h.rt.P)
	}
	return buf
}

// skewProgram is skew.Execute by hand: the two sides of q scatter as
// they are under rt, partitioned on columns ry and sy.
func skewProgram(q *query.Query, r, s *relation.Relation, ry, sy int, rt *skew.Routing, seed uint64) program {
	domain := 1
	for _, rel := range []*relation.Relation{r, s} {
		for _, t := range rel.Rows() {
			domain = max(domain, slices.Max(t))
		}
	}
	return program{
		cfg: mpc.Config{Workers: rt.P, InputBits: 1, DomainN: domain},
		run: func(ctx context.Context, cl *dist.Cluster) ([]relation.Tuple, error) {
			cl.BeginRound()
			if err := cl.Scatter(ctx, r, q.Atoms[0].Name, newHeavyRoute(rt, r, ry, true, seed)); err != nil {
				return nil, err
			}
			if err := cl.Scatter(ctx, s, q.Atoms[1].Name, newHeavyRoute(rt, s, sy, false, seed)); err != nil {
				return nil, err
			}
			if err := capOK(cl.EndRound(ctx)); err != nil {
				return nil, err
			}
			if err := cl.Join(ctx, q, nil, "out", 0); err != nil {
				return nil, err
			}
			return gatherTuples(ctx, cl, "out")
		},
	}
}

// planProgram is Plan.Execute by hand: the round program of the engine
// the plan chose, under the shares or the routing the plan compiled.
func planProgram(t *testing.T, pl *plan.Plan, db *relation.Database, seed uint64) program {
	t.Helper()
	switch pl.Engine {
	case plan.OneRound:
		eps, _ := pl.Epsilon.Float64()
		return hcProgram(pl.Query, db, pl.P, eps, pl.Shares, seed)
	case plan.MultiRound:
		return multiProgram(pl.Multi, db, pl.P, seed)
	case plan.SkewJoin:
		m := pl.SkewMap
		r, _ := db.Relation(m.R)
		s, _ := db.Relation(m.S)
		rt := pl.Routing
		if rt == nil {
			rt = skew.CompileFromData(r, m.RY, s, m.SY, pl.P, 1)
		}
		return skewProgram(pl.Query, r, s, m.RY, m.SY, rt, seed)
	}
	t.Fatalf("no hand-driven program for engine %v", pl.Engine)
	return program{}
}

// TestPipelinedDifferential is the engine × input matrix: the engine
// itself fixes the reference, and its round program driven by hand on
// a stepped and on a fused cluster, over loopback and TCP, must agree
// with it on answers and round statistics.
func TestPipelinedDifferential(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	families := []struct {
		name string
		q    *query.Query
	}{
		{"triangle", query.Cycle(3)},
		{"chain", query.Chain(4)},
	}
	engines := []struct {
		name    string
		run     engineRun
		program func(t *testing.T, q *query.Query, db *relation.Database) program
	}{
		{"hypercube", runHypercube, func(t *testing.T, q *query.Query, db *relation.Database) program {
			shares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
			if err != nil {
				t.Fatal(err)
			}
			return hcProgram(q, db, p, 0, shares, 23)
		}},
		{"multiround", runMultiround, func(t *testing.T, q *query.Query, db *relation.Database) program {
			pl, err := multiround.Build(q, big.NewRat(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			return multiProgram(pl, db, p, 23)
		}},
	}
	inputs := []struct {
		name string
		db   func(q *query.Query, salt uint64) *relation.Database
	}{
		{"matching", func(q *query.Query, salt uint64) *relation.Database {
			return relation.MatchingDatabase(rand.New(rand.NewPCG(100, salt)), q, 300)
		}},
		{"zipf", func(q *query.Query, salt uint64) *relation.Database {
			return zipfDatabase(rand.New(rand.NewPCG(200, salt)), q, 200, 1.1)
		}},
	}
	for fi, fam := range families {
		for _, eng := range engines {
			for _, in := range inputs {
				t.Run(fam.name+"/"+eng.name+"/"+in.name, func(t *testing.T) {
					db := in.db(fam.q, uint64(fi))
					truth, err := core.GroundTruth(fam.q, db)
					if err != nil {
						t.Fatal(err)
					}
					refAns, refStats := eng.run(t, fam.q, db, p, nil)
					if !sameTuples(refAns, truth) {
						t.Fatalf("engine: %d answers, ground truth %d", len(refAns), len(truth))
					}
					driveAll(t, addrs, eng.program(t, fam.q, db), truth, refStats)
				})
			}
		}
	}
}

// TestPipelinedSkewJoin covers the skew engine's three routing modes:
// the engine's round driven by hand, stepped and fused, over both
// transports, against the engine itself.
func TestPipelinedSkewJoin(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	r, s := skew.ZipfJoinInput(rand.New(rand.NewPCG(3, 2)), 400, 1.3)
	truth, err := skew.GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	ry, sy := r.AttrIndex("y"), s.AttrIndex("y")
	for _, mode := range []skew.Mode{skew.Standard, skew.Resilient, skew.ModeWCOJ} {
		t.Run(mode.String(), func(t *testing.T) {
			ref, _, err := skew.RunJoin(r, s, p, mode, skew.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(ref.Run.Tuples(), truth) {
				t.Fatalf("engine: %d answers, ground truth %d", ref.Run.Len(), len(truth))
			}
			rt := &skew.Routing{P: p}
			if mode == skew.Resilient {
				rt = skew.CompileFromData(r, ry, s, sy, p, 1)
				if len(rt.Heavy) == 0 {
					t.Fatal("no heavy hitter in a Zipf(1.3) input: the mode routes like plain hashing")
				}
			}
			driveAll(t, addrs, skewProgram(skew.JoinQuery(), r, s, ry, sy, rt, 7), truth, ref.Stats)
		})
	}
}

// TestPipelinedPlanner: for every engine the planner can pick,
// Plan.Execute and the plan's round program driven by hand, stepped and
// fused, agree.
func TestPipelinedPlanner(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	cases := []struct {
		name   string
		q      *query.Query
		eps    *big.Rat
		engine *plan.Engine
	}{
		{"auto-triangle", query.Cycle(3), nil, nil},
		{"forced-multi-chain", query.Chain(4), big.NewRat(0, 1), nil},
		{"forced-skew-join", query.MustParse("q(x,y,z) = R(x,y), S(y,z)"), nil, enginePtr(plan.SkewJoin)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(55, uint64(len(c.name))))
			db := relation.MatchingDatabase(rng, c.q, 300)
			pl, err := plan.Build(c.q, relation.CollectStats(db), plan.Options{P: p, Epsilon: c.eps})
			if err != nil {
				t.Fatal(err)
			}
			if c.engine != nil {
				if pl, err = pl.WithEngine(*c.engine); err != nil {
					t.Fatal(err)
				}
			}
			truth, err := core.GroundTruth(c.q, db)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := pl.Execute(db, plan.ExecOptions{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(ref.Answers, truth) {
				t.Fatalf("Execute returned %d answers, ground truth %d", len(ref.Answers), len(truth))
			}
			driveAll(t, addrs, planProgram(t, pl, db, 3), truth, ref.Stats)
		})
	}
}

// gatherTuples is Cluster.Gather materialized, for the hand-driven
// programs that hand back tuples.
func gatherTuples(ctx context.Context, cl *dist.Cluster, view string) ([]relation.Tuple, error) {
	run, err := cl.Gather(ctx, view)
	return run.Tuples(), err
}
