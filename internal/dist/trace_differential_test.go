package dist_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// spanTree renders a trace's structural skeleton — ids, parents,
// names, rounds, workers, and actual-load fields, everything except
// timestamps — one line per span. Two executions of the same plan must
// produce identical skeletons regardless of transport: span ids are
// assigned in coordinator call order and loads come from the
// coordinator-side accounting, so this is the tracing analogue of the
// byte-identical-stats differential invariant.
func spanTree(tr *trace.Trace) string {
	var b strings.Builder
	for _, s := range tr.Spans {
		fmt.Fprintf(&b, "%d<-%d %s r%d w%d load=%d bits=%d %s\n",
			s.ID, s.Parent, s.Name, s.Round, s.Worker, s.LoadTuples, s.LoadBits, s.Note)
	}
	return b.String()
}

// runPlan plans q over db and runs the plan on tr, traced by tc (nil:
// untraced) — fused: Plan.Execute itself; stepped: the plan's round
// program driven by hand on a stepped cluster — and returns its round
// statistics.
func runPlan(t *testing.T, q *query.Query, db *relation.Database, p int, tr dist.Transport, fused bool, tc *trace.Trace) *mpc.Stats {
	t.Helper()
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	if !fused {
		_, cl := drive(t, dist.OpenStepped, dist.Options{Transport: tr, Trace: tc}, planProgram(t, pl, db, 23))
		return cl.Stats()
	}
	res, err := pl.Execute(db, plan.ExecOptions{Seed: 23, Transport: tr, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// tracedRun is runPlan with tracing enabled; it returns the trace.
func tracedRun(t *testing.T, q *query.Query, db *relation.Database, p int, tr dist.Transport, fused bool) *trace.Trace {
	t.Helper()
	tc := trace.New("q-diff", 77)
	runPlan(t, q, db, p, tr, fused, tc)
	tc.Finish()
	return tc
}

// TestTraceDifferentialTransports asserts the identical-span-tree
// invariant across loopback and TCP and across the schedules — the
// plan's round program stepped by hand ("sync" in the subtest's name,
// which is older than this net) and Plan.Execute's fused run
// ("pipelined") — over the query families the planner routes to
// different engines.
func TestTraceDifferentialTransports(t *testing.T) {
	const p = 4
	addrs := startPool(t, p)
	families := []struct {
		name string
		q    *query.Query
	}{
		{"triangle", query.Cycle(3)},
		{"chain", query.Chain(4)},
		{"star", query.Star(3)},
	}
	for fi, fam := range families {
		db := relation.MatchingDatabase(rand.New(rand.NewPCG(42, uint64(fi))), fam.q, 300)
		want := spanTree(tracedRun(t, fam.q, db, p, nil, true))
		for _, fused := range []bool{false, true} {
			name := fam.name + "/sync"
			if fused {
				name = fam.name + "/pipelined"
			}
			t.Run(name, func(t *testing.T) {
				loop := tracedRun(t, fam.q, db, p, nil, fused)
				tcp := tracedRun(t, fam.q, db, p, dialPool(t, addrs), fused)
				lt, tt := spanTree(loop), spanTree(tcp)
				if lt != tt {
					t.Errorf("span trees differ across transports:\nloopback:\n%s\ntcp:\n%s", lt, tt)
				}
				if lt != want {
					t.Errorf("span tree differs from Plan.Execute's:\n%s\nwant:\n%s", lt, want)
				}
				if loop.Rounds() == 0 {
					t.Errorf("no round spans recorded")
				}
				// Every round has one worker span per worker.
				workers := 0
				for _, s := range loop.Spans {
					if s.Name == "worker" {
						workers++
					}
				}
				if want := loop.Rounds() * p; workers != want {
					t.Errorf("worker spans = %d, want %d (rounds %d × p %d)", workers, want, loop.Rounds(), p)
				}
			})
		}
	}
}

// TestTraceHeaderPropagation: the trace stays on the coordinator. A
// traced execution sends the workers exactly the steps an untraced one
// sends — until wire version 10 every traced round also sent each worker
// its span context — and its trace still records every round the
// execution ran, one worker span per worker each.
func TestTraceHeaderPropagation(t *testing.T) {
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(9, 9)), q, 200)
	const p = 4
	for _, fused := range []bool{false, true} {
		name := "sync"
		if fused {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			run := func(tc *trace.Trace) (disttest.Trace, *mpc.Stats) {
				s := disttest.NewSchedule()
				stats := runPlan(t, q, db, p, s.Wrap(dist.NewLoopback(p)), fused, tc)
				return s.Trace(), stats
			}
			kinds := func(steps disttest.Trace) (out []dist.OpKind) {
				for _, s := range steps {
					out = append(out, s.Kind)
				}
				return out
			}
			untraced, _ := run(nil)
			tc := trace.New("q-steps", 78)
			traced, stats := run(tc)
			if !reflect.DeepEqual(traced, untraced) {
				t.Errorf("a traced execution sent the steps %v, an untraced one %v", kinds(traced), kinds(untraced))
			}
			workers := 0
			for _, s := range tc.Spans {
				if s.Name == "worker" {
					workers++
				}
			}
			if n := stats.NumRounds(); n == 0 || tc.Rounds() != n || workers != n*p {
				t.Errorf("the trace recorded %d rounds and %d worker spans, the execution ran %d rounds on %d workers", tc.Rounds(), workers, n, p)
			}
		})
	}
}
