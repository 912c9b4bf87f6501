package dist_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/exchange"
	"repro/internal/relation"
	"repro/internal/wire"
)

// scriptLog keeps every script an execution handed its session.
type scriptLog struct {
	dist.Transport
	scripts [][]dist.Op
}

func (l *scriptLog) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	l.scripts = append(l.scripts, ops)
	return l.Transport.Run(ctx, ops)
}

// faultyPool is a loopback pool whose sessions sit behind the same
// result-neutral fault schedule: one worker's first delivery is held
// back to its barrier.
type faultyPool struct{ loopbackPool }

func (f *faultyPool) session() dist.Transport {
	return disttest.NewFaultTransport(f.loopbackPool.session(),
		disttest.Fault{Worker: 1, Op: dist.OpDeliver, N: 0, Kind: disttest.DelayToBarrier})
}

// rows flattens runs to their tuples, run by run.
func rows(runs []*relation.Run) [][]relation.Tuple {
	out := make([][]relation.Tuple, len(runs))
	for i, run := range runs {
		out[i] = run.AppendTuples(nil)
	}
	return out
}

// TestScriptIsItsSteps: a script means what its steps mean one at a
// time. The scripts of real executions — a one-round and a two-round
// plan, each seen fresh, retaining and resident, so every kind of step
// occurs — are replayed on two new sessions of the same pool, whole on
// one and step by step on the other: the replies are identical and the
// workers end up holding the same runs under every store, on Loopback,
// TCP and FaultTransport.
func TestScriptIsItsSteps(t *testing.T) {
	const p = 4
	ctx := context.Background()
	pools := residentPools(t, p)
	pools["fault"] = &faultyPool{loopbackPool{p: p, rs: dist.NewResidentStore()}}
	for _, c := range residentCases(t, p)[:2] {
		for name, pool := range pools {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				res := newResidency(t)
				kinds := make(map[dist.OpKind]bool)
				for sighting := 0; sighting < 3; sighting++ {
					log := &scriptLog{Transport: pool.session()}
					c.execute(t, log, res.Snapshot("d", 0), dist.RecoveryOptions{})
					whole, steps := pool.session(), pool.session()
					stores := make(map[string]bool)
					for i, ops := range log.scripts {
						want, err := whole.Run(ctx, ops)
						if err != nil {
							t.Fatal(err)
						}
						var got dist.Reply
						for _, op := range ops {
							kinds[op.Kind] = true
							for _, d := range op.Deliveries {
								stores[d.Rel] = true
							}
							stores[op.Join.View] = true
							r, err := steps.Run(ctx, []dist.Op{op})
							if err != nil {
								t.Fatal(err)
							}
							if op.Kind == dist.OpGather {
								got.Runs = r.Runs
							}
							if op.Kind == dist.OpAttach {
								got.Attached = r.Attached
							}
						}
						if !reflect.DeepEqual(rows(got.Runs), rows(want.Runs)) || !reflect.DeepEqual(got.Attached, want.Attached) {
							t.Fatalf("sighting %d, script %d: the steps replied %d runs and %v, the script %d runs and %v",
								sighting, i, len(got.Runs), got.Attached, len(want.Runs), want.Attached)
						}
					}
					delete(stores, "")
					for store := range stores {
						a, err := gather(ctx, whole, store)
						if err != nil {
							t.Fatal(err)
						}
						b, err := gather(ctx, steps, store)
						if err != nil {
							t.Fatal(err)
						}
						if len(a) == 0 || !reflect.DeepEqual(rows(a), rows(b)) {
							t.Fatalf("sighting %d: store %q holds %d runs after the scripts, %d after their steps", sighting, store, len(a), len(b))
						}
					}
				}
				for _, k := range []dist.OpKind{dist.OpDeliver, dist.OpBarrier, dist.OpJoin, dist.OpGather, dist.OpAttach} {
					if !kinds[k] {
						t.Errorf("no %s step in any script: the net does not cover it", k)
					}
				}
			})
		}
	}
}

// TestLinksAgreeOnAScript: the in-process link and a TCP session hand the
// same worker the same script, and it means the same on both. A script
// that delivers to a worker outside the pool is refused before any step
// runs, so worker 0's store stays empty; two attach steps return both
// answers per worker; two gathers keep each worker's runs together, in
// worker order. At the commit before the loopback ran the worker session
// it failed all three: the first delivery landed, only the second
// attach's answers came back, and the runs came back gather by gather.
func TestLinksAgreeOnAScript(t *testing.T) {
	const p = 2
	ctx := context.Background()
	unary := func(v int) *relation.Run { return relation.RunOf(1, []relation.Tuple{{v}}) }
	deliverTo := func(to, v int) dist.Op {
		return dist.Op{Kind: dist.OpDeliver, Round: 1, Deliveries: []exchange.Delivery{{To: to, Rel: "R", Buf: unary(v)}}}
	}
	flat := func(runs []*relation.Run) [][]relation.Tuple {
		if len(runs) == 0 {
			return nil
		}
		return rows(runs)
	}
	nothing := []int64{0, 0}
	hit := []wire.Attach{{Hit: true}, {Hit: true}}
	pools := residentPools(t, p)
	for _, row := range []struct {
		name   string
		script []dist.Op
		err    string
		// runs and from are the reply's gathered runs, held are what R
		// reads once the script is done.
		runs     [][]relation.Tuple
		from     []int
		attached [][]wire.Attach
		held     [][]relation.Tuple
	}{
		{
			name:   "out of range",
			script: []dist.Op{deliverTo(0, 1), deliverTo(7, 2)},
			err:    "delivery to worker 7 out of range [0,2)",
		},
		{
			name: "two attaches",
			script: []dist.Op{
				{Kind: dist.OpAttach, Attach: []dist.Attachment{{Key: "k1", Store: "S", Tuples: nothing}}},
				{Kind: dist.OpAttach, Attach: []dist.Attachment{{Key: "k2", Store: "T", Tuples: nothing}}},
			},
			attached: [][]wire.Attach{hit, hit},
		},
		{
			name: "two gathers",
			script: []dist.Op{deliverTo(1, 2), deliverTo(0, 1), {Kind: dist.OpBarrier, Round: 1},
				{Kind: dist.OpGather, View: "R"}, {Kind: dist.OpGather, View: "R"}},
			runs: [][]relation.Tuple{{{1}}, {{1}}, {{2}}, {{2}}},
			from: []int{0, 0, 1, 1},
			held: [][]relation.Tuple{{{1}}, {{2}}},
		},
	} {
		for name, pool := range pools {
			t.Run(row.name+"/"+name, func(t *testing.T) {
				tr := pool.session()
				reply, err := tr.Run(ctx, row.script)
				if (row.err == "") != (err == nil) || !strings.Contains(fmt.Sprint(err), row.err) {
					t.Fatalf("script: %v, want %q", err, row.err)
				}
				if got := flat(reply.Runs); !reflect.DeepEqual(got, row.runs) || !reflect.DeepEqual(reply.From, row.from) {
					t.Errorf("gathered %v from %v, want %v from %v", got, reply.From, row.runs, row.from)
				}
				if !reflect.DeepEqual(reply.Attached, row.attached) {
					t.Errorf("attach answers %v, want %v", reply.Attached, row.attached)
				}
				held, err := gather(ctx, tr, "R")
				if err != nil {
					t.Fatal(err)
				}
				if got := flat(held); !reflect.DeepEqual(got, row.held) {
					t.Errorf("store R holds %v after the script, want %v", got, row.held)
				}
			})
		}
	}
}
