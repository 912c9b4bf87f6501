package dist_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/relation"
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
