package dist_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
)

// The recovery net on both schedules: the same deterministic kill
// schedules, met by the engines' round programs driven by hand on a
// stepped and on a fused cluster. A FaultTransport lets every step of a
// script meet its counters as if it had come alone, so a kill-point
// names the same step on both; what differs is when the coordinator
// learns of it — at the step on a stepped cluster, at the fence on a
// fused one, after the healthy pool has run the rest of the script — and
// what it sends again after the heal. Either way the healed run must
// match ground truth with fault-free statistics.

// TestRecoveryKillPointsPipelined reruns the kill-point table on the
// hand-driven programs, stepped and fused. The baseline is the stepped
// fault-free run (itself checked against ground truth), whose trace the
// points are looked up in; every kill-point must heal back to it on both
// schedules, with exactly one replacement per kill.
func TestRecoveryKillPointsPipelined(t *testing.T) {
	const p = 4
	for _, eng := range recoveryEngines(t, p) {
		base, trace := eng.prog.exploration(eng.name, eng.truth, dist.OpenStepped).baseline(t, "loopback", p)
		points := []struct {
			name   string
			faults []disttest.Fault
		}{
			{"scatter-kill", trace.At(dist.OpDeliver, 0, 1, disttest.KillBefore)},
			{"last-scatter-kill", trace.At(dist.OpDeliver, -1, 0, disttest.KillBefore)},
			{"barrier-kill", trace.At(dist.OpBarrier, 0, 0, disttest.KillBefore)},
			{"join-kill", trace.At(dist.OpJoin, 0, 1, disttest.KillBefore)},
			{"gather-kill", trace.At(dist.OpGather, 0, 3, disttest.KillBefore)},
			{"double-kill", append(trace.At(dist.OpDeliver, 0, 1, disttest.KillBefore), trace.At(dist.OpJoin, 0, 2, disttest.KillBefore)...)},
		}
		for _, pt := range points {
			t.Run(eng.name+"/"+pt.name, func(t *testing.T) {
				for _, sch := range schedules {
					for _, kind := range []string{"loopback", "tcp"} {
						if _, err := eng.prog.exploration(eng.name, eng.truth, sch.open).holds(kind, p, base, pt.faults...); err != nil {
							t.Errorf("%s %s: %v", sch.name, kind, err)
						}
					}
				}
			})
		}
	}
}

// TestHealMidScriptIsInvisible: one fat C3 round on a fused cluster is
// one script — three scatters, the barrier, the join, the gather — and a
// worker killed at any step of it, before or after the step acted, is
// replaced, replayed from the journal and asked only for what the script
// still owed: ground-truth answers, the fault-free record, exactly one
// replacement.
func TestHealMidScriptIsInvisible(t *testing.T) {
	const p = 4
	eng := recoveryEngines(t, p)[0]
	x := eng.prog.exploration(eng.name, eng.truth, dist.Open)
	base, trace := x.baseline(t, "loopback", p)
	if len(trace) != 6 || trace[5].Script != 0 {
		t.Fatalf("a fused C3 round left as %+v, want one script of six steps", trace)
	}
	for i, site := range trace {
		for _, kill := range []disttest.FaultKind{disttest.KillBefore, disttest.KillAfter} {
			for _, kind := range []string{"loopback", "tcp"} {
				t.Run(fmt.Sprintf("step-%d-%s/%s/%s", i, site.Kind, kill, kind), func(t *testing.T) {
					if _, err := x.holds(kind, p, base, site.On(i%p, kill)); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// killAtStep is a TCP session that takes a worker process down just
// ahead of the first script carrying a step of the given kind: the
// worker's stream of that script dies mid-flight.
type killAtStep struct {
	*dist.TCP
	kind dist.OpKind
	kill func()
}

func (k *killAtStep) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		if op.Kind == k.kind && k.kill != nil {
			k.kill()
			k.kill = nil
		}
	}
	return k.TCP.Run(ctx, ops)
}

// TestRecoveryMidStreamTCPPipelined kills a worker process under a TCP
// execution, on either schedule, once its scatters are out: on the fused
// cluster the whole round script to that worker dies mid-flight, the
// spare is promoted and replayed from the journal, and the fence sends
// only the gather again. Answers must match ground truth and the
// statistics must equal the fault-free loopback run.
func TestRecoveryMidStreamTCPPipelined(t *testing.T) {
	const p = 4
	eng := recoveryEngines(t, p)[0]
	_, base := drive(t, dist.Open, dist.Options{}, eng.prog)
	for _, sch := range schedules {
		for _, at := range []dist.OpKind{dist.OpDeliver, dist.OpBarrier, dist.OpJoin, dist.OpGather} {
			t.Run(sch.name+"/"+at.String(), func(t *testing.T) {
				pool := startKillablePool(t, p+1)
				members, spare := pool.addrs[:p], pool.addrs[p]
				tr := &killAtStep{TCP: lentSession(t, members, []string{spare}), kind: at, kill: func() { pool.kill(2) }}
				env := dist.Options{Transport: tr, Recovery: dist.RecoveryOptions{Enabled: true}}
				ans, cl := drive(t, sch.open, env, eng.prog)
				if cl.Replacements() != 1 {
					t.Fatalf("%d replacements for one killed worker process", cl.Replacements())
				}
				if !sameTuples(ans, eng.truth) {
					t.Fatalf("%d answers after mid-stream heal, ground truth %d", len(ans), len(eng.truth))
				}
				if !reflect.DeepEqual(cl.Stats().Rounds, base.Stats().Rounds) {
					t.Errorf("round stats differ from fault-free baseline:\n got %+v\nwant %+v",
						cl.Stats().Rounds, base.Stats().Rounds)
				}
			})
		}
	}
}
