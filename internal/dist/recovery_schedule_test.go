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
// fault-free run (itself checked against ground truth); every
// kill-point must heal back to it on both schedules.
func TestRecoveryKillPointsPipelined(t *testing.T) {
	const p = 4
	for _, eng := range recoveryEngines(t, p) {
		counter := &countingTransport{Transport: dist.NewLoopback(p)}
		baseAns, base := drive(t, dist.OpenStepped, dist.Env{Transport: counter}, eng.prog)
		if !sameTuples(baseAns, eng.truth) {
			t.Fatalf("%s: baseline %d answers, ground truth %d", eng.name, len(baseAns), len(eng.truth))
		}

		points := []struct {
			name   string
			faults []disttest.Fault
			kills  int
			ok     bool
		}{
			{"scatter-kill", []disttest.Fault{{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"last-scatter-kill", []disttest.Fault{{Worker: 0, Op: disttest.OpDeliver, N: counter.delivers - 1, Kind: disttest.KillBefore}}, 1, counter.delivers > 1},
			{"barrier-kill", []disttest.Fault{{Worker: 0, Op: disttest.OpBarrier, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"join-kill", []disttest.Fault{{Worker: 1, Op: disttest.OpJoin, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"gather-kill", []disttest.Fault{{Worker: 3, Op: disttest.OpGather, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"double-kill", []disttest.Fault{
				{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore},
				{Worker: 2, Op: disttest.OpJoin, N: 0, Kind: disttest.KillBefore},
			}, 2, true},
		}
		for _, pt := range points {
			if !pt.ok {
				continue
			}
			t.Run(eng.name+"/"+pt.name, func(t *testing.T) {
				for _, sch := range schedules {
					for _, kind := range []string{"loopback", "tcp"} {
						var inner dist.Transport = dist.NewLoopback(p)
						if kind == "tcp" {
							inner = dialPool(t, startPool(t, p))
						}
						ft := disttest.NewFaultTransport(inner, pt.faults...)
						env := dist.Env{Transport: ft, Recovery: dist.RecoveryOptions{Enabled: true, MaxReplacements: 8}}
						ans, cl := drive(t, sch.open, env, eng.prog)
						what := sch.name + " " + kind
						if !sameTuples(ans, eng.truth) {
							t.Errorf("%s: %d answers, ground truth %d", what, len(ans), len(eng.truth))
						}
						if !reflect.DeepEqual(cl.Stats().Rounds, base.Stats().Rounds) {
							t.Errorf("%s: round stats differ from fault-free baseline:\n got %+v\nwant %+v",
								what, cl.Stats().Rounds, base.Stats().Rounds)
						}
						if got := ft.Kills(); got != pt.kills {
							t.Errorf("%s: %d kill faults fired, schedule expects %d", what, got, pt.kills)
						}
						if cl.Replacements() != pt.kills {
							t.Errorf("%s: %d replacements for %d kills", what, cl.Replacements(), pt.kills)
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
	_, base := drive(t, dist.Open, dist.Env{}, eng.prog)
	rec := &recordingTransport{inner: dist.NewLoopback(p)}
	drive(t, dist.Open, dist.Env{Transport: rec}, eng.prog)
	if rec.scripts != 1 || len(rec.calls) != 6 {
		t.Fatalf("a fused C3 round left as %d scripts of %v, want one of six steps", rec.scripts, rec.calls)
	}
	steps := []struct {
		op disttest.OpType
		n  int
	}{{disttest.OpDeliver, 0}, {disttest.OpDeliver, 1}, {disttest.OpDeliver, 2}, {disttest.OpBarrier, 0}, {disttest.OpJoin, 0}, {disttest.OpGather, 0}}
	for i, step := range steps {
		for _, kill := range []disttest.FaultKind{disttest.KillBefore, disttest.KillAfter} {
			for _, kind := range []string{"loopback", "tcp"} {
				t.Run(fmt.Sprintf("step-%d-%s/%s/%s", i, step.op, kill, kind), func(t *testing.T) {
					var inner dist.Transport = dist.NewLoopback(p)
					if kind == "tcp" {
						inner = dialPool(t, startPool(t, p))
					}
					ft := disttest.NewFaultTransport(inner, disttest.Fault{Worker: i % p, Op: step.op, N: step.n, Kind: kill})
					ans, cl := drive(t, dist.Open, dist.Env{Transport: ft, Recovery: dist.RecoveryOptions{Enabled: true}}, eng.prog)
					if !sameTuples(ans, eng.truth) {
						t.Errorf("%d answers, ground truth %d", len(ans), len(eng.truth))
					}
					if !reflect.DeepEqual(cl.Stats().Rounds, base.Stats().Rounds) {
						t.Errorf("round stats differ from the fault-free run")
					}
					if ft.Kills() != 1 || cl.Replacements() != 1 {
						t.Errorf("%d kills, %d replacements, want 1 and 1", ft.Kills(), cl.Replacements())
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
	_, base := drive(t, dist.Open, dist.Env{}, eng.prog)
	for _, sch := range schedules {
		for _, at := range []dist.OpKind{dist.OpDeliver, dist.OpBarrier, dist.OpJoin, dist.OpGather} {
			t.Run(sch.name+"/"+at.String(), func(t *testing.T) {
				pool := startKillablePool(t, p+1)
				members, spare := pool.addrs[:p], pool.addrs[p]
				tr := &killAtStep{TCP: dialPool(t, members), kind: at, kill: func() { pool.kill(2) }}
				env := dist.Env{Transport: tr, Recovery: dist.RecoveryOptions{Enabled: true, Spares: []string{spare}}}
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
