package dist_test

import (
	"math/big"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// The recovery tables: named kill-points × engines × transports. Every
// row is looked up in the trace of the engine's fault-free run
// (disttest.Trace.At — the first scatter, the last join, the second
// barrier) and held to the explorer's invariants (explore_test.go): the
// answers match the single-node ground truth and the round statistics
// match the fault-free baseline byte for byte. A lost worker must be
// invisible in every output except the replacement counter.

// recEngine is one engine under recovery test: the exploration runs the
// engine itself, prog is the same round program written out by hand
// (schedule_test.go), for the nets that choose the cluster's schedule.
type recEngine struct {
	exploration
	prog program
}

// exploration runs the hand-written program on a cluster opened by open.
func (pr program) exploration(name string, truth []relation.Tuple, open opener) exploration {
	return exploration{name: name, truth: truth, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		cl, ctx, err := open(dist.Options{Transport: behind(s, dial()), Recovery: rec}, pr.cfg)
		if err != nil {
			return outcome{}, err
		}
		answers, err := pr.run(ctx, cl)
		return outcome{answers: answers, rounds: cl.Stats().Rounds, repl: cl.Replacements()}, err
	}}
}

// recoveryEngines builds the three engines over fixed deterministic
// inputs, with ground truth attached.
func recoveryEngines(t *testing.T, p int) []recEngine {
	t.Helper()

	// Hypercube: one round, triangle query, one triangle per domain value
	// (a matching database has next to none, and then no worker's loss shows).
	triQ := query.Cycle(3)
	triDB := relation.IdentityDatabase(triQ, 200)
	triTruth, err := core.GroundTruth(triQ, triDB)
	if err != nil {
		t.Fatal(err)
	}
	triShares, err := hypercube.SharesForQuery(triQ, p, hypercube.GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}

	// Multiround: chain at ε=0 — a genuine Γ^r_ε multi-step plan, so
	// kill-points in later rounds exist.
	chQ := query.Chain(4)
	chDB := relation.MatchingDatabase(rand.New(rand.NewPCG(101, 0)), chQ, 200)
	chTruth, err := core.GroundTruth(chQ, chDB)
	if err != nil {
		t.Fatal(err)
	}
	chPlan, err := multiround.Build(chQ, big.NewRat(0, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Skew join: Zipf input under the resilient heavy-hitter routing.
	r, s := skew.ZipfJoinInput(rand.New(rand.NewPCG(102, 0)), 300, 1.2)
	sjTruth, err := skew.GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	ry, sy := r.AttrIndex("y"), s.AttrIndex("y")

	engine := func(name string, truth []relation.Tuple, prog program, run func(tr dist.Transport, rec dist.RecoveryOptions) (outcome, error)) recEngine {
		return recEngine{exploration{name: name, truth: truth, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
			return run(behind(s, dial()), rec)
		}}, prog}
	}
	return []recEngine{
		engine("hypercube", triTruth, hcProgram(triQ, triDB, p, 0, triShares, 23), func(tr dist.Transport, rec dist.RecoveryOptions) (outcome, error) {
			res, err := hypercube.Run(triQ, triDB, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
			if err != nil {
				return outcome{}, err
			}
			return outcome{answers: res.Run.Tuples(), rounds: res.Stats.Rounds, repl: res.Replacements}, nil
		}),
		engine("multiround", chTruth, multiProgram(chPlan, chDB, p, 23), func(tr dist.Transport, rec dist.RecoveryOptions) (outcome, error) {
			res, err := multiround.Execute(chPlan, chDB, p, multiround.Options{Seed: 23, Transport: tr, Recovery: rec})
			if err != nil {
				return outcome{}, err
			}
			return outcome{answers: res.Run.Tuples(), rounds: res.Stats.Rounds, repl: res.Replacements}, nil
		}),
		engine("skew", sjTruth, skewProgram(skew.JoinQuery(), r, s, ry, sy, skew.CompileFromData(r, ry, s, sy, p, 1), 7), func(tr dist.Transport, rec dist.RecoveryOptions) (outcome, error) {
			res, _, err := skew.RunJoin(r, s, p, skew.Resilient, skew.Options{Seed: 7, Transport: tr, Recovery: rec})
			if err != nil {
				return outcome{}, err
			}
			return outcome{answers: res.Run.Tuples(), rounds: res.Stats.Rounds, repl: res.Replacements}, nil
		}),
	}
}

// TestRecoveryKillPoints is the named net. For every engine it first runs
// fault-free on loopback to fix the baseline (answers checked against
// ground truth, stats and the trace recorded), then runs every kill-point
// the trace has on both transports.
func TestRecoveryKillPoints(t *testing.T) {
	const p = 4
	for _, eng := range recoveryEngines(t, p) {
		base, trace := eng.baseline(t, "loopback", p)
		lastJoin := trace.At(dist.OpJoin, -1, 3, disttest.KillBefore)
		if trace.At(dist.OpJoin, 1, 3, disttest.KillBefore) == nil {
			lastJoin = nil // the only join is join-kill's
		}
		points := []struct {
			name   string
			faults []disttest.Fault
		}{
			{"scatter-kill-before", trace.At(dist.OpDeliver, 0, 1, disttest.KillBefore)},
			{"scatter-kill-after", trace.At(dist.OpDeliver, 0, 2, disttest.KillAfter)},
			{"last-scatter-kill", trace.At(dist.OpDeliver, -1, 0, disttest.KillBefore)},
			{"barrier-kill", trace.At(dist.OpBarrier, 0, 0, disttest.KillBefore)},
			{"round-2-barrier-kill", trace.At(dist.OpBarrier, 1, 2, disttest.KillBefore)},
			{"join-kill", trace.At(dist.OpJoin, 0, 1, disttest.KillBefore)},
			{"last-join-kill", lastJoin},
			{"gather-kill", trace.At(dist.OpGather, 0, 3, disttest.KillBefore)},
			{"double-kill", append(trace.At(dist.OpDeliver, 0, 1, disttest.KillBefore), trace.At(dist.OpJoin, 0, 2, disttest.KillBefore)...)},
			{"delay-to-barrier", trace.At(dist.OpDeliver, 0, 1, disttest.DelayToBarrier)},
			{"duplicate-delivery", trace.At(dist.OpDeliver, 0, 2, disttest.DuplicateDelivery)},
		}
		for _, pt := range points {
			if pt.faults == nil {
				continue // a one-round engine has no second barrier
			}
			for _, kind := range []string{"loopback", "tcp"} {
				t.Run(eng.name+"/"+pt.name+"/"+kind, func(t *testing.T) {
					if _, err := eng.holds(kind, p, base, pt.faults...); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestRecoveryWithoutPolicyStillFails pins the opt-in contract: the
// same kill that recovery heals aborts the execution when recovery is
// off, exactly like the pre-recovery runtime.
func TestRecoveryWithoutPolicyStillFails(t *testing.T) {
	const p = 4
	ft := disttest.NewFaultTransport(dist.NewLoopback(p),
		disttest.Fault{Worker: 1, Op: dist.OpBarrier, N: 0, Kind: disttest.KillBefore})
	_, err := recoveryEngines(t, p)[0].on(ft, dist.RecoveryOptions{})
	if err == nil {
		t.Fatal("kill without recovery succeeded")
	}
	if got := dist.FailedWorkers(err); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FailedWorkers = %v, want [1]", got)
	}
}

// TestRecoveryBudgetExhausted: more failures than MaxReplacements
// aborts with a budget error instead of looping.
func TestRecoveryBudgetExhausted(t *testing.T) {
	const p = 4
	ft := disttest.NewFaultTransport(dist.NewLoopback(p),
		disttest.Fault{Worker: 0, Op: dist.OpDeliver, N: 0, Kind: disttest.KillBefore},
		disttest.Fault{Worker: 1, Op: dist.OpDeliver, N: 1, Kind: disttest.KillBefore},
		disttest.Fault{Worker: 2, Op: dist.OpDeliver, N: 2, Kind: disttest.KillBefore},
	)
	if _, err := recoveryEngines(t, p)[0].on(ft, dist.RecoveryOptions{Enabled: true, MaxReplacements: 2}); err == nil {
		t.Fatal("three kills under a budget of 2 succeeded")
	}
}

// TestRecoveryAnnouncesEpoch: a healed loopback run leaves the expected
// control-plane trail — for the one lost worker one fresh session, one
// epoch step to the pool and one replay script, which is one exchange —
// and, although the policy names no PhaseTimeout, every script of the
// execution and every step of the heal ran under a deadline.
func TestRecoveryAnnouncesEpoch(t *testing.T) {
	const p = 4
	lb := dist.NewLoopback(p)
	rec := &recordingTransport{inner: disttest.NewFaultTransport(lb,
		disttest.Fault{Worker: 1, Op: dist.OpDeliver, N: 0, Kind: disttest.KillBefore})}
	out, err := recoveryEngines(t, p)[0].on(rec, dist.RecoveryOptions{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.repl != 1 || lb.Epoch() != 1 {
		t.Fatalf("%d replacements, pool at epoch %d, want 1 and 1", out.repl, lb.Epoch())
	}
	heal := slices.Index(rec.calls, "ReplaceWorker(1)")
	if heal < 0 || !slices.Equal(rec.calls[heal:heal+3], []string{"ReplaceWorker(1)", "epoch", "RunOn(1)"}) ||
		strings.Count(strings.Join(rec.calls, " "), "RunOn") != 1 {
		t.Errorf("the heal's trail is %v, want one ReplaceWorker(1), epoch, RunOn(1)", rec.calls)
	}
	if rec.unbounded != 0 {
		t.Errorf("%d of the calls %v ran under no deadline", rec.unbounded, rec.calls)
	}
}

// TestRecoverySparePromotionTCP: a worker whose process is gone (its
// listener and live sessions closed) is replaced by a spare process
// mid-query, and the answers still match ground truth.
func TestRecoverySparePromotionTCP(t *testing.T) {
	const p = 4
	pool := startKillablePool(t, p+1) // p members + 1 spare
	eng, tr := recoveryEngines(t, p)[0], lentSession(t, pool.addrs[:p], pool.addrs[p:])
	// Kill member 2 outright — listener and established sessions — so
	// the first phase that touches it fails and its address cannot be
	// re-dialed; only the spare can fill the slot.
	pool.kill(2)
	out, err := eng.on(tr, dist.RecoveryOptions{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.repl == 0 || !sameTuples(out.answers, eng.truth) {
		t.Fatalf("%d replacements and %d answers after spare promotion, ground truth %d", out.repl, len(out.answers), len(eng.truth))
	}
}
