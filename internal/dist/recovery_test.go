package dist_test

import (
	"context"
	"math/big"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// The recovery test net: a table of kill-points × engines ×
// transports. Every entry injects a deterministic fault schedule
// (disttest.FaultTransport — counter-keyed, no timers) into a full engine
// execution with recovery enabled, then demands the answers match the
// single-node ground truth and the round statistics match the
// fault-free baseline byte for byte. A lost worker must be invisible
// in every output except the replacement counter.

// countingTransport counts the steps of the baseline run, so
// kill-points can be placed relative to each engine's actual shape
// instead of hard-coded step numbers.
type countingTransport struct {
	dist.Transport
	delivers, barriers, joins, gathers int
}

func (c *countingTransport) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		switch op.Kind {
		case dist.OpDeliver:
			c.delivers++
		case dist.OpBarrier:
			c.barriers++
		case dist.OpJoin:
			c.joins++
		case dist.OpGather:
			c.gathers++
		}
	}
	return c.Transport.Run(ctx, ops)
}

// recEngine is one engine under recovery test: run executes it on the
// transport (recovery enabled when rec.Enabled) and returns answers,
// stats and the replacement count; prog is the same round program
// written out by hand (schedule_test.go), for the nets that choose the
// cluster's schedule.
type recEngine struct {
	name  string
	truth []relation.Tuple
	run   func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int)
	prog  program
}

// recoveryEngines builds the three engines over fixed deterministic
// inputs, with ground truth attached.
func recoveryEngines(t *testing.T, p int) []recEngine {
	t.Helper()

	// Hypercube: one round, triangle query.
	triQ := query.Cycle(3)
	triDB := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), triQ, 200)
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

	return []recEngine{
		{
			name:  "hypercube",
			truth: triTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := hypercube.Run(triQ, triDB, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
			prog: hcProgram(triQ, triDB, p, 0, triShares, 23),
		},
		{
			name:  "multiround",
			truth: chTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := multiround.Execute(chPlan, chDB, p, multiround.Options{Seed: 23, Transport: tr, Recovery: rec})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
			prog: multiProgram(chPlan, chDB, p, 23),
		},
		{
			name:  "skew",
			truth: sjTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := skew.RunJoin(r, s, p, skew.Resilient, skew.Options{Seed: 7, Transport: tr, Recovery: rec})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
			prog: skewProgram(skew.JoinQuery(), r, s, ry, sy, skew.CompileFromData(r, ry, s, sy, p, 1), 7),
		},
	}
}

// TestRecoveryKillPoints is the full net. For every engine it first
// runs fault-free on a counting loopback to fix the baseline (answers
// already checked against ground truth, stats recorded, phase counts
// measured), then runs every applicable kill-point on both transports.
func TestRecoveryKillPoints(t *testing.T) {
	const p = 4
	engines := recoveryEngines(t, p)
	for _, eng := range engines {
		// Baseline: fault-free, recovery off, loopback.
		counter := &countingTransport{Transport: dist.NewLoopback(p)}
		baseAns, baseStats, baseRepl := eng.run(t, counter, dist.RecoveryOptions{})
		if baseRepl != 0 {
			t.Fatalf("%s: baseline replaced %d workers", eng.name, baseRepl)
		}
		if !sameTuples(baseAns, eng.truth) {
			t.Fatalf("%s: baseline %d answers, ground truth %d", eng.name, len(baseAns), len(eng.truth))
		}

		// Kill-points, placed against the measured phase counts.
		points := []struct {
			name   string
			faults []disttest.Fault
			kills  int
			ok     bool
		}{
			{"scatter-kill-before", []disttest.Fault{{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"scatter-kill-after", []disttest.Fault{{Worker: 2, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillAfter}}, 1, true},
			{"last-scatter-kill", []disttest.Fault{{Worker: 0, Op: disttest.OpDeliver, N: counter.delivers - 1, Kind: disttest.KillBefore}}, 1, counter.delivers > 1},
			{"barrier-kill", []disttest.Fault{{Worker: 0, Op: disttest.OpBarrier, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"round-2-barrier-kill", []disttest.Fault{{Worker: 2, Op: disttest.OpBarrier, N: 1, Kind: disttest.KillBefore}}, 1, counter.barriers > 1},
			{"join-kill", []disttest.Fault{{Worker: 1, Op: disttest.OpJoin, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"last-join-kill", []disttest.Fault{{Worker: 3, Op: disttest.OpJoin, N: counter.joins - 1, Kind: disttest.KillBefore}}, 1, counter.joins > 1},
			{"gather-kill", []disttest.Fault{{Worker: 3, Op: disttest.OpGather, N: 0, Kind: disttest.KillBefore}}, 1, true},
			{"double-kill", []disttest.Fault{
				{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore},
				{Worker: 2, Op: disttest.OpJoin, N: 0, Kind: disttest.KillBefore},
			}, 2, true},
			{"delay-to-barrier", []disttest.Fault{{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.DelayToBarrier}}, 0, true},
			{"duplicate-delivery", []disttest.Fault{{Worker: 2, Op: disttest.OpDeliver, N: 0, Kind: disttest.DuplicateDelivery}}, 0, true},
		}
		for _, pt := range points {
			if !pt.ok {
				continue
			}
			for _, kind := range []string{"loopback", "tcp"} {
				pt, kind := pt, kind
				t.Run(eng.name+"/"+pt.name+"/"+kind, func(t *testing.T) {
					var inner dist.Transport
					if kind == "loopback" {
						inner = dist.NewLoopback(p)
					} else {
						inner = dialPool(t, startPool(t, p))
					}
					ft := disttest.NewFaultTransport(inner, pt.faults...)
					rec := dist.RecoveryOptions{Enabled: true, MaxReplacements: 8}
					ans, stats, repl := eng.run(t, ft, rec)
					if !sameTuples(ans, eng.truth) {
						t.Errorf("%d answers, ground truth %d", len(ans), len(eng.truth))
					}
					if !reflect.DeepEqual(stats.Rounds, baseStats.Rounds) {
						t.Errorf("round stats differ from fault-free baseline:\n got %+v\nwant %+v",
							stats.Rounds, baseStats.Rounds)
					}
					if got := ft.Kills(); got != pt.kills {
						t.Errorf("%d kill faults fired, schedule expects %d", got, pt.kills)
					}
					if pt.kills > 0 && repl < pt.kills {
						t.Errorf("%d replacements for %d kills", repl, pt.kills)
					}
					if pt.kills == 0 && repl != 0 {
						t.Errorf("%d replacements for a kill-free schedule", repl)
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
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), q, 100)
	ft := disttest.NewFaultTransport(dist.NewLoopback(p),
		disttest.Fault{Worker: 1, Op: disttest.OpBarrier, N: 0, Kind: disttest.KillBefore})
	_, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 23, Transport: ft})
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
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), q, 100)
	ft := disttest.NewFaultTransport(dist.NewLoopback(p),
		disttest.Fault{Worker: 0, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore},
		disttest.Fault{Worker: 1, Op: disttest.OpDeliver, N: 1, Kind: disttest.KillBefore},
		disttest.Fault{Worker: 2, Op: disttest.OpDeliver, N: 2, Kind: disttest.KillBefore},
	)
	_, err := hypercube.Run(q, db, p, hypercube.Options{
		Seed:      23,
		Transport: ft,
		Recovery:  dist.RecoveryOptions{Enabled: true, MaxReplacements: 2},
	})
	if err == nil {
		t.Fatal("three kills under a budget of 2 succeeded")
	}
}

// TestRecoveryAnnouncesEpoch: a healed loopback run leaves the
// expected control-plane trail — a replacement and a positive epoch
// announced to the pool.
func TestRecoveryAnnouncesEpoch(t *testing.T) {
	const p = 4
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), q, 100)
	lb := dist.NewLoopback(p)
	ft := disttest.NewFaultTransport(lb,
		disttest.Fault{Worker: 1, Op: disttest.OpDeliver, N: 0, Kind: disttest.KillBefore})
	res, err := hypercube.Run(q, db, p, hypercube.Options{
		Seed:      23,
		Transport: ft,
		Recovery:  dist.RecoveryOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements == 0 {
		t.Fatal("kill fault healed without a replacement")
	}
	if lb.Epoch() == 0 {
		t.Error("healed run never announced an epoch")
	}
}

// TestRecoverySparePromotionTCP: a worker whose process is gone (its
// listener and live sessions closed) is replaced by a spare process
// mid-query, and the answers still match ground truth.
func TestRecoverySparePromotionTCP(t *testing.T) {
	const p = 4
	pool := startKillablePool(t, p+1) // p members + 1 spare
	members, spare := pool.addrs[:p], pool.addrs[p]

	tr := dialPool(t, members)
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), q, 200)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}

	// Kill member 2 outright — listener and established sessions — so
	// the first phase that touches it fails and its address cannot be
	// re-dialed; only the spare can fill the slot.
	pool.kill(2)

	res, err := hypercube.Run(q, db, p, hypercube.Options{
		Seed:      23,
		Transport: tr,
		Recovery:  dist.RecoveryOptions{Enabled: true, Spares: []string{spare}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements == 0 {
		t.Fatal("killed worker process healed without a replacement")
	}
	if !sameTuples(res.Answers, truth) {
		t.Fatalf("%d answers after spare promotion, ground truth %d", len(res.Answers), len(truth))
	}
}
