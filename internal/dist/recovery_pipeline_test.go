package dist_test

import (
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

// The recovery net rerun with pipelining enabled: the same
// deterministic kill schedules must heal identically when transport
// work is deferred to the gather fence. FaultTransport does not
// stream scripts, so the pipelined cluster falls back to the primitive
// methods at the fence — the fault counters see the sync call
// sequence, the kill-points fire at the same calls, and the healed run
// must still match ground truth with baseline-identical statistics.

// pipeRecEngines builds the three engines over fixed deterministic
// inputs with pipelining on; the recovery policy comes per run.
func pipeRecEngines(t *testing.T, p int) []recEngine {
	t.Helper()

	triQ := query.Cycle(3)
	triDB := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), triQ, 200)
	triTruth, err := core.GroundTruth(triQ, triDB)
	if err != nil {
		t.Fatal(err)
	}

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

	r, s := skew.ZipfJoinInput(rand.New(rand.NewPCG(102, 0)), 300, 1.2)
	sjTruth, err := skew.GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}

	return []recEngine{
		{
			name:  "hypercube",
			truth: triTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := hypercube.Run(triQ, triDB, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec, Pipeline: true})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
		},
		{
			name:  "multiround",
			truth: chTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := multiround.Execute(chPlan, chDB, p, multiround.Options{Seed: 23, Transport: tr, Recovery: rec, Pipeline: true})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
		},
		{
			name:  "skew",
			truth: sjTruth,
			run: func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) ([]relation.Tuple, *mpc.Stats, int) {
				t.Helper()
				res, err := skew.RunJoin(r, s, p, skew.Resilient, skew.Options{Seed: 7, Transport: tr, Recovery: rec, Pipeline: true})
				if err != nil {
					t.Fatal(err)
				}
				return res.Answers, res.Stats, res.Replacements
			},
		},
	}
}

// TestRecoveryKillPointsPipelined reruns the kill-point table with
// pipelining enabled. The baseline is the pipelined fault-free run
// (itself checked against ground truth); every kill-point must heal
// back to it.
func TestRecoveryKillPointsPipelined(t *testing.T) {
	const p = 4
	engines := pipeRecEngines(t, p)
	for _, eng := range engines {
		counter := &countingTransport{Transport: dist.NewLoopback(p)}
		baseAns, baseStats, baseRepl := eng.run(t, counter, dist.RecoveryOptions{})
		if baseRepl != 0 {
			t.Fatalf("%s: baseline replaced %d workers", eng.name, baseRepl)
		}
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
			pt := pt
			t.Run(eng.name+"/"+pt.name, func(t *testing.T) {
				ft := disttest.NewFaultTransport(dist.NewLoopback(p), pt.faults...)
				ans, stats, repl := eng.run(t, ft, dist.RecoveryOptions{Enabled: true, MaxReplacements: 8})
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
				if repl < pt.kills {
					t.Errorf("%d replacements for %d kills", repl, pt.kills)
				}
			})
		}
	}
}

// TestRecoveryMidStreamTCPPipelined kills a worker process under a
// pipelined TCP execution: the script stream to that worker dies
// mid-flight, the spare is promoted and replayed from the journal, and
// the fence retries only the gather. Answers must match ground truth
// and the statistics must equal the fault-free sync baseline.
func TestRecoveryMidStreamTCPPipelined(t *testing.T) {
	const p = 4
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(100, 0)), q, 200)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	base, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}

	pool := startKillablePool(t, p+1)
	members, spare := pool.addrs[:p], pool.addrs[p]
	tr := dialPool(t, members)
	pool.kill(2) // sessions die; the first script write to worker 2 fails

	res, err := hypercube.Run(q, db, p, hypercube.Options{
		Seed:      23,
		Transport: tr,
		Recovery:  dist.RecoveryOptions{Enabled: true, Spares: []string{spare}},
		Pipeline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements == 0 {
		t.Fatal("killed worker process healed without a replacement")
	}
	if !sameTuples(res.Answers, truth) {
		t.Fatalf("%d answers after mid-stream heal, ground truth %d", len(res.Answers), len(truth))
	}
	if !reflect.DeepEqual(res.Stats.Rounds, base.Stats.Rounds) {
		t.Errorf("round stats differ from fault-free sync baseline:\n got %+v\nwant %+v",
			res.Stats.Rounds, base.Stats.Rounds)
	}
}
