package dist_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// Chaos tests: the failure modes a real cluster has and the loopback
// never shows. Every scenario must surface an error within a deadline
// — a stuck worker or a dead connection must never hang a round.

// chaosDeadline bounds how long any chaos scenario may take to report
// its error; generous against CI scheduling noise, tiny against a
// real hang.
const chaosDeadline = 15 * time.Second

// withinDeadline runs fn and fails the test if it does not return an
// error, or takes longer than chaosDeadline.
func withinDeadline(t *testing.T, what string, fn func() error) {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("%s: want error, got nil after %v", what, time.Since(start))
		}
		t.Logf("%s: failed fast (%v): %v", what, time.Since(start), err)
	case <-time.After(chaosDeadline):
		t.Fatalf("%s: still hanging after %v", what, chaosDeadline)
	}
}

// smallDelivery is one single-tuple sealed run for worker 0.
func smallDelivery() []exchange.Delivery {
	b := relation.NewRun(1)
	b.Append(relation.Tuple{1})
	b.Seal()
	return []exchange.Delivery{{To: 0, Rel: "R", Buf: b}}
}

// TestChaosCancelMidRound: cancelling the context while a barrier
// waits on a stuck worker aborts the round promptly.
func TestChaosCancelMidRound(t *testing.T) {
	tr := dialPool(t, []string{silentWorker(t, 1)})
	ctx, cancel := context.WithCancel(context.Background())
	if err := deliver(ctx, tr, 1, smallDelivery()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond) // let the barrier block on the silent worker
		cancel()
	}()
	withinDeadline(t, "barrier against stuck worker, ctx cancelled", func() error {
		return barrier(ctx, tr, 1)
	})
}

// TestChaosDeadlineMidRound: same scenario driven by a context
// deadline instead of an explicit cancel.
func TestChaosDeadlineMidRound(t *testing.T) {
	tr := dialPool(t, []string{silentWorker(t, 1)})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := deliver(ctx, tr, 1, smallDelivery()); err != nil {
		t.Fatal(err)
	}
	withinDeadline(t, "barrier against stuck worker, deadline", func() error {
		return barrier(ctx, tr, 1)
	})
}

// TestChaosSilentMemberIsReplaced: a member stopped mid-session — it
// acked the hello and says nothing after, not to the next hello either —
// fails its script when the phase bound runs out, and its own address,
// the first candidate for its slot, gets no more than its share of the
// next bound before the spare is tried: ground truth, one replacement,
// inside twice the bound. (Before the heal ran under the bound the
// replacement's hello waited on the stopped process for good.)
func TestChaosSilentMemberIsReplaced(t *testing.T) {
	const p, bound = 4, time.Second
	live := startPool(t, p) // p-1 members and the spare
	members := append(append([]string(nil), live[:p-1]...), silentWorker(t, 1))
	eng := recoveryEngines(t, p)[0]
	start := time.Now()
	out, err := eng.on(lentSession(t, members, live[p-1:]), dist.RecoveryOptions{Enabled: true, PhaseTimeout: bound})
	took := time.Since(start)
	if err != nil || !sameTuples(out.answers, eng.truth) || out.repl != 1 {
		t.Fatalf("%d answers (ground truth %d), %d replacements, %v", len(out.answers), len(eng.truth), out.repl, err)
	}
	if took < bound || took > 2*bound {
		t.Errorf("healed in %v, want between the bound %v and twice that", took, bound)
	}
}

// TestChaosWorkerDropsBetweenScatterAndGather: one worker of the pool
// dies after the scatter round completes; the join and the gather
// must error out instead of hanging, and the coordinator names a
// transport failure.
func TestChaosWorkerDropsBetweenScatterAndGather(t *testing.T) {
	pool := startKillablePool(t, 2)
	tr := dialPool(t, pool.addrs)
	cl, err := dist.NewCluster(mpc.Config{Workers: 2, DomainN: 64, InputBits: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, s, _ := joinInputs()
	ctx, cancel := context.WithTimeout(context.Background(), chaosDeadline)
	defer cancel()
	cl.BeginRound()
	if err := cl.Scatter(ctx, r, "R", exchange.HashPartitioner{Col: 1, P: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter(ctx, s, "S", exchange.HashPartitioner{Col: 0, P: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndRound(ctx); err != nil {
		t.Fatal(err)
	}

	pool.kill(1) // worker 1's sessions die between scatter and gather

	withinDeadline(t, "join+gather after worker drop", func() error {
		q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
		if err := cl.Join(ctx, q, nil, "out", 0); err != nil {
			return err
		}
		_, err := cl.Gather(ctx, "out")
		return err
	})
}
