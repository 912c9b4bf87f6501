package dist_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/exchange"
	"repro/internal/relation"
)

// scatterTo builds a one-delivery slice carrying a non-empty buffer
// for worker w.
func scatterTo(t *testing.T, w int, store string) []exchange.Delivery {
	t.Helper()
	buf := relation.NewRun(2)
	buf.Append(relation.Tuple{1, 2})
	buf.Seal()
	return []exchange.Delivery{{To: w, Rel: store, Buf: buf}}
}

// TestFaultTransportKillMasksUntilReplace: a kill fault marks the
// worker dead — every subsequent phase touching it fails with the
// same WorkerError — until ReplaceWorker clears it.
func TestFaultTransportKillMasksUntilReplace(t *testing.T) {
	ctx := context.Background()
	ft := disttest.NewFaultTransport(dist.NewLoopback(3),
		disttest.Fault{Worker: 1, Op: dist.OpDeliver, N: 0, Kind: disttest.KillBefore})

	err := deliver(ctx, ft, 1, scatterTo(t, 1, "R"))
	if err == nil {
		t.Fatal("kill fault delivered cleanly")
	}
	if got := dist.FailedWorkers(err); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FailedWorkers = %v, want [1]", got)
	}
	if ft.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", ft.Kills())
	}

	// Still dead: barrier and a fresh deliver to the same worker fail;
	// a deliver that does not touch it passes.
	if err := barrier(ctx, ft, 1); err == nil {
		t.Fatal("barrier past a dead worker succeeded")
	}
	if err := deliver(ctx, ft, 1, scatterTo(t, 1, "R")); err == nil {
		t.Fatal("deliver to a dead worker succeeded")
	}
	if err := deliver(ctx, ft, 1, scatterTo(t, 0, "R")); err != nil {
		t.Fatalf("deliver avoiding the dead worker failed: %v", err)
	}

	// Replacement revives the slot; the one-shot fault does not refire.
	if err := ft.ReplaceWorker(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := deliver(ctx, ft, 1, scatterTo(t, 1, "R")); err != nil {
		t.Fatalf("deliver after replacement failed: %v", err)
	}
	if err := barrier(ctx, ft, 2); err != nil {
		t.Fatalf("barrier after replacement failed: %v", err)
	}
	if ft.Kills() != 1 {
		t.Fatalf("Kills() = %d after replacement, want still 1", ft.Kills())
	}
}

// TestFaultTransportDeterministic: the same schedule over the same
// call sequence fires at exactly the same call both times — the whole
// point of counter-keyed faults.
func TestFaultTransportDeterministic(t *testing.T) {
	ctx := context.Background()
	run := func() (failedAt int) {
		ft := disttest.NewFaultTransport(dist.NewLoopback(2),
			disttest.Fault{Worker: 0, Op: dist.OpDeliver, N: 2, Kind: disttest.KillBefore})
		for i := 0; i < 5; i++ {
			if err := deliver(ctx, ft, 1, scatterTo(t, 0, "R")); err != nil {
				return i
			}
		}
		return -1
	}
	a, b := run(), run()
	if a != 2 || b != 2 {
		t.Fatalf("fault fired at deliver %d then %d, want 2 both times", a, b)
	}
}

// TestFaultTransportDelayFlushesAtBarrier: a delayed delivery is
// withheld from Deliver but handed to the inner transport before the
// barrier completes, so post-barrier state is indistinguishable.
func TestFaultTransportDelayFlushesAtBarrier(t *testing.T) {
	ctx := context.Background()
	lb := dist.NewLoopback(2)
	ft := disttest.NewFaultTransport(lb,
		disttest.Fault{Worker: 0, Op: dist.OpDeliver, N: 0, Kind: disttest.DelayToBarrier})
	if err := deliver(ctx, ft, 1, scatterTo(t, 0, "R")); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, ft, 1); err != nil {
		t.Fatal(err)
	}
	// The inner loopback must now hold the run: gather it back.
	bufs, err := gather(ctx, lb, "R")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bufs {
		if b != nil {
			total += b.Len()
		}
	}
	if total != 1 {
		t.Fatalf("after delayed flush the store holds %d tuples, want 1", total)
	}
	if ft.Kills() != 0 {
		t.Fatalf("Kills() = %d for a delay fault, want 0", ft.Kills())
	}
}

// TestFaultTransportAnnounceSurfacesDead: the epoch step of a heal is a
// script like any other, so it names every dead worker and the healer can
// queue them all.
func TestFaultTransportAnnounceSurfacesDead(t *testing.T) {
	ctx := context.Background()
	ft := disttest.NewFaultTransport(dist.NewLoopback(3),
		disttest.Fault{Worker: 0, Op: dist.OpDeliver, N: 0, Kind: disttest.KillBefore},
		disttest.Fault{Worker: 2, Op: dist.OpDeliver, N: 0, Kind: disttest.KillBefore})
	if err := deliver(ctx, ft, 1, scatterTo(t, 1, "R")); err == nil {
		t.Fatal("double kill delivered cleanly")
	}
	_, err := ft.Run(ctx, []dist.Op{{Kind: dist.OpEpoch, Round: 1}})
	if err == nil {
		t.Fatal("epoch step to two dead workers succeeded")
	}
	if got := dist.FailedWorkers(err); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FailedWorkers = %v, want [0 2]", got)
	}
}

// TestWorkerErrorFormat pins the error string shape other layers grep
// for, and the unwrap chain FailedWorkers depends on.
func TestWorkerErrorFormat(t *testing.T) {
	we := &dist.WorkerError{Worker: 3, Err: context.DeadlineExceeded}
	if !strings.HasPrefix(we.Error(), "dist: worker 3: ") {
		t.Fatalf("Error() = %q", we.Error())
	}
	if got := dist.FailedWorkers(we); len(got) != 1 || got[0] != 3 {
		t.Fatalf("FailedWorkers = %v, want [3]", got)
	}
	if dist.FailedWorkers(context.Canceled) != nil {
		t.Fatal("FailedWorkers on a plain error should be nil")
	}
}
