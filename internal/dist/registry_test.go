package dist_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/wire"
)

// TestRegistryReconcileSwapsDeadMember: killing a member and
// reconciling promotes the spare into its slot, recycles the dead
// address to the spare tail, and ticks the generation.
func TestRegistryReconcileSwapsDeadMember(t *testing.T) {
	pool := startKillablePool(t, 4) // 3 members + 1 spare
	members, spare := pool.addrs[:3], pool.addrs[3]
	reg := dist.NewRegistry(members, []string{spare})

	ctx := context.Background()
	if n := reg.Reconcile(ctx); n != 0 {
		t.Fatalf("healthy pool reconciled %d swaps", n)
	}
	if reg.Generation() != 0 {
		t.Fatalf("generation = %d before any swap", reg.Generation())
	}

	dead := pool.addrs[1]
	pool.kill(1)
	if n := reg.Reconcile(ctx); n != 1 {
		t.Fatalf("Reconcile = %d swaps, want 1", n)
	}
	got := reg.Members()
	if got[1] != spare {
		t.Fatalf("member 1 = %s, want promoted spare %s", got[1], spare)
	}
	if got[0] != members[0] || got[2] != members[2] {
		t.Fatalf("healthy members moved: %v", got)
	}
	if sp := reg.Spares(); len(sp) != 1 || sp[0] != dead {
		t.Fatalf("spares = %v, want recycled dead address [%s]", sp, dead)
	}
	if reg.Generation() != 1 {
		t.Fatalf("generation = %d after one swap, want 1", reg.Generation())
	}

	// The recycled address is dead, so a second failure has no live
	// spare: the slot keeps its address for a later retry and the
	// generation does not move.
	pool.kill(0)
	if n := reg.Reconcile(ctx); n != 0 {
		t.Fatalf("Reconcile with only a dead spare = %d swaps, want 0", n)
	}
	if got := reg.Members(); got[0] != members[0] {
		t.Fatalf("member 0 = %s, want unchanged %s", got[0], members[0])
	}
	if reg.Generation() != 1 {
		t.Fatalf("generation = %d, want still 1", reg.Generation())
	}
}

// TestRegistryDeadSparesBounded: reconciling a dead member against a
// spare list that is entirely dead terminates (the spare scan is
// bounded) and leaves membership unchanged.
func TestRegistryDeadSparesBounded(t *testing.T) {
	pool := startKillablePool(t, 3)
	reg := dist.NewRegistry(pool.addrs[:1], pool.addrs[1:])
	pool.kill(0)
	pool.kill(1)
	pool.kill(2)

	done := make(chan int, 1)
	go func() { done <- reg.Reconcile(context.Background()) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("Reconcile = %d swaps with everything dead", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Reconcile did not terminate with an all-dead spare list")
	}
	if got := reg.Members(); got[0] != pool.addrs[0] {
		t.Fatalf("member 0 = %s, want unchanged", got[0])
	}
}

// TestRegistryRunLoop: the background loop reconciles on its own —
// kill a member, wait for the generation to tick, and the promoted
// membership is immediately dialable.
func TestRegistryRunLoop(t *testing.T) {
	pool := startKillablePool(t, 3) // 2 members + 1 spare
	reg := dist.NewRegistry(pool.addrs[:2], pool.addrs[2:])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Run(ctx, 10*time.Millisecond)

	pool.kill(0)
	deadline := time.Now().Add(30 * time.Second)
	for reg.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("registry loop never repaired the killed member")
		}
		time.Sleep(time.Millisecond)
	}
	tr := dialPool(t, reg.Members())
	if _, err := tr.Run(context.Background(), []dist.Op{{Kind: dist.OpPing, Round: 7}}); err != nil {
		t.Fatalf("promoted membership not dialable: %v", err)
	}
}

// silentWorker listens like a worker, accepts every connection and
// never answers — a SIGSTOPped mpcworker as the network sees it. Stopped
// mid-session, that is, when hellos is positive: the first so many
// connections have their hello acked before the silence.
func silentWorker(t *testing.T, hellos int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for ; ; hellos-- {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			if hellos > 0 {
				if f, err := wire.Decode(c); err == nil && f.Type == wire.TypeHello {
					_ = wire.Encode(c, &wire.Frame{Type: wire.TypeAck})
				}
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestRegistryProbeDoesNotHoldLock: with a dead member and a spare
// that accepts TCP and never answers, a Reconcile in flight stalls
// only itself — Members and Spares, which every query's dial takes,
// keep answering at once — and it returns when its context is done.
func TestRegistryProbeDoesNotHoldLock(t *testing.T) {
	pool := startKillablePool(t, 2)
	reg := dist.NewRegistry(pool.addrs, []string{silentWorker(t, 0)})
	pool.kill(1)

	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	done := make(chan int, 1)
	go func() { done <- reg.Reconcile(ctx) }()

	reads := 0
	for inFlight := true; inFlight; reads++ {
		select {
		case n := <-done:
			if n != 0 {
				t.Errorf("Reconcile = %d swaps with only a silent spare", n)
			}
			inFlight = false
		default:
		}
		at := time.Now()
		members, spares := reg.Members(), reg.Spares()
		if took := time.Since(at); took > 100*time.Millisecond {
			t.Fatalf("Members+Spares took %v while a Reconcile was probing", took)
		}
		if members[1] != pool.addrs[1] || len(spares) != 1 {
			t.Fatalf("membership moved without a live spare: %v / %v", members, spares)
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < deadline/2 || took > deadline+5*time.Second {
		t.Errorf("Reconcile returned after %v, want about its %v deadline (the silent spare stalls it, the deadline ends it)", took, deadline)
	}
	if reads < 10 {
		t.Errorf("only %d membership reads overlapped the Reconcile", reads)
	}
}

// TestRegistryProbeIsBounded: with a dead member and a silent spare, a
// Reconcile under a context that never ends — what a /query's repair
// runs under when its client sets no deadline — still returns: each
// probe gives up on its own after a few seconds.
func TestRegistryProbeIsBounded(t *testing.T) {
	pool := startKillablePool(t, 2)
	reg := dist.NewRegistry(pool.addrs, []string{silentWorker(t, 0)})
	pool.kill(1)

	done := make(chan int, 1)
	go func() { done <- reg.Reconcile(context.Background()) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("Reconcile = %d swaps with only a silent spare", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Reconcile still waiting on the silent spare after 30 s")
	}
}

// TestRegistryRunBoundsEachReconcile: the background loop gives every
// reconcile its own interval as a deadline, so a silent spare ahead of
// a live one delays the repair by one heartbeat instead of parking the
// loop for good.
func TestRegistryRunBoundsEachReconcile(t *testing.T) {
	pool := startKillablePool(t, 3) // 2 members + 1 live spare
	reg := dist.NewRegistry(pool.addrs[:2], []string{silentWorker(t, 0), pool.addrs[2]})
	pool.kill(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Run(ctx, 100*time.Millisecond)

	repaired := make(chan struct{})
	go func() {
		defer close(repaired)
		for reg.Generation() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-repaired:
	case <-time.After(30 * time.Second):
		t.Fatal("registry loop never got past the silent spare")
	}
	if got := reg.Members(); got[0] != pool.addrs[2] {
		t.Fatalf("member 0 = %s, want the live spare %s", got[0], pool.addrs[2])
	}
}
