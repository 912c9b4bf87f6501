package dist_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
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

// startStuckWorker accepts one connection, answers the handshake, and
// then goes silent: it reads and discards frames but never acks — the
// shape of a wedged remote process.
func startStuckWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if f, err := wire.Decode(conn); err != nil || f.Type != wire.TypeHello {
			return
		}
		_ = wire.Encode(conn, &wire.Frame{Type: wire.TypeAck})
		for {
			if _, err := wire.Decode(conn); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
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
	addr := startStuckWorker(t)
	tr, err := dist.DialTCP(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
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
	addr := startStuckWorker(t)
	tr, err := dist.DialTCP(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := deliver(ctx, tr, 1, smallDelivery()); err != nil {
		t.Fatal(err)
	}
	withinDeadline(t, "barrier against stuck worker, deadline", func() error {
		return barrier(ctx, tr, 1)
	})
}

// TestChaosWorkerDropsBetweenScatterAndGather: one worker of the pool
// dies after the scatter round completes; the join and the gather
// must error out instead of hanging, and the coordinator names a
// transport failure.
func TestChaosWorkerDropsBetweenScatterAndGather(t *testing.T) {
	// Worker 0 lives for the whole test; worker 1 is killable.
	stable := startPool(t, 1)
	dyingCtx, kill := context.WithCancel(context.Background())
	defer kill()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go dist.Serve(dyingCtx, ln)

	tr, err := dist.DialTCP(context.Background(), []string{stable[0], ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
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

	kill() // worker 1's sessions die between scatter and gather

	withinDeadline(t, "join+gather after worker drop", func() error {
		q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
		if err := cl.Join(ctx, q, nil, "out", 0); err != nil {
			return err
		}
		_, err := cl.Gather(ctx, "out")
		return err
	})
}
