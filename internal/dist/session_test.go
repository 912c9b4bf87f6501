package dist_test

import (
	"context"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
)

// The session net: a session outlives its execution. An OpReset returns
// it to what its hello left — no stores, epoch 0 — and a Registry parks
// it for the next execution, which then pays no dial. What a reset must
// drop is checked by a reuse the reset would otherwise betray; what the
// registry must refuse to park, by the faults that should close a session.

// triangleOn runs the triangle query over db on tr, healing under the
// faults (none: recovery stays off), and checks it against the ground
// truth.
func triangleOn(t *testing.T, tr dist.Transport, db *relation.Database, faults ...disttest.Fault) *dist.Result {
	t.Helper()
	q := query.Cycle(3)
	var rec dist.RecoveryOptions
	if len(faults) > 0 {
		tr, rec = disttest.NewFaultTransport(tr, faults...), dist.RecoveryOptions{Enabled: true, MaxReplacements: 4}
	}
	res, err := hypercube.Run(q, db, tr.Workers(), hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run.Tuples(); !sameTuples(got, truth) {
		t.Fatalf("%d answers, ground truth %d", len(got), len(truth))
	}
	return res
}

// TestParkedSessionForgetsItsStores is the reuse differential: the
// triangle on one database, on a smaller one under the same store names,
// and on the first again, one after the other on one lent session of each
// transport. Each answers its own ground truth with the round statistics
// a session of its own records, and the pool opens one session. A reset
// that kept its stores would hand the second execution the first's runs.
func TestParkedSessionForgetsItsStores(t *testing.T) {
	const p = 4
	q := query.Cycle(3)
	dbs := []*relation.Database{relation.IdentityDatabase(q, 60), relation.IdentityDatabase(q, 40), relation.IdentityDatabase(q, 60)}
	for _, kind := range []string{"loopback", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			pool := newPool(kind, p)
			defer pool.close()
			dial, opened, stop := lend(pool, disttest.NewSchedule())
			defer stop()
			for i, db := range dbs {
				tr := dial()
				got := triangleOn(t, tr, db)
				tr.Close()
				if want := triangleOn(t, dist.NewLoopback(p), db); !reflect.DeepEqual(got.Stats.Rounds, want.Stats.Rounds) {
					t.Errorf("execution %d on the lent session: round stats %+v, a session of its own %+v", i, got.Stats.Rounds, want.Stats.Rounds)
				}
			}
			stop()
			if n := opened(); n != 1 {
				t.Errorf("the pool opened %d sessions for three executions, want 1", n)
			}
		})
	}
}

// TestParkedSessionForgetsItsEpoch: one lent session heals twice in its
// first execution and once in its second. The second heal announces epoch
// 1 to workers the first left at epoch 2 — not stale only because the
// reset between them returned every worker to epoch 0.
func TestParkedSessionForgetsItsEpoch(t *testing.T) {
	const p = 4
	db := relation.IdentityDatabase(query.Cycle(3), 60)
	kill := func(w int) disttest.Fault {
		return disttest.Fault{Worker: w, Op: dist.OpBarrier, Kind: disttest.KillBefore}
	}
	for _, kind := range []string{"loopback", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			pool := newPool(kind, p)
			defer pool.close()
			dial, opened, stop := lend(pool, disttest.NewSchedule())
			defer stop()
			for i, faults := range [][]disttest.Fault{{kill(0), kill(1)}, {kill(2)}} {
				tr := dial()
				if res := triangleOn(t, tr, db, faults...); res.Replacements != len(faults) {
					t.Errorf("execution %d: %d replacements, want %d", i, res.Replacements, len(faults))
				}
				tr.Close()
			}
			stop()
			if n := opened(); n != 1 {
				t.Errorf("the pool opened %d sessions, want 1: a healed session is parked like any other", n)
			}
		})
	}
}

// TestSessionKeepsConfiguredSpares: the spares a session may promote are
// its registry's, and a promotion is the registry's. Member 1 dies under
// a lent session; the query heals onto the spare, after which the
// registry lists the spare as member 1 and the dead address as its one
// spare — so the healed session parks, and the next borrow takes it with
// no dial and nothing to repair. (When a session kept a spare list of its
// own, the registry still named the dead member: the healed session was
// hung up, and the next borrow dialled the dead member, reconciled and
// dialled again, counting one death twice.)
func TestSessionKeepsConfiguredSpares(t *testing.T) {
	const p = 2
	q := query.Cycle(3)
	db := relation.IdentityDatabase(q, 30)
	pool := startKillablePool(t, p+1)
	m0, m1, spare := pool.addrs[0], pool.addrs[1], pool.addrs[2]
	reg := dist.NewRegistry([]string{m0, m1}, []string{spare})
	runRegistry(t, reg)
	tr := borrow(t, reg)
	pool.kill(1)
	res, err := hypercube.Run(q, db, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: dist.RecoveryOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements != 1 || !sameTuples(res.Run.Tuples(), truth) {
		t.Fatalf("%d replacements, %d answers (ground truth %d); want one replacement", res.Replacements, res.Run.Len(), len(truth))
	}
	tr.Close()
	if members, spares := reg.Members(), reg.Spares(); !slices.Equal(members, []string{m0, spare}) || !slices.Equal(spares, []string{m1}) {
		t.Fatalf("after the heal the registry lists members %v and spares %v; want [%s %s] and [%s]", members, spares, m0, spare, m1)
	}
	next, repaired, err := reg.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if !next.Reused() || next.Dials() != 0 || repaired != 0 {
		t.Fatalf("the borrow after the heal: reused %v, %d dials, %d repaired; want the healed session, no dial, nothing repaired", next.Reused(), next.Dials(), repaired)
	}
}

// TestRegistryConcurrentBorrowsPromoteOnce: borrows that all find the same
// member dead at once each get a session, and between them promote one
// spare — the first promotion makes it the slot's member for the others.
func TestRegistryConcurrentBorrowsPromoteOnce(t *testing.T) {
	pool := startKillablePool(t, 4) // two members and two spares
	reg := dist.NewRegistry(pool.addrs[:2], pool.addrs[2:])
	runRegistry(t, reg)
	pool.kill(1)
	sessions := make([]*dist.TCP, 8)
	var repaired atomic.Int64
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, n, err := reg.Session(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			repaired.Add(int64(n))
			sessions[i] = tr
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, tr := range sessions {
		if _, err := tr.Run(context.Background(), []dist.Op{{Kind: dist.OpPing, Round: 1}}); err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}
	members, spares := reg.Members(), reg.Spares()
	if repaired.Load() != 1 || reg.Generation() != 1 ||
		!slices.Equal(members, []string{pool.addrs[0], pool.addrs[2]}) || !slices.Equal(spares, []string{pool.addrs[3], pool.addrs[1]}) {
		t.Fatalf("%d repaired, generation %d, members %v, spares %v; want one promotion of the first spare", repaired.Load(), reg.Generation(), members, spares)
	}
}

// lentSession borrows a session from a registry over members and spares
// whose loop runs until the test ends.
func lentSession(t *testing.T, members, spares []string) *dist.TCP {
	t.Helper()
	reg := dist.NewRegistry(members, spares)
	runRegistry(t, reg)
	tr, _, err := reg.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// accepted returns how many connections member i accepted.
func (p *killablePool) accepted(i int) int {
	l := p.members[i]
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// runRegistry runs reg's background loop until the test ends, and returns
// a stop that returns once Run has.
func runRegistry(t *testing.T, reg *dist.Registry) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Run(ctx, time.Hour)
	}()
	stop = sync.OnceFunc(func() { cancel(); <-done })
	t.Cleanup(stop)
	return stop
}

// borrow takes a session from reg and pings the pool on it.
func borrow(t *testing.T, reg *dist.Registry) *dist.TCP {
	t.Helper()
	tr, _, err := reg.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), []dist.Op{{Kind: dist.OpPing, Round: 1}}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRegistryParksSessions: a session closed after a clean execution is
// lent again — no dial, no new connection on any member — and the parked
// list is as long as the most sessions ever borrowed at once.
func TestRegistryParksSessions(t *testing.T) {
	pool := startKillablePool(t, 3)
	reg := dist.NewRegistry(pool.addrs, nil)
	runRegistry(t, reg)
	connections := func() (n int) {
		for i := range pool.addrs {
			n += pool.accepted(i)
		}
		return n
	}

	first := borrow(t, reg)
	if first.Reused() || first.Dials() != 1 {
		t.Fatalf("first session: reused %v, %d dials; want a dial", first.Reused(), first.Dials())
	}
	first.Close()
	for i := 0; i < 3; i++ {
		tr := borrow(t, reg)
		if !tr.Reused() || tr.Dials() != 0 || tr.Exchanges() != 1 {
			t.Fatalf("borrow %d: reused %v, %d dials, %d exchanges; want the parked session, no dial, its own one exchange", i, tr.Reused(), tr.Dials(), tr.Exchanges())
		}
		tr.Close()
	}
	if n := connections(); n != 3 {
		t.Fatalf("the members accepted %d connections for four sequential borrows, want 3", n)
	}
	if _, err := first.Run(context.Background(), []dist.Op{{Kind: dist.OpPing, Round: 2}}); err == nil {
		t.Fatal("a closed session ran a script on connections it gave back")
	}

	// Two at once: one parked, one dialled; then both are parked.
	a, b := borrow(t, reg), borrow(t, reg)
	if a.Reused() == b.Reused() {
		t.Fatalf("two concurrent borrows: reused %v and %v, want one of each", a.Reused(), b.Reused())
	}
	a.Close()
	b.Close()
	for round := 0; round < 3; round++ {
		a, b = borrow(t, reg), borrow(t, reg)
		if !a.Reused() || !b.Reused() {
			t.Fatalf("round %d: two concurrent borrows after two were parked dialled", round)
		}
		a.Close()
		b.Close()
	}
	if n := connections(); n != 6 {
		t.Fatalf("the members accepted %d connections, want 6: two sessions of three", n)
	}
}

// TestRegistryClosesSessions: what must not be lent again is not — a
// session whose last script failed, a session with a connection whose
// worker died while it was parked, the parked sessions of a membership a
// Reconcile changed, and everything once Run has returned.
func TestRegistryClosesSessions(t *testing.T) {
	t.Run("failed execution", func(t *testing.T) {
		reg := dist.NewRegistry(startPool(t, 2), nil)
		runRegistry(t, reg)
		tr := borrow(t, reg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpPing, Round: 2}}); err == nil {
			t.Fatal("a script under a cancelled context succeeded")
		}
		tr.Close()
		if next := borrow(t, reg); next.Reused() {
			t.Fatal("a session whose last script failed was lent again")
		}
	})
	t.Run("worker died while parked", func(t *testing.T) {
		pool := startKillablePool(t, 3) // two members and a spare
		reg := dist.NewRegistry(pool.addrs[:2], pool.addrs[2:])
		runRegistry(t, reg)
		borrow(t, reg).Close()
		pool.kill(1)
		tr, repaired, err := reg.Session(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if tr.Reused() || repaired != 1 {
			t.Fatalf("after a parked member died: reused %v, %d repaired; want a new dial after one repair", tr.Reused(), repaired)
		}
		if _, err := tr.Run(context.Background(), []dist.Op{{Kind: dist.OpPing, Round: 1}}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reconciled membership", func(t *testing.T) {
		pool := startKillablePool(t, 3)
		reg := dist.NewRegistry(pool.addrs[:2], pool.addrs[2:])
		runRegistry(t, reg)
		borrow(t, reg).Close()
		// Member 1 stops accepting; the parked session's connection to it
		// stays whole, but it is a connection to a former member.
		pool.members[1].Listener.Close()
		if n := reg.Reconcile(context.Background()); n != 1 {
			t.Fatalf("Reconcile swapped %d members, want 1", n)
		}
		if tr := borrow(t, reg); tr.Reused() {
			t.Fatal("a session parked at the old membership was lent after a Reconcile swapped a member")
		}
	})
	t.Run("Run returned", func(t *testing.T) {
		pool := startKillablePool(t, 2)
		reg := dist.NewRegistry(pool.addrs, nil)
		stop := runRegistry(t, reg)
		borrow(t, reg).Close()
		held := borrow(t, reg)
		stop()
		held.Close()
		for i := 0; i < 2; i++ {
			tr := borrow(t, reg)
			if tr.Reused() {
				t.Fatalf("borrow %d after Run returned was a parked session", i)
			}
			tr.Close()
		}
		if n := pool.accepted(0); n != 3 {
			t.Fatalf("member 0 accepted %d connections, want 3: nothing parks once Run has returned", n)
		}
	})
}

// resetWorker is a worker that acks its hello and pongs every ping like
// any other, and meets a reset as given: it lies about the tag, stays
// silent, or hangs up. It counts the connections it accepted.
func resetWorker(t *testing.T, meet string) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted = new(atomic.Int64)
	var mu sync.Mutex
	var held []net.Conn
	var serving sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
		serving.Wait()
	})
	serving.Add(1)
	go func() {
		defer serving.Done()
		for c, err := ln.Accept(); err == nil; c, err = ln.Accept() {
			accepted.Add(1)
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				defer c.Close()
				rd, w := wire.NewReader(c), wire.NewWriter(c)
				for {
					f, err := rd.Next()
					if err != nil {
						return
					}
					switch {
					case f.Type == wire.TypeHello:
						err = w.Flush(&wire.Frame{Type: wire.TypeAck})
					case f.Type == wire.TypePing:
						err = w.Flush(&wire.Frame{Type: wire.TypePong, Round: f.Round})
					case f.Type == wire.TypeReset && meet == "lie":
						err = w.Flush(&wire.Frame{Type: wire.TypeAck, Round: f.Round + 1})
					case f.Type == wire.TypeReset && meet == "silence":
						// never answered
					case f.Type == wire.TypeReset:
						return
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestRegistryClosesOnFailedReset: a worker that lies about a reset's
// tag, never acks it, or hangs up at it costs the next borrower a dial —
// after the reset's bound, at most — and nothing else.
func TestRegistryClosesOnFailedReset(t *testing.T) {
	for _, meet := range []string{"lie", "silence", "hang-up"} {
		t.Run(meet, func(t *testing.T) {
			addr, accepted := resetWorker(t, meet)
			reg := dist.NewRegistry([]string{startPool(t, 1)[0], addr}, nil)
			runRegistry(t, reg)
			borrow(t, reg).Close()
			start := time.Now()
			tr := borrow(t, reg)
			if tr.Reused() || accepted.Load() != 2 {
				t.Fatalf("reused %v after the reset failed, %d connections accepted; want a new dial", tr.Reused(), accepted.Load())
			}
			if took := time.Since(start); took > dist.HelloTimeout+time.Second {
				t.Errorf("the next borrow waited %v on the failed reset, bound %v", took, dist.HelloTimeout)
			}
		})
	}
}
