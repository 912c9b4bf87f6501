package dist_test

import (
	"context"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
)

// countedPool is a worker pool whose sessions count what they do to
// their connection: Write calls per accepted connection, and accepts
// against closes across the pool.
type countedPool struct {
	addrs []string
	mu    sync.Mutex
	conns []*countedConn
	// closed receives one value per accepted connection, when the worker
	// closes it; the buffer holds every send the tests here can cause
	// (at most 16 workers × 2 sessions).
	closed chan struct{}
}

type countedConn struct {
	net.Conn
	pool   *countedPool
	writes atomic.Int64
	once   sync.Once
}

// Write counts the call. A countedConn is not a *net.TCPConn, so a
// vectored write (net.Buffers) reaches it as one Write per segment: a
// reply without zero-copy payload segments is exactly one call.
func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.pool.closed <- struct{}{} })
	return c.Conn.Close()
}

type countedListener struct {
	net.Listener
	pool *countedPool
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countedConn{Conn: c, pool: l.pool}
	l.pool.mu.Lock()
	l.pool.conns = append(l.pool.conns, cc)
	l.pool.mu.Unlock()
	return cc, nil
}

func startCountedPool(t *testing.T, n int) *countedPool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	pool := &countedPool{closed: make(chan struct{}, 32)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pool.addrs = append(pool.addrs, ln.Addr().String())
		go dist.Serve(ctx, countedListener{ln, pool})
	}
	return pool
}

// writes returns the Write calls of every accepted connection so far,
// sorted (accept order across listeners is not deterministic).
func (p *countedPool) writes() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int64, len(p.conns))
	for i, c := range p.conns {
		out[i] = c.writes.Load()
	}
	slices.Sort(out)
	return out
}

func (p *countedPool) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

func constant(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestWorkerAnswersScriptInOneWrite: a worker's replies leave when its
// session goes idle. A step sent alone is followed by nothing until it
// is answered, so its ack is written at once — a lone barrier must
// return — and the three answered steps of a round sent one at a time
// ("synchronous" in the subtest's name) cost three writes; the fused
// script of a maintenance batch is answered by one:
// the barrier and join acks ride the gather's write.
func TestWorkerAnswersScriptInOneWrite(t *testing.T) {
	const p = 4
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("synchronous", func(t *testing.T) {
		pool := startCountedPool(t, p)
		tr := dialPool(t, pool.addrs)
		if got := pool.writes(); !slices.Equal(got, constant(p, 1)) {
			t.Fatalf("writes after the handshake = %v, want 1 per session", got)
		}
		if err := barrier(ctx, tr, 1); err != nil {
			t.Fatalf("lone barrier: %v", err)
		}
		if got := pool.writes(); !slices.Equal(got, constant(p, 2)) {
			t.Fatalf("writes after a lone barrier = %v, want 2 per session", got)
		}
		if err := join(ctx, tr, dist.JoinSpec{Query: "q(x,y) = R(x,y)", View: "v"}); err != nil {
			t.Fatal(err)
		}
		if _, err := gather(ctx, tr, "v"); err != nil {
			t.Fatal(err)
		}
		if got := pool.writes(); !slices.Equal(got, constant(p, 4)) {
			t.Fatalf("writes after barrier, join, gather = %v, want 4 per session", got)
		}
		if got := tr.Exchanges(); got != 3 {
			t.Fatalf("Exchanges = %d, want 3", got)
		}
	})

	t.Run("fused batch", func(t *testing.T) {
		pool := startCountedPool(t, p)
		tr := dialPool(t, pool.addrs)
		q := query.Cycle(3)
		db := relation.MatchingDatabase(rand.New(rand.NewPCG(103, 0)), q, 200)
		m, err := hypercube.NewMaintainer(q, db, p, hypercube.Options{
			Seed: 23, Transport: tr, Context: ctx, Recovery: dist.RecoveryOptions{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		before, exchanges := pool.writes(), tr.Exchanges()
		// An extension that closes no triangle: the batch still routes Δ,
		// fences, joins and gathers, and its reply is acks plus an empty
		// gather stream — no payload segment splits the vectored write.
		atom := q.Atoms[0].Name
		rep, err := m.ApplyDelta(map[string]relation.Effect{atom: {Added: relation.RunOf(2, []relation.Tuple{{1, 1}})}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.AnswersAdded != 0 || rep.RoutedTuples == 0 {
			t.Fatalf("batch added %d answers routing %d tuples; the test needs a routed, answerless Δ", rep.AnswersAdded, rep.RoutedTuples)
		}
		after := pool.writes()
		for i := range after {
			if after[i]-before[i] != 1 {
				t.Fatalf("writes per session went %v → %v over one batch, want +1 each", before, after)
			}
		}
		if got := tr.Exchanges() - exchanges; got != 1 {
			t.Fatalf("one batch cost %d exchanges, want 1", got)
		}
	})
}

// TestRetractionOnlyBatchIsFenced: a maintainer runs the fused
// schedule, whose fence is the gather — and a batch carrying only
// retractions has none. Its routed delta and its barrier must still
// reach the workers before ApplyDelta returns, not wait for whatever
// batch gathers next (or be dropped by Close).
func TestRetractionOnlyBatchIsFenced(t *testing.T) {
	const p = 4
	q := query.Cycle(3)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(103, 0)), q, 200)
	atom := q.Atoms[0].Name
	batch := map[string]relation.Effect{atom: {Removed: relation.RunOf(2, db.Relations[atom].Tuples[:3])}}
	truth := func() []relation.Tuple {
		ref, err := hypercube.NewMaintainer(q, db, p, hypercube.Options{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if _, err := ref.ApplyDelta(batch); err != nil {
			t.Fatal(err)
		}
		return ref.Answers().Tuples()
	}()

	for _, tc := range []struct {
		name  string
		inner func(t *testing.T) dist.Replaceable
	}{
		{"loopback", func(*testing.T) dist.Replaceable { return dist.NewLoopback(p) }},
		{"tcp", func(t *testing.T) dist.Replaceable { return dialPool(t, startPool(t, p)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingTransport{inner: tc.inner(t)}
			m, err := hypercube.NewMaintainer(q, db, p, hypercube.Options{Seed: 23, Transport: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			cold := len(rec.calls)
			if _, err := m.ApplyDelta(batch); err != nil {
				t.Fatal(err)
			}
			if got, want := rec.calls[cold:], []string{"Retract(2)", "Barrier(2)"}; !slices.Equal(got, want) {
				t.Fatalf("transport calls of a retraction-only batch = %v, want %v before ApplyDelta returns", got, want)
			}
			if !sameTuples(m.Answers().Tuples(), truth) {
				t.Fatalf("%d answers after the retraction, reference %d", m.Answers().Len(), len(truth))
			}
		})
	}

	// On the script path itself (a bare *TCP) the fence is one
	// acknowledged exchange: the barrier's.
	tr := dialPool(t, startPool(t, p))
	m, err := hypercube.NewMaintainer(q, db, p, hypercube.Options{Seed: 23, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cold := tr.Exchanges()
	if _, err := m.ApplyDelta(batch); err != nil {
		t.Fatal(err)
	}
	if got := tr.Exchanges() - cold; got != 1 {
		t.Fatalf("retraction-only batch cost %d exchanges on TCP, want 1 (cold round cost %d)", got, cold)
	}
}

// TestDialTCPParallelFailure: one dead address among 16 fails the dial
// with an error naming that worker, and every connection the other 15
// concurrent dials opened is closed again.
func TestDialTCPParallelFailure(t *testing.T) {
	const p, dead = 16, 7
	pool := startCountedPool(t, p-1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	addrs := slices.Insert(slices.Clone(pool.addrs), dead, refused)

	tr, err := dist.DialTCP(context.Background(), addrs)
	if err == nil {
		tr.Close()
		t.Fatal("dial with a dead member succeeded")
	}
	if !strings.Contains(err.Error(), "dial worker 7 at "+refused) {
		t.Fatalf("error does not name the dead worker: %v", err)
	}
	if strings.Count(err.Error(), "worker ") != 1 {
		t.Fatalf("error blames a live worker: %v", err)
	}
	// Every live member completed its handshake (DialTCP waits for all of
	// its dials), so each accepted exactly one session; all must close.
	timeout := time.After(10 * time.Second)
	for i := 0; i < p-1; i++ {
		select {
		case <-pool.closed:
		case <-timeout:
			t.Fatalf("%d of %d sessions closed after the failed dial", i, p-1)
		}
	}
	if got := pool.accepted(); got != p-1 {
		t.Fatalf("%d sessions accepted, want %d", got, p-1)
	}
}

// TestDialTCPCountsDials: a session is one dial, however many workers.
func TestDialTCPCountsDials(t *testing.T) {
	tr := dialPool(t, startPool(t, 5))
	if tr.Dials() != 1 || tr.Exchanges() != 0 {
		t.Fatalf("fresh session: %d dials, %d exchanges; want 1, 0", tr.Dials(), tr.Exchanges())
	}
	if err := tr.ReplaceWorker(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if tr.Dials() != 2 {
		t.Fatalf("after a replacement: %d dials, want 2", tr.Dials())
	}
}
