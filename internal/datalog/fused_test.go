package datalog

import (
	"context"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dist"
)

// TestProgramExchangesEqualRounds: every execution a program opens runs
// the fused schedule, so over TCP a program costs exactly one
// acknowledged pool-wide exchange per model round — sent a step at a
// time it would pay three — plus one gather per predicate a recursive
// stratum derives, whose facts stay on the workers until its fixpoint is
// done; with the answers and the round record of the loopback run.
func TestProgramExchangesEqualRounds(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewPCG(9, 0))
	db := edgeDB(20, randomEdges(rng, 20, 36))
	for _, tc := range []struct {
		name, src      string
		dials, gathers int
	}{
		{"closure", tcProgram, 2, 1},
		{"mutual recursion", `
			odd(x, y) :- e(x, y).
			odd(x, z) :- even(x, y), e(y, z).
			even(x, z) :- odd(x, y), e(y, z).
			?- odd(x, y).`, 3, 2},
		{"aggregate head", `deg(x, count(y), max(y)) :- e(x, y).`, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustParse(tc.src)
			ref, err := Eval(prog, db, Options{P: p, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			addrs := startPool(t, p)
			var sessions []*dist.TCP
			res, err := Eval(prog, db, Options{
				P: p, Seed: 5, Recovery: dist.RecoveryOptions{Enabled: true},
				Dial: func(int) (dist.Transport, error) {
					tr, err := dist.DialTCP(context.Background(), addrs)
					if err != nil {
						return nil, err
					}
					sessions = append(sessions, tr)
					return tr, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Answers.Tuples(), ref.Answers.Tuples()) {
				t.Fatalf("TCP run has %d answers, loopback %d", res.Answers.Len(), ref.Answers.Len())
			}
			if !reflect.DeepEqual(res.Stats.Rounds, ref.Stats.Rounds) {
				t.Fatalf("round record diverges:\n tcp %+v\nloop %+v", res.Stats.Rounds, ref.Stats.Rounds)
			}
			var exchanges, dials int64
			for _, tr := range sessions {
				exchanges += tr.Exchanges()
				dials += tr.Dials()
			}
			if rounds := int64(len(res.Stats.Rounds)); exchanges != rounds+int64(tc.gathers) || rounds == 0 {
				t.Errorf("%d exchanges for %d rounds, want one per round and %d closure gathers", exchanges, rounds, tc.gathers)
			}
			if dials != int64(tc.dials) {
				t.Errorf("%d dials, want %d (one per execution)", dials, tc.dials)
			}
		})
	}
}

// dyingListener serves worker sessions of which one — the nth this
// listener accepts — closes its connection instead of answering its
// kth command burst. A burst is what the session reads between two of
// its own writes: the hello is burst 0, and on the fused schedule every
// round script after it is one more.
type dyingListener struct {
	net.Listener
	mu              sync.Mutex
	accepted        int
	session, killAt int
}

func (l *dyingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accepted++
	if l.accepted-1 != l.session {
		return c, nil
	}
	return &dyingConn{Conn: c, killAt: l.killAt}, nil
}

// dyingConn is driven by its one session goroutine, so its counters
// need no lock.
type dyingConn struct {
	net.Conn
	wrote         bool
	burst, killAt int
}

func (c *dyingConn) Read(b []byte) (int, error) {
	if c.wrote {
		c.wrote = false
		c.burst++
	}
	return c.Conn.Read(b)
}

func (c *dyingConn) Write(b []byte) (int, error) {
	if c.burst == c.killAt {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	c.wrote = true
	return c.Conn.Write(b)
}

// TestDatalogRecoversWorkerFused: TestDatalogRecoversWorker on the path
// a served program takes — real sessions, fused scripts. Worker 1 of the
// recursive rule's maintainer ingests the second delta script and dies
// instead of answering it; the coordinator, blocked on that reply,
// replaces the worker (same address, fresh session), replays its
// journal, retries only the gather, and the program finishes with the
// fault-free answers and round record.
func TestDatalogRecoversWorkerFused(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	db := edgeDB(20, randomEdges(rng, 20, 36))
	const p = 4
	ref, err := Eval(MustParse(tcProgram), db, Options{P: p, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 2 {
		t.Fatalf("reference ran %d iterations; the kill point needs a second delta round", ref.Iterations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make([]string, p)
	var victim *dyingListener
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		if i == 1 {
			// Session 0 is the base rule's execution, session 1 the
			// maintainer; its bursts are hello, cold round, delta 1, delta 2.
			victim = &dyingListener{Listener: ln, session: 1, killAt: 3}
			ln = victim
		}
		go dist.Serve(ctx, ln)
	}
	res, err := Eval(MustParse(tcProgram), db, Options{
		P: p, Seed: 5, Dial: tcpDialer(addrs), Recovery: dist.RecoveryOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements != 1 {
		t.Errorf("Replacements = %d, want 1", res.Replacements)
	}
	victim.mu.Lock()
	accepted := victim.accepted
	victim.mu.Unlock()
	if accepted != 3 {
		t.Errorf("worker 1 accepted %d sessions, want 3 (two executions and the replacement)", accepted)
	}
	if !reflect.DeepEqual(res.Answers.Tuples(), ref.Answers.Tuples()) {
		t.Errorf("recovered run has %d answers, fault-free run %d", res.Answers.Len(), ref.Answers.Len())
	}
	if res.Iterations != ref.Iterations || !reflect.DeepEqual(res.Stats.Rounds, ref.Stats.Rounds) {
		t.Errorf("recovered run's record diverges:\n got %+v\nwant %+v", res.Stats.Rounds, ref.Stats.Rounds)
	}
}

// closeCounted marks its session closed.
type closeCounted struct {
	dist.Transport
	closed *bool
}

func (c closeCounted) Close() error {
	*c.closed = true
	return c.Transport.Close()
}

// TestEvalClosesEverySession: whatever way a program ends, every
// session it dialled is closed when Eval returns. Nothing that can fail
// without the network sits between a dial and the execution that takes
// ownership of the session, so the paths that remain are the ones here.
func TestEvalClosesEverySession(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	db := edgeDB(20, randomEdges(rng, 20, 36))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"fixpoint", Options{}, false},
		{"iteration bound", Options{MaxIterations: 1}, true},
		{"cancelled", Options{Context: cancelled}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var closed []*bool
			opts := tc.opts
			opts.P, opts.Seed = 4, 5
			opts.Dial = func(p int) (dist.Transport, error) {
				c := new(bool)
				closed = append(closed, c)
				return closeCounted{dist.NewLoopback(p), c}, nil
			}
			_, err := Eval(MustParse(tcProgram), db, opts)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want an error: %v", err, tc.wantErr)
			}
			if len(closed) == 0 {
				t.Fatal("program dialled no session")
			}
			for i, c := range closed {
				if !*c {
					t.Errorf("session %d of %d left open", i, len(closed))
				}
			}
		})
	}
}
