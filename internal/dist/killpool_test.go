package dist_test

import (
	"context"
	"net"
	"sync"
	"testing"

	"repro/internal/dist"
)

// killablePool is a set of worker listeners whose members can be
// killed individually and synchronously: kill closes the listener AND
// every established session connection, so the coordinator observes
// the death deterministically on its next frame — no timers, no grace
// periods.
type killablePool struct {
	addrs   []string
	members []*killableListener
}

// killableListener is a listener that remembers what it accepted.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
	dead  bool
}

// startKillablePool starts n independently killable worker listeners.
func startKillablePool(t *testing.T, n int) *killablePool {
	t.Helper()
	pool := &killablePool{}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := &killableListener{Listener: ln}
		go dist.Serve(ctx, m)
		pool.addrs = append(pool.addrs, ln.Addr().String())
		pool.members = append(pool.members, m)
	}
	t.Cleanup(func() {
		for i := range pool.members {
			pool.kill(i)
		}
		cancel()
	})
	return pool
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil && l.dead {
		c.Close() // accepted as the member died: dies with it
	} else if err == nil {
		l.conns = append(l.conns, c)
	}
	return c, err
}

// kill takes member i down hard: no new sessions, and every live
// session connection is closed before kill returns.
func (p *killablePool) kill(i int) {
	l := p.members[i]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead = true
	l.Close()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}
