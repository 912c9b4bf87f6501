package dist

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the one owner of a shared worker pool's membership: p
// member addresses, the spare addresses that replace members found dead,
// and the sessions on the members that no execution is using. Every
// worker connection of a session it lends is made by its one dial (dial):
// a borrow's, a mid-query ReplaceWorker's and the heartbeat's (Reconcile),
// so a spare promoted on any of the three paths is promoted here, for
// every later borrower. It lends sessions the way it hands out members:
// an execution borrows one (Session) and gives it back by closing it, and
// the registry parks it, reset, for the next — a session healed mid-query
// included. mpcserve and mpcrun run one Registry for their pool, so a
// crashed worker is swapped out once instead of failing every query from
// then on, and a warm query pays no dial.
type Registry struct {
	mu         sync.Mutex
	members    []string
	spares     []string
	generation uint64
	// idle are the parked sessions: reset, and dialled at the current
	// members. Only a borrower gives a session back, so idle never holds
	// more sessions than were ever borrowed at once. resetting counts the
	// sessions whose reset is in flight, and settled is closed — and
	// replaced — each time one settles, parked or not. resets tags the
	// resets. Once closed (Run returned) nothing is parked.
	idle      []*TCP
	resetting int
	settled   chan struct{}
	resets    uint32
	closed    bool
	// resetVia is what a reset is sent through: the session itself, or —
	// in the fault explorer — the session behind a fault schedule.
	resetVia func(Transport) Transport
	// dials, exchanges and reused total Usage; a lent session adds to
	// them where it counts its own.
	dials, exchanges, reused atomic.Int64
}

// Usage totals what the sessions a Registry lent cost the transport,
// counted as they go — a session held for a long time is no exception.
type Usage struct {
	// Dials counts the sessions dialled for a borrower — none for a
	// parked one — plus the workers they replaced.
	Dials int64
	// Exchanges counts their acknowledged pool-wide round trips; the
	// reset that parks a session is no borrower's.
	Exchanges int64
	// Reused counts the borrows a parked session served.
	Reused int64
}

// Usage returns the running totals of the sessions the registry lent.
func (r *Registry) Usage() Usage {
	return Usage{Dials: r.dials.Load(), Exchanges: r.exchanges.Load(), Reused: r.reused.Load()}
}

// NewRegistry returns a registry over the member and spare addresses.
func NewRegistry(members, spares []string) *Registry {
	return &Registry{
		members: append([]string(nil), members...),
		spares:  append([]string(nil), spares...),
		settled: make(chan struct{}),
	}
}

// Session lends one execution a session on the pool: a parked one if
// there is one — waiting for a reset in flight rather than dialling beside
// it — and otherwise a new dial of every slot. A member that died since
// the last heartbeat costs that dial a spare, so one crashed worker costs
// one repaired request instead of every query until the background loop
// catches up; repaired is how many spares the dial promoted. Closing the
// session gives it back (TCP.Close).
func (r *Registry) Session(ctx context.Context) (t *TCP, repaired int, err error) {
	if t = r.unpark(ctx); t != nil {
		r.reused.Add(1)
		return t, 0, nil
	}
	if t, repaired, err = dialTCP(ctx, r.Members(), r); err == nil {
		t.lent = true
		r.dials.Add(1)
	}
	return t, repaired, err
}

// dial connects slot i of t, a session the registry lent: the slot's
// member first, then each spare in order (dialSlot bounds each
// candidate). A spare that acks the hello is promoted: it leaves the
// spare list, the member it replaces goes to the list's tail — a
// restarted process there is promotable again — and the parked sessions,
// which dial the old member, are hung up. A spare another dial promoted
// meanwhile is passed over. The candidates are a snapshot: no lock is
// held while dialling.
func (r *Registry) dial(ctx context.Context, t *TCP, i int) (*workerConn, error) {
	r.mu.Lock()
	candidates := append([]string{r.members[i]}, r.spares...)
	r.mu.Unlock()
	return dialSlot(ctx, i, len(t.conns), candidates, func(addr string) bool {
		if !r.promote(i, addr, &t.promoted) {
			return false
		}
		t.mu.Lock()
		t.addrs[i] = addr
		t.mu.Unlock()
		return true
	})
}

// promote records that slot i answered at addr, counting a promotion in
// promoted; false when addr is neither the slot's member nor still a
// spare: another slot took it.
func (r *Registry) promote(i int, addr string, promoted *atomic.Int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[i] == addr {
		return true
	}
	j := slices.Index(r.spares, addr)
	if j < 0 {
		return false
	}
	r.spares = append(slices.Delete(r.spares, j, j+1), r.members[i])
	r.members[i] = addr
	r.generation++
	r.dropIdle()
	promoted.Add(1)
	return true
}

// unpark takes a parked session whose connections all held while it was
// parked, waiting while none is parked and a reset is in flight; nil when
// there is nothing to wait for, or ctx ends first. The session goes out as
// a new TCP value, so what it counts is this borrow's.
func (r *Registry) unpark(ctx context.Context) *TCP {
	for {
		r.mu.Lock()
		if n := len(r.idle); n > 0 {
			t := r.idle[n-1]
			r.idle = r.idle[:n-1]
			r.mu.Unlock()
			if t.whole() {
				return &TCP{conns: t.conns, addrs: t.addrs, reg: r, lent: true, reused: true}
			}
			t.hangUp()
			continue
		}
		settled, waiting := r.settled, r.resetting > 0
		r.mu.Unlock()
		if !waiting {
			return nil
		}
		select {
		case <-settled:
		case <-ctx.Done():
			return nil
		}
	}
}

// release takes back a session whose execution is done. Its reset runs
// off the borrower's path, bounded like a hello; the session is parked
// when the reset succeeded, the registry is not closed and the session
// still dials the current members — a spare promoted since, by another
// session's dial, left it a connection to a former member — and hung up
// otherwise. A spare this session's own recovery promoted is a member:
// the healed session parks.
func (r *Registry) release(t *TCP) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		t.hangUp()
		return
	}
	r.resetting++
	r.resets++
	tag, via := r.resets, r.resetVia
	r.mu.Unlock()
	go func() {
		var tr Transport = t
		if via != nil {
			tr = via(t)
		}
		ctx, cancel := context.WithTimeout(context.Background(), HelloTimeout)
		_, err := tr.Run(ctx, []Op{{Kind: OpReset, Round: int(tag)}})
		cancel()
		r.mu.Lock()
		defer r.mu.Unlock()
		if err == nil && !r.closed && slices.Equal(t.addrs, r.members) {
			r.idle = append(r.idle, t)
		} else {
			t.hangUp()
		}
		r.resetting--
		close(r.settled)
		r.settled = make(chan struct{})
	}()
}

// dropIdle hangs up every parked session, with r.mu held.
func (r *Registry) dropIdle() {
	for _, t := range r.idle {
		t.hangUp()
	}
	r.idle = nil
}

// Members returns the current member addresses (the pool to dial).
func (r *Registry) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.members...)
}

// Spares returns the current spare addresses.
func (r *Registry) Spares() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.spares...)
}

// Generation counts membership changes: one per promoted spare.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Reconcile is the heartbeat: a fresh dial of every slot through the
// registry's one dial, a ping bounded by HelloTimeout, and a replacement
// — the same dial again — of each worker that fails the ping; then the
// session is hung up. It returns how many spares it promoted. A slot no
// candidate answers keeps its member, for a later Reconcile to retry.
//
// Nothing is dialled under the registry lock: a worker that accepts the
// connection and never answers stalls this call for its share of ctx (at
// most HelloTimeout per candidate), never Members or Spares, which every
// query takes.
func (r *Registry) Reconcile(ctx context.Context) int {
	t, promoted, err := dialTCP(ctx, r.Members(), r)
	if err != nil {
		return promoted
	}
	defer t.hangUp()
	pctx, cancel := context.WithTimeout(ctx, HelloTimeout)
	_, err = t.Run(pctx, []Op{{Kind: OpPing, Round: 1}})
	cancel()
	for _, w := range FailedWorkers(err) {
		_ = t.ReplaceWorker(ctx, w) // on failure the slot keeps its member
	}
	return int(t.promoted.Load())
}

// Run reconciles every interval until ctx is done — the background
// heartbeat loop a server mounts next to its query handlers. Each
// reconcile is bounded by the interval, so one silent worker costs one
// heartbeat period, not the loop. It returns once the parked sessions
// are hung up and every reset in flight has settled; from then on the
// registry parks no session.
func (r *Registry) Run(ctx context.Context, interval time.Duration) {
	defer func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.closed = true
		r.dropIdle()
		for r.resetting > 0 {
			settled := r.settled
			r.mu.Unlock()
			<-settled
			r.mu.Lock()
		}
	}()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rctx, cancel := context.WithTimeout(ctx, interval)
			r.Reconcile(rctx)
			cancel()
		}
	}
}
