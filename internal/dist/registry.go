package dist

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Registry is the coordinator-side view of a shared worker pool: p
// member addresses, spare addresses that replace members found dead, and
// the sessions on the members that no execution is using. It reconciles
// desired state (p live members) with actual state (what a heartbeat
// probe observes) — a thin controller loop — and lends sessions the way
// it hands out members: an execution borrows one (Session) and gives it
// back by closing it, and the registry parks it, reset, for the next.
// mpcserve runs one Registry for its pool, so a crashed worker is swapped
// out in the background instead of failing every query from then on, and
// a warm query pays no dial.
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
// it — and otherwise a new dial of Members(). A dial that fails usually
// means a member died since the last heartbeat: the registry reconciles
// at once, promoting spares into dead slots, and dials once more, so one
// crashed worker costs one repaired request instead of every query until
// the background loop catches up; repaired is how many members that
// swapped. Closing the session gives it back (TCP.Close).
func (r *Registry) Session(ctx context.Context) (t *TCP, repaired int, err error) {
	if t = r.unpark(ctx); t != nil {
		return t, 0, nil
	}
	t, err = DialTCP(ctx, r.Members())
	if err != nil {
		repaired = r.Reconcile(ctx)
		t, err = DialTCP(ctx, r.Members())
	}
	if err != nil {
		return nil, repaired, err
	}
	t.reg = r
	return t, repaired, nil
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
				return &TCP{conns: t.conns, addrs: t.addrs, reg: r, reused: true}
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
// still dials the current members — recovery may have promoted a spare
// into it — and hung up otherwise.
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

// Generation counts membership changes; it ticks once per Reconcile
// that swapped at least one member.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// probeTimeout bounds one liveness probe. A healthy worker answers in
// milliseconds; one that accepts the connection and then says nothing
// would otherwise hold its prober for as long as the caller's context
// lives — a /query's whole request, when the probe is the repair a
// failed dial triggers.
const probeTimeout = 3 * time.Second

// probe checks one worker for liveness: dial, handshake, a one-step
// script holding a ping, close, all within probeTimeout. A worker that
// completes it can serve a session.
func probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	t, err := DialTCP(ctx, []string{addr})
	if err != nil {
		return false
	}
	defer t.Close()
	_, err = t.Run(ctx, []Op{{Kind: OpPing, Round: 1}})
	return err == nil
}

// probeAll probes every address concurrently.
func probeAll(ctx context.Context, addrs []string) []bool {
	alive := make([]bool, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			alive[i] = probe(ctx, addr)
		}(i, addr)
	}
	wg.Wait()
	return alive
}

// Reconcile probes every member and swaps each dead member for a live
// spare; dead member addresses are recycled to the back of the spare
// list (a restarted process at the old address becomes promotable
// again). It returns how many members were swapped. Dead members with
// no live spare left keep their slot — a later Reconcile retries them.
//
// Every probe runs on a snapshot, outside the registry lock: a worker
// that accepts the connection and never answers stalls this call for
// one probeTimeout per pass (members, then spares) or until ctx is done,
// never Members or Spares, which every query takes.
func (r *Registry) Reconcile(ctx context.Context) int {
	members := r.Members()
	alive := probeAll(ctx, members)
	if !slices.Contains(alive, false) {
		return 0
	}
	spares := r.Spares()
	promotable := make(map[string]bool, len(spares))
	for i, ok := range probeAll(ctx, spares) {
		promotable[spares[i]] = ok
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	swapped := 0
	for i, ok := range alive {
		if ok || r.members[i] != members[i] {
			continue // live, or someone else already swapped the slot
		}
		// Only spares still listed are candidates: a concurrent Reconcile
		// may have promoted one since the snapshot.
		for j, cand := range r.spares {
			if promotable[cand] {
				r.spares = append(slices.Delete(r.spares, j, j+1), r.members[i])
				r.members[i] = cand
				swapped++
				break
			}
		}
	}
	if swapped > 0 {
		// The parked sessions dial the old members.
		r.generation++
		r.dropIdle()
	}
	return swapped
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
