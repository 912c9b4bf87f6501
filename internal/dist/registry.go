package dist

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Registry is the coordinator-side membership view of a shared worker
// pool: p member addresses that executions dial, plus spare addresses
// that replace members found dead. It reconciles desired state (p
// live members) with actual state (what a heartbeat probe observes) —
// a thin controller loop. mpcserve runs one Registry for its pool so
// a crashed worker is swapped out in the background instead of
// failing every query from then on.
type Registry struct {
	mu         sync.Mutex
	members    []string
	spares     []string
	generation uint64
}

// NewRegistry returns a registry over the member and spare addresses.
func NewRegistry(members, spares []string) *Registry {
	return &Registry{
		members: append([]string(nil), members...),
		spares:  append([]string(nil), spares...),
	}
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
		r.generation++
	}
	return swapped
}

// Run reconciles every interval until ctx is done — the background
// heartbeat loop a server mounts next to its query handlers. Each
// reconcile is bounded by the interval, so one silent worker costs one
// heartbeat period, not the loop.
func (r *Registry) Run(ctx context.Context, interval time.Duration) {
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
