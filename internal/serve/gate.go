package serve

import (
	"context"
	"fmt"
	"sync"
)

// Gate is the admission controller of the serving layer. It bounds two
// resources at once: the number of in-flight query executions (the
// worker-pool size — each execution spins up its own simulated
// cluster's goroutines) and the summed predicted load of the admitted
// executions in tuples (the global memory budget — a query's predicted
// per-worker load times its p is roughly the memory its shuffle
// materializes). Waiters are served FIFO, so one expensive query
// cannot be starved by a stream of cheap ones.
type Gate struct {
	mu      sync.Mutex
	slots   int
	budget  int64 // ≤ 0 means unbounded
	inUse   int
	load    int64
	waiters []*gateWaiter
}

// gateWaiter is one queued Acquire call.
type gateWaiter struct {
	cost     int64
	ready    chan struct{}
	admitted bool
}

// NewGate returns a gate admitting at most slots concurrent
// executions (slots < 1 selects 1) whose predicted loads sum to at
// most budget tuples (budget ≤ 0 disables the load bound).
func NewGate(slots int, budget int64) *Gate {
	if slots < 1 {
		slots = 1
	}
	return &Gate{slots: slots, budget: budget}
}

// Acquire blocks until the gate admits an execution of the given
// predicted cost (in tuples), or until ctx is done. A cost larger than
// the whole budget is clamped to it, so oversized queries still run —
// alone. Every successful Acquire must be paired with Release(cost)
// with the same cost value.
func (g *Gate) Acquire(ctx context.Context, cost int64) error {
	if cost < 0 {
		return fmt.Errorf("serve: negative admission cost %d", cost)
	}
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	if len(g.waiters) == 0 && g.fits(cost) {
		g.admit(cost)
		g.mu.Unlock()
		return nil
	}
	w := &gateWaiter{cost: cost, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.admitted {
			// Lost the race: admitted between Done and the lock. Undo —
			// through the full release path, so the capacity this waiter
			// hands back immediately admits whoever is queued behind it.
			g.releaseLocked(cost)
			g.mu.Unlock()
			return ctx.Err()
		}
		for i, q := range g.waiters {
			if q == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		// A waiter queued behind this one may fit now that it is gone.
		g.admitWaiters()
		g.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns an execution's slot and budget share and admits as
// many queued waiters as now fit, in FIFO order. The cost must equal
// the value passed to the paired Acquire (after its clamping, which
// Release re-applies).
func (g *Gate) Release(cost int64) {
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked(cost)
}

// releaseLocked un-books an execution and admits as many queued
// waiters as now fit. Callers hold g.mu.
func (g *Gate) releaseLocked(cost int64) {
	g.release(cost)
	g.admitWaiters()
}

// admitWaiters admits queued waiters in FIFO order for as long as the
// head of the queue fits. Callers hold g.mu.
func (g *Gate) admitWaiters() {
	for len(g.waiters) > 0 && g.fits(g.waiters[0].cost) {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.admit(w.cost)
		w.admitted = true
		close(w.ready)
	}
}

// InFlight returns the number of currently admitted executions.
func (g *Gate) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse
}

// Queued returns the number of waiters blocked in Acquire.
func (g *Gate) Queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// Slots returns the gate's concurrent-execution capacity.
func (g *Gate) Slots() int { return g.slots }

// Budget returns the configured global predicted-load budget in
// tuples (≤ 0 means unbounded).
func (g *Gate) Budget() int64 { return g.budget }

// Load returns the summed predicted load of the currently admitted
// executions, in tuples.
func (g *Gate) Load() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.load
}

// fits reports whether an execution of the given cost can be admitted
// now. Callers hold g.mu.
func (g *Gate) fits(cost int64) bool {
	if g.inUse >= g.slots {
		return false
	}
	return g.budget <= 0 || g.load+cost <= g.budget
}

// admit books an execution. Callers hold g.mu.
func (g *Gate) admit(cost int64) {
	g.inUse++
	g.load += cost
}

// release un-books an execution. Callers hold g.mu.
func (g *Gate) release(cost int64) {
	g.inUse--
	g.load -= cost
}
