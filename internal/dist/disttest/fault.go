// Package disttest is test scaffolding for code that runs on
// dist.Cluster: a Transport wrapper that injects a deterministic,
// counter-keyed schedule of worker failures, delays and duplicate
// deliveries. It is imported by tests only.
package disttest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dist"
	"repro/internal/exchange"
)

// OpType names the step of a round script a fault attaches to.
type OpType = dist.OpKind

// Steps a Fault can target: one occurrence is one such step of a script,
// whether it came alone or fused with others.
const (
	OpDeliver = dist.OpDeliver
	OpBarrier = dist.OpBarrier
	OpJoin    = dist.OpJoin
	OpGather  = dist.OpGather
	OpDelta   = dist.OpDelta
	OpAttach  = dist.OpAttach
)

// FaultKind is what happens when a fault fires.
type FaultKind uint8

// Fault behaviors.
const (
	// KillBefore kills the worker's connection before the step acts:
	// the worker's slice of the step is lost and the worker is dead
	// until replaced.
	KillBefore FaultKind = iota
	// KillAfter kills the worker's connection after the step acted:
	// the worker holds the step's state but the coordinator sees a
	// failure (it cannot know how much arrived), and the worker is dead
	// until replaced.
	KillAfter
	// DelayToBarrier holds the worker's deliveries back until the next
	// barrier step, which injects them before synchronizing — legal
	// under BSP semantics (ingestion is only promised at the barrier)
	// and must not change any result.
	DelayToBarrier
	// DuplicateDelivery delivers the worker's runs twice. Exactly-once
	// is not part of the transport contract — sorted-run merging dedups
	// — so answers must not change.
	DuplicateDelivery
)

// String names the behavior.
func (k FaultKind) String() string {
	switch k {
	case KillBefore:
		return "kill-before"
	case KillAfter:
		return "kill-after"
	case DelayToBarrier:
		return "delay-to-barrier"
	case DuplicateDelivery:
		return "duplicate-delivery"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault is one scheduled failure: when worker Worker sees its N-th
// (0-indexed) step of kind Op, Kind happens. The schedule is purely
// counter-driven — no timers, no goroutine races — so a recovery test
// that uses it is deterministic by construction.
type Fault struct {
	// Worker is the pool index the fault targets.
	Worker int
	// Op is the step the fault attaches to.
	Op OpType
	// N is the 0-indexed occurrence of Op at which the fault fires.
	N int
	// Kind is the behavior.
	Kind FaultKind
}

// errFaultKilled marks an injected connection kill.
var errFaultKilled = errors.New("fault injected: connection killed")

// errFaultDead marks an op against a worker killed earlier.
var errFaultDead = errors.New("fault injected: worker is dead")

// FaultTransport wraps a Transport with a deterministic fault
// schedule. Run walks its script and hands the inner transport one step
// at a time; each step advances per-worker counters, and when a counter
// hits a scheduled Fault the transport injects the fault — reporting a
// *WorkerError exactly like the TCP transport would — and, for kill
// faults, keeps the worker dead (every touch fails) until ReplaceWorker
// revives it. Like a dead TCP connection, a dead worker does not stop
// the script: the healthy pool runs the rest of it before the failures
// are reported. Because the schedule is counter-keyed rather than
// time-keyed, a test net built on it has no sleeps and no flakes.
type FaultTransport struct {
	inner dist.Transport

	mu     sync.Mutex
	faults []Fault
	// fired marks schedule entries that already went off (each fault is
	// one-shot).
	fired []bool
	// counts is the per-(worker, op) call counter.
	counts map[opKey]int
	// dead marks killed workers awaiting replacement.
	dead map[int]bool
	// held are DelayToBarrier deliveries waiting for the next barrier.
	held []dist.Op
	// kills counts injected kill faults, for test assertions.
	kills int
}

// opKey keys the per-worker phase counters.
type opKey struct {
	worker int
	op     OpType
}

// NewFaultTransport wraps inner with the fault schedule. The wrapped
// transport satisfies Replaceable when inner does, which the recovery
// tests rely on.
func NewFaultTransport(inner dist.Transport, faults ...Fault) *FaultTransport {
	return &FaultTransport{
		inner:  inner,
		faults: append([]Fault(nil), faults...),
		fired:  make([]bool, len(faults)),
		counts: make(map[opKey]int),
		dead:   make(map[int]bool),
	}
}

// Kills returns how many kill faults have fired.
func (ft *FaultTransport) Kills() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.kills
}

// step advances worker w's counter for op and returns the fault firing
// at this occurrence, if any.
func (ft *FaultTransport) step(w int, op OpType) (Fault, bool) {
	k := opKey{worker: w, op: op}
	n := ft.counts[k]
	ft.counts[k] = n + 1
	for i, f := range ft.faults {
		if !ft.fired[i] && f.Worker == w && f.Op == op && f.N == n {
			ft.fired[i] = true
			if f.Kind == KillBefore || f.Kind == KillAfter {
				ft.dead[w] = true
				ft.kills++
			}
			return f, true
		}
	}
	return Fault{}, false
}

// killed advances every live worker's counter for op and returns the
// failures the coordinator sees: the dead, and those a kill fault fires
// on now. The caller holds ft.mu.
func (ft *FaultTransport) killed(op OpType) []error {
	var errs []error
	for w := 0; w < ft.inner.Workers(); w++ {
		if ft.dead[w] {
			errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultDead})
		} else if f, ok := ft.step(w, op); ok && (f.Kind == KillBefore || f.Kind == KillAfter) {
			errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultKilled})
		}
	}
	return errs
}

// Workers implements Transport.
func (ft *FaultTransport) Workers() int { return ft.inner.Workers() }

// Run implements Transport: every step meets the schedule as it would
// have sent alone, and what passes goes to the inner transport.
func (ft *FaultTransport) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	var reply dist.Reply
	var errs []error
	for _, op := range ops {
		pass, failed := ft.meet(op)
		errs = append(errs, failed...)
		if len(pass) == 0 {
			continue
		}
		r, err := ft.inner.Run(ctx, pass)
		if err != nil {
			errs = append(errs, err)
		}
		if r.Runs != nil {
			reply.Runs = r.Runs
		}
		if r.Attached != nil {
			reply.Attached = r.Attached
		}
	}
	return reply, errors.Join(errs...)
}

// meet applies the schedule to one step and returns what the inner
// transport is to run in its place, and the failures the coordinator
// sees.
func (ft *FaultTransport) meet(op dist.Op) (pass []dist.Op, errs []error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	switch op.Kind {
	case dist.OpDeliver:
		held := op
		op.Deliveries, held.Deliveries, errs = scatterFaults(ft, op.Kind, op.Deliveries, func(d exchange.Delivery) int { return d.To })
		if len(held.Deliveries) > 0 {
			ft.held = append(ft.held, held)
		}
		if len(op.Deliveries) == 0 {
			return nil, errs
		}
	case dist.OpDelta:
		// Tombstones are idempotent and appended duplicates dedup at the
		// gather merge, so a DuplicateDelivery must not change results.
		held := op
		op.Deltas, held.Deltas, errs = scatterFaults(ft, op.Kind, op.Deltas, func(d dist.DeltaDelivery) int { return d.To })
		if len(held.Deltas) > 0 {
			ft.held = append(ft.held, held)
		}
		if len(op.Deltas) == 0 {
			return nil, errs
		}
	case dist.OpBarrier:
		// Held deliveries are injected first: the BSP contract only
		// promises ingestion at the barrier.
		pass, ft.held = ft.held, nil
		errs = ft.killed(op.Kind)
	case dist.OpJoin, dist.OpAttach:
		// The healthy pool still evaluates (or attaches) while a kill
		// fault reports its worker dead; what that worker did first is
		// lost with its session, and replay redoes it.
		errs = ft.killed(op.Kind)
	case dist.OpGather:
		// A kill loses the whole gather — the coordinator cannot use a
		// stream a dead worker never finished — so the caller heals and
		// gathers again.
		if errs = ft.killed(op.Kind); len(errs) > 0 {
			return nil, errs
		}
	}
	return append(pass, op), errs
}

// scatterFaults is the body deliveries and deltas share: bucket them by
// destination worker and apply the schedule to each worker's bucket —
// kill faults lose (or race) it, DelayToBarrier holds it for the next
// barrier, DuplicateDelivery passes it twice. It returns what passes and
// what is held.
func scatterFaults[D any](ft *FaultTransport, op OpType, ds []D, to func(D) int) (pass, held []D, errs []error) {
	byWorker := make(map[int][]D)
	for _, d := range ds {
		byWorker[to(d)] = append(byWorker[to(d)], d)
	}
	for w := 0; w < ft.inner.Workers(); w++ {
		mine := byWorker[w]
		if ft.dead[w] {
			if len(mine) > 0 {
				errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultDead})
			}
			continue
		}
		f, ok := ft.step(w, op)
		if !ok {
			pass = append(pass, mine...)
			continue
		}
		switch f.Kind {
		case KillBefore:
			// The worker's slice never arrives.
			errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultKilled})
		case KillAfter:
			// The slice arrives, then the connection dies; the
			// coordinator cannot tell, so it still sees a failure.
			pass = append(pass, mine...)
			errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultKilled})
		case DelayToBarrier:
			held = append(held, mine...)
		case DuplicateDelivery:
			pass = append(pass, mine...)
			pass = append(pass, mine...)
		}
	}
	return pass, held, errs
}

// Close implements Transport.
func (ft *FaultTransport) Close() error { return ft.inner.Close() }

// replaceable returns the inner transport's recovery surface.
func (ft *FaultTransport) replaceable() (dist.Replaceable, error) {
	rt, ok := ft.inner.(dist.Replaceable)
	if !ok {
		return nil, fmt.Errorf("disttest: fault transport wraps %T, which does not support recovery", ft.inner)
	}
	return rt, nil
}

// ReplaceWorker implements Replaceable: the worker is revived (its
// dead mark cleared) and the inner transport installs a fresh session.
func (ft *FaultTransport) ReplaceWorker(ctx context.Context, w int) error {
	rt, err := ft.replaceable()
	if err != nil {
		return err
	}
	if err := rt.ReplaceWorker(ctx, w); err != nil {
		return err
	}
	ft.mu.Lock()
	delete(ft.dead, w)
	ft.mu.Unlock()
	return nil
}

// RunOn implements Replaceable; replay traffic is not subject to the
// fault schedule but still fails against a dead worker.
func (ft *FaultTransport) RunOn(ctx context.Context, w int, ops []dist.Op) error {
	if err := ft.checkDead(w); err != nil {
		return err
	}
	rt, err := ft.replaceable()
	if err != nil {
		return err
	}
	return rt.RunOn(ctx, w, ops)
}

// Ping implements Replaceable.
func (ft *FaultTransport) Ping(ctx context.Context, w int, seq uint32) error {
	if err := ft.checkDead(w); err != nil {
		return err
	}
	rt, err := ft.replaceable()
	if err != nil {
		return err
	}
	return rt.Ping(ctx, w, seq)
}

// Announce implements Replaceable; dead workers miss the broadcast and
// surface as failures, which is how healing discovers them.
func (ft *FaultTransport) Announce(ctx context.Context, epoch uint32) error {
	rt, err := ft.replaceable()
	if err != nil {
		return err
	}
	var errs []error
	ft.mu.Lock()
	for w := range ft.dead {
		errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultDead})
	}
	ft.mu.Unlock()
	if err := rt.Announce(ctx, epoch); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// checkDead reports a fault error when w was killed and not yet
// replaced.
func (ft *FaultTransport) checkDead(w int) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.dead[w] {
		return &dist.WorkerError{Worker: w, Err: errFaultDead}
	}
	return nil
}

var _ dist.Replaceable = (*FaultTransport)(nil)

// Step sends op to tr as a one-step script: what a test that drives a
// transport by hand, below any Cluster, calls for each step.
func Step(ctx context.Context, tr dist.Transport, op dist.Op) (dist.Reply, error) {
	return tr.Run(ctx, []dist.Op{op})
}
