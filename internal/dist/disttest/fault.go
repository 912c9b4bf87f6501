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
	"repro/internal/wire"
)

// OpType names the transport phase a fault attaches to.
type OpType uint8

// Transport phases a Fault can target.
const (
	// OpDeliver is a Deliver call (one per scatter).
	OpDeliver OpType = iota
	// OpBarrier is a Barrier call.
	OpBarrier
	// OpJoin is a Join call.
	OpJoin
	// OpGather is a Gather call.
	OpGather
	// OpDelta is an ApplyDelta call (one per delta scatter).
	OpDelta
	// OpAttach is an Attach call (one per round with resident scatters).
	OpAttach
)

// String names the phase.
func (o OpType) String() string {
	switch o {
	case OpDeliver:
		return "deliver"
	case OpBarrier:
		return "barrier"
	case OpJoin:
		return "join"
	case OpGather:
		return "gather"
	case OpDelta:
		return "delta"
	case OpAttach:
		return "attach"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(o))
	}
}

// FaultKind is what happens when a fault fires.
type FaultKind uint8

// Fault behaviors.
const (
	// KillBefore kills the worker's connection before the phase acts:
	// the worker's slice of the phase is lost and the worker is dead
	// until replaced.
	KillBefore FaultKind = iota
	// KillAfter kills the worker's connection after the phase acted:
	// the worker holds the phase's state but the coordinator sees a
	// failure (it cannot know how much arrived), and the worker is dead
	// until replaced.
	KillAfter
	// DelayToBarrier holds the worker's deliveries back until the next
	// Barrier call, which injects them before synchronizing — legal
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
// (0-indexed) call of phase Op, Kind happens. The schedule is purely
// counter-driven — no timers, no goroutine races — so a recovery test
// that uses it is deterministic by construction.
type Fault struct {
	// Worker is the pool index the fault targets.
	Worker int
	// Op is the phase the fault attaches to.
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
// schedule. Each phase call advances per-worker counters; when a
// counter hits a scheduled Fault, the transport injects the fault —
// reporting a *WorkerError exactly like the TCP transport would — and,
// for kill faults, keeps the worker dead (every touch fails) until
// ReplaceWorker revives it. Because the schedule is counter-keyed
// rather than time-keyed, a test net built on it has no sleeps and no
// flakes.
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
	// held are DelayToBarrier deliveries waiting for the next Barrier.
	held []heldDelivery
	// kills counts injected kill faults, for test assertions.
	kills int
}

// opKey keys the per-worker phase counters.
type opKey struct {
	worker int
	op     OpType
}

// heldDelivery is a delayed delivery (data or delta) with its
// original round.
type heldDelivery struct {
	round int
	ds    []exchange.Delivery
	dds   []dist.DeltaDelivery
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

// Deliver implements Transport with the fault schedule applied per
// destination worker.
func (ft *FaultTransport) Deliver(ctx context.Context, round int, ds []exchange.Delivery) error {
	return scatterFaults(ft, OpDeliver, ds, func(d exchange.Delivery) int { return d.To },
		func(mine []exchange.Delivery) heldDelivery { return heldDelivery{round: round, ds: mine} },
		func(pass []exchange.Delivery) error { return ft.inner.Deliver(ctx, round, pass) })
}

// ApplyDelta implements Transport with the fault schedule applied per
// destination worker, mirroring Deliver: tombstones are idempotent and
// appended duplicates dedup at the gather merge, so a DuplicateDelivery
// must not change results.
func (ft *FaultTransport) ApplyDelta(ctx context.Context, round int, ds []dist.DeltaDelivery) error {
	return scatterFaults(ft, OpDelta, ds, func(d dist.DeltaDelivery) int { return d.To },
		func(mine []dist.DeltaDelivery) heldDelivery { return heldDelivery{round: round, dds: mine} },
		func(pass []dist.DeltaDelivery) error { return ft.inner.ApplyDelta(ctx, round, pass) })
}

// scatterFaults is the body Deliver and ApplyDelta share: bucket the
// deliveries by destination worker, apply the schedule to each worker's
// bucket — kill faults lose (or race) it, DelayToBarrier holds it for
// the next Barrier, DuplicateDelivery passes it twice — and send what
// passes.
func scatterFaults[D any](ft *FaultTransport, op OpType, ds []D, to func(D) int, hold func([]D) heldDelivery, send func([]D) error) error {
	byWorker := make(map[int][]D)
	for _, d := range ds {
		byWorker[to(d)] = append(byWorker[to(d)], d)
	}
	ft.mu.Lock()
	var pass []D
	var errs []error
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
			ft.held = append(ft.held, hold(mine))
		case DuplicateDelivery:
			pass = append(pass, mine...)
			pass = append(pass, mine...)
		}
	}
	ft.mu.Unlock()
	var err error
	if len(pass) > 0 {
		err = send(pass)
	}
	if len(errs) > 0 {
		return errors.Join(append(errs, err)...)
	}
	return err
}

// Barrier implements Transport: held deliveries are injected first —
// the BSP contract only promises ingestion at the barrier — then the
// schedule applies per worker.
func (ft *FaultTransport) Barrier(ctx context.Context, round int) error {
	ft.mu.Lock()
	held := ft.held
	ft.held = nil
	errs := ft.killed(OpBarrier)
	ft.mu.Unlock()
	for _, h := range held {
		if len(h.ds) > 0 {
			if err := ft.inner.Deliver(ctx, h.round, h.ds); err != nil {
				return err
			}
		}
		if len(h.dds) > 0 {
			if err := ft.inner.ApplyDelta(ctx, h.round, h.dds); err != nil {
				return err
			}
		}
	}
	err := ft.inner.Barrier(ctx, round)
	if len(errs) > 0 {
		return errors.Join(append(errs, err)...)
	}
	return err
}

// Join implements Transport. Kill faults report the targeted worker
// dead while the healthy pool still evaluates — exactly what a dead
// TCP connection looks like to the coordinator — and the replaced
// worker re-evaluates during replay.
func (ft *FaultTransport) Join(ctx context.Context, spec dist.JoinSpec) error {
	ft.mu.Lock()
	errs := ft.killed(OpJoin)
	ft.mu.Unlock()
	err := ft.inner.Join(ctx, spec)
	if len(errs) > 0 {
		return errors.Join(append(errs, err)...)
	}
	return err
}

// Attach implements dist.Attacher. Like Join, the healthy pool still
// attaches while a kill fault reports its worker dead; whether that
// worker bound its runs first is lost with its session.
func (ft *FaultTransport) Attach(ctx context.Context, atts []dist.Attachment) ([][]wire.Attach, error) {
	at, ok := ft.inner.(dist.Attacher)
	if !ok {
		return nil, fmt.Errorf("disttest: fault transport wraps %T, which keeps no resident runs", ft.inner)
	}
	ft.mu.Lock()
	errs := ft.killed(OpAttach)
	ft.mu.Unlock()
	replies, err := at.Attach(ctx, atts)
	return replies, errors.Join(append(errs, err)...)
}

// Gather implements Transport. A kill fault loses the whole gather —
// the coordinator cannot use a stream a dead worker never finished —
// so the caller heals and gathers again.
func (ft *FaultTransport) Gather(ctx context.Context, view string) ([]*exchange.Buffer, error) {
	ft.mu.Lock()
	errs := ft.killed(OpGather)
	ft.mu.Unlock()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return ft.inner.Gather(ctx, view)
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

// JoinWorker implements Replaceable; replay traffic is not subject to
// the fault schedule but still fails against a dead worker.
func (ft *FaultTransport) JoinWorker(ctx context.Context, w int, spec dist.JoinSpec) error {
	if err := ft.checkDead(w); err != nil {
		return err
	}
	rt, err := ft.replaceable()
	if err != nil {
		return err
	}
	return rt.JoinWorker(ctx, w, spec)
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

// Deliveries during replay go through Deliver; a replayed delivery
// addresses one (revived) worker only and must bypass the schedule
// counters, which Deliver cannot distinguish. Instead of a side
// channel, the schedule simply never fires twice (faults are
// one-shot), so replay traffic only fails when the worker is dead —
// the semantics recovery expects.
var _ dist.Replaceable = (*FaultTransport)(nil)
