// Package disttest is test scaffolding for code that runs on
// dist.Cluster: a Transport wrapper that meets every step of every
// script — an execution's rounds, a heal's epoch step and replay, and the
// reset that parks a session alike — with a deterministic, counter-keyed
// schedule of worker failures, stalls, lies, delays and duplicate
// deliveries, and records the steps it met, so that a net can enumerate
// them instead of naming them by hand (internal/dist/explore_test.go). It
// is imported by tests only.
package disttest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/relation"
)

// FaultKind is what happens when a fault fires.
type FaultKind uint8

// Fault behaviors. The first four are what a worker can do to any step
// and what the explorer puts at every one; the last two are what the
// network may do to a delivery without changing any result.
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
	// Stall has the worker take the step and never answer: the script
	// returns when its context is done and not before, and the worker is
	// dead until replaced. The context is the only clock in this package.
	Stall
	// Lie has the worker answer a gather with a well-formed run of
	// another arity, and a reset with an ack the coordinator refuses; on
	// any other step it does nothing.
	Lie
	// DelayToBarrier holds the worker's deliveries back until the next
	// barrier step, which injects them before synchronizing — legal
	// under BSP semantics (ingestion is only promised at the barrier)
	// and must not change any result.
	DelayToBarrier
	// DuplicateDelivery delivers the worker's runs twice. Exactly-once
	// is not part of the transport contract — sorted-run merging dedups,
	// tombstones are idempotent — so answers must not change.
	DuplicateDelivery
)

var kindNames = [...]string{"kill-before", "kill-after", "stall", "lie", "delay-to-barrier", "duplicate-delivery"}

// String names the behavior.
func (k FaultKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is one scheduled failure: when worker Worker meets its N-th
// (0-indexed) step of kind Op — in a round script, an epoch step or its
// own replay — Kind happens. The schedule is purely counter-driven — no
// timers, no goroutine races — so a recovery test that uses it is
// deterministic by construction. A Fault is usually not spelled out but
// read off a recorded Site.
type Fault struct {
	Worker int
	Op     dist.OpKind
	N      int
	Kind   FaultKind
}

// Site is one step as a schedule met it: step Index of the execution's
// Script-th script (counted over all its sessions, heal-time scripts
// included), sent to worker Only alone when that is not negative.
type Site struct {
	Script, Index int
	Kind          dist.OpKind
	Only          int
	// N[w] is which of worker w's steps of this kind it was — what a Fault
	// names — or -1 for a worker the step did not reach: not Only, or dead.
	// For[w] is false where a deliver step carried nothing for w.
	N   []int
	For []bool
	// Absorb is whether a delivery relays a fixpoint's derivations: a
	// delivery step's kind does not say its mode.
	Absorb bool
}

// On is the fault that has kind happen to worker w at this step.
func (s Site) On(w int, kind FaultKind) Fault {
	return Fault{Worker: w, Op: s.Kind, N: s.N[w], Kind: kind}
}

// Trace is the steps of one execution in the order they were met.
type Trace []Site

// At is the point a hand-kept table used to spell out, looked up in a
// recorded execution: kind happening to worker w at the n-th step of kind
// op (counted from the end when n is negative), as a one-fault schedule —
// nil when the execution has no such step.
func (tr Trace) At(op dist.OpKind, n, w int, kind FaultKind) []Fault {
	var sites Trace
	for _, s := range tr {
		if s.Kind == op {
			sites = append(sites, s)
		}
	}
	if n < 0 {
		n += len(sites)
	}
	if n < 0 || n >= len(sites) {
		return nil
	}
	return []Fault{sites[n].On(w, kind)}
}

var (
	errFaultKilled  = errors.New("fault injected: connection killed")
	errFaultDead    = errors.New("fault injected: worker is dead")
	errFaultStalled = errors.New("fault injected: worker took the step and never answered")
	errFaultLied    = errors.New("fault injected: worker acked the reset with a tag it was not sent")
)

// Schedule is a fault schedule, the per-(worker, step kind) counters it
// is keyed on and the trace of what met it, shared by every session one
// execution opens: a program that dials per rule is still one sequence of
// scripts.
type Schedule struct {
	mu sync.Mutex
	// faults is keyed by worker, step kind and occurrence. A counter passes
	// each value once, so every fault is one-shot; kills counts those that
	// took a worker down.
	faults  map[[3]int]FaultKind
	kills   int
	counts  map[[2]int]int // by worker and step kind
	scripts int
	trace   Trace
}

// NewSchedule returns a schedule of the given faults; with none it only
// records.
func NewSchedule(faults ...Fault) *Schedule {
	s := &Schedule{faults: make(map[[3]int]FaultKind), counts: make(map[[2]int]int)}
	for _, f := range faults {
		s.faults[[3]int{f.Worker, int(f.Op), f.N}] = f.Kind
	}
	return s
}

// Wrap puts one session behind the schedule.
func (s *Schedule) Wrap(inner dist.Transport) *FaultTransport {
	return &FaultTransport{Transport: inner, s: s, dead: make(map[int]bool)}
}

// Kills returns how many kill and stall faults have fired.
func (s *Schedule) Kills() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kills
}

// Trace returns every step met so far.
func (s *Schedule) Trace() Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(Trace(nil), s.trace...)
}

// FaultTransport is one session behind a Schedule. Run and RunOn walk
// their script and hand the inner transport one step at a time; each step
// advances the counter of every worker it reaches, and when a counter
// hits a scheduled Fault the transport injects it — reporting a
// *WorkerError exactly like the TCP transport would — and, for kills and
// stalls, keeps the worker dead (every touch fails) until ReplaceWorker
// revives it. Like a dead TCP connection, a dead worker does not stop the
// script: the healthy pool runs the rest of it before the failures are
// reported.
type FaultTransport struct {
	dist.Transport // the session behind the schedule
	s              *Schedule
	// Guarded by s.mu: dead marks killed and stalled workers awaiting
	// replacement, held are DelayToBarrier deliveries waiting for the next
	// barrier.
	dead map[int]bool
	held []dist.Op
}

// NewFaultTransport wraps one session with a schedule of its own.
func NewFaultTransport(inner dist.Transport, faults ...Fault) *FaultTransport {
	return NewSchedule(faults...).Wrap(inner)
}

// Kills returns how many kill and stall faults the schedule has fired.
func (ft *FaultTransport) Kills() int { return ft.s.Kills() }

// Run implements Transport: every step meets the schedule as it would
// have sent alone, and what passes goes to the inner transport.
func (ft *FaultTransport) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	return ft.run(ctx, ops, -1)
}

// RunOn implements Replaceable: a replay meets the schedule like any
// other script, on its one worker's counters.
func (ft *FaultTransport) RunOn(ctx context.Context, w int, ops []dist.Op) error {
	_, err := ft.run(ctx, ops, w)
	return err
}

// ReplaceWorker implements Replaceable: the inner transport installs a
// fresh session and the worker is revived (its dead mark cleared).
func (ft *FaultTransport) ReplaceWorker(ctx context.Context, w int) error {
	rt, ok := ft.Transport.(dist.Replaceable)
	if !ok {
		return fmt.Errorf("disttest: fault transport wraps %T, which does not support recovery", ft.Transport)
	}
	if err := rt.ReplaceWorker(ctx, w); err != nil {
		return err
	}
	ft.s.mu.Lock()
	defer ft.s.mu.Unlock()
	delete(ft.dead, w)
	return nil
}

// run is Run, or RunOn when only is not negative.
func (ft *FaultTransport) run(ctx context.Context, ops []dist.Op, only int) (reply dist.Reply, err error) {
	var errs []error
	stalled := false
	for j, op := range ops {
		pass, liar, stall, failed := ft.meet(Site{Index: j, Kind: op.Kind, Only: only}, op)
		errs, stalled = append(errs, failed...), stalled || stall
		if len(pass) == 0 {
			continue
		}
		var r dist.Reply
		if only < 0 {
			r, err = ft.Transport.Run(ctx, pass)
		} else {
			err = ft.Transport.(dist.Replaceable).RunOn(ctx, only, pass)
		}
		if err != nil {
			errs = append(errs, err)
		}
		if liar >= 0 {
			lie(&r, liar)
		}
		if r.Runs != nil || r.Rows != nil {
			reply.Runs, reply.From, reply.Rows = r.Runs, r.From, r.Rows
		}
		if r.Pieces != nil {
			reply.Pieces = r.Pieces
		}
		if r.Attached != nil {
			reply.Attached = r.Attached
		}
	}
	if stalled {
		<-ctx.Done()
	}
	return reply, errors.Join(errs...)
}

// lie swaps the run worker w answered a gather with — or adds one, if it
// held none — for a run one column wider than the reply's first.
func lie(r *dist.Reply, w int) {
	arity := 2
	if len(r.Runs) > 0 {
		arity = r.Runs[0].Arity() + 1
	}
	fake := relation.NewRun(arity)
	fake.Append(make(relation.Tuple, arity))
	fake.Seal()
	if i := slices.Index(r.From, w); i >= 0 {
		r.Runs[i] = fake
	} else {
		r.Runs, r.From = append(r.Runs, fake), append(r.From, w)
	}
}

// meet applies the schedule to one step: every live worker the step
// reaches advances its counter and meets the fault scheduled there, if
// any. It returns what the inner transport is to run in the step's place,
// the worker to lie for (or -1), whether a worker stalled, and the
// failures the coordinator sees.
func (ft *FaultTransport) meet(at Site, op dist.Op) (pass []dist.Op, liar int, stalled bool, errs []error) {
	s := ft.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if at.Index == 0 {
		s.scripts++
	}
	at.Script = s.scripts - 1
	p := ft.Workers()
	scatter := op.Kind == dist.OpDeliver
	// copies[w] is how often worker w's deliveries pass now, late[w] at
	// the next barrier; a dead worker only fails a scatter that has
	// something for it.
	copies, late, mine := map[int]int{}, map[int]int{}, map[int]bool{}
	for _, d := range op.Deliveries {
		mine[d.To] = true
	}
	lost := false
	at.N, at.For, at.Absorb, liar = make([]int, p), make([]bool, p), op.Absorb, -1
	for w := range at.N {
		at.N[w], at.For[w] = -1, mine[w] || !scatter
		switch {
		case at.Only >= 0 && w != at.Only:
			continue
		case ft.dead[w]:
			if at.For[w] {
				errs, lost = append(errs, &dist.WorkerError{Worker: w, Err: errFaultDead}), true
			}
			continue
		}
		key := [2]int{w, int(op.Kind)}
		at.N[w] = s.counts[key]
		s.counts[key]++
		copies[w] = 1
		kind, fires := s.faults[[3]int{w, int(op.Kind), at.N[w]}]
		if !fires {
			continue
		}
		switch kind {
		case KillBefore, KillAfter, Stall:
			cause := errFaultKilled
			if kind == KillBefore {
				copies[w] = 0 // the worker's slice never arrives
			} else if kind == Stall {
				cause, stalled = errFaultStalled, true
			}
			ft.dead[w], lost = true, true
			s.kills++
			errs = append(errs, &dist.WorkerError{Worker: w, Err: cause})
		case Lie:
			switch op.Kind {
			case dist.OpGather:
				liar = w
			case dist.OpReset:
				errs = append(errs, &dist.WorkerError{Worker: w, Err: errFaultLied})
			}
		case DelayToBarrier:
			copies[w], late[w] = 0, 1
		case DuplicateDelivery:
			copies[w] = 2
		}
	}
	s.trace = append(s.trace, at)
	switch {
	case scatter:
		if held := slice(op, late); len(held.Deliveries) > 0 {
			ft.held = append(ft.held, held)
		}
		if op = slice(op, copies); len(op.Deliveries) == 0 {
			return nil, liar, stalled, errs
		}
	case op.Kind == dist.OpBarrier:
		// Held deliveries are injected first: the BSP contract only
		// promises ingestion at the barrier.
		pass, ft.held = ft.held, nil
	case (op.Kind == dist.OpGather || op.Kind == dist.OpRoute) && lost:
		// The coordinator cannot use a stream a lost worker never finished,
		// so the whole gather or route is lost: the caller heals and sends
		// it again.
		return nil, liar, stalled, errs
	}
	// Any other step the healthy pool still runs while a fault reports its
	// worker lost; what that worker did first is lost with its session, and
	// replay redoes it.
	return append(pass, op), liar, stalled, errs
}

// slice returns op with every delivery of worker w copies[w] times.
func slice(op dist.Op, copies map[int]int) dist.Op {
	ds := op.Deliveries
	op.Deliveries = nil
	for _, d := range ds {
		for i := 0; i < copies[d.To]; i++ {
			op.Deliveries = append(op.Deliveries, d)
		}
	}
	return op
}
