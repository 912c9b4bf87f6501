package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/exchange"
	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Loopback is the in-process Transport: p worker states in this
// process's memory, deliveries as pointer hand-offs with no
// serialization, local joins as one goroutine per worker. It is what
// Open uses when no transport is given, and the reference
// implementation the TCP transport is differentially tested against.
type Loopback struct {
	ws []*workerStore
	// mu guards the recovery bookkeeping (worker replacement, epoch)
	// and the trace header; the data path goes through the per-store
	// locks.
	mu       sync.Mutex
	epoch    uint32
	traceHdr wire.TraceHeader
	traced   bool
}

// NewLoopback returns an in-process pool of p workers with empty
// stores.
func NewLoopback(p int) *Loopback {
	return NewLoopbackOn(p, nil)
}

// NewLoopbackOn is NewLoopback with the workers keeping retained runs
// in rs, like sessions on one pool of worker processes (nil: nothing).
func NewLoopbackOn(p int, rs *ResidentStore) *Loopback {
	l := &Loopback{ws: make([]*workerStore, p)}
	for i := range l.ws {
		l.ws[i] = newWorkerStore(residentHome{rs, i, p})
	}
	return l
}

// Workers implements Transport.
func (l *Loopback) Workers() int { return len(l.ws) }

// Run implements Transport: the steps act on the stores in script
// order. Deliveries land immediately (a barrier only publishes the
// round's retained runs), a join evaluates on every worker concurrently
// and keeps the result as a sealed run under the view name.
func (l *Loopback) Run(ctx context.Context, ops []Op) (Reply, error) {
	return l.run(ctx, ops, -1)
}

// run executes the script on the pool, or — the replay of a replaced
// worker — on worker only alone when that is not negative.
func (l *Loopback) run(ctx context.Context, ops []Op, only int) (Reply, error) {
	var reply Reply
	if err := ctx.Err(); err != nil {
		return reply, err
	}
	ws := l.ws
	if only >= 0 {
		ws = l.ws[only : only+1]
	}
	// takes reports whether a delivery addressed to worker to is for ws.
	takes := func(to int) (bool, error) {
		if to < 0 || to >= len(l.ws) {
			return false, fmt.Errorf("dist: loopback delivery to worker %d out of range [0,%d)", to, len(l.ws))
		}
		return only < 0 || to == only, nil
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpDeliver:
			for _, d := range op.Deliveries {
				if ok, err := takes(d.To); err != nil {
					return reply, err
				} else if !ok {
					continue
				}
				if err := l.ws[d.To].receive(d); err != nil {
					return reply, err
				}
			}
		case OpDelta:
			for _, d := range op.Deltas {
				if ok, err := takes(d.To); err != nil {
					return reply, err
				} else if !ok {
					continue
				}
				if err := l.ws[d.To].applyDelta(d.Store, d.View, d.Del, d.Buf); err != nil {
					return reply, err
				}
			}
		case OpBarrier:
			for _, w := range ws {
				w.publish()
			}
		case OpJoin:
			err = joinAll(ws, op.Join)
		case OpAttach:
			reply.Attached = make([][]wire.Attach, len(l.ws))
			for _, w := range ws {
				for _, a := range op.Attach {
					r, err := w.attach(a.Key, a.Store, a.Tuples[w.home.slot])
					if err != nil {
						return reply, err
					}
					reply.Attached[w.home.slot] = append(reply.Attached[w.home.slot], r)
				}
			}
		case OpGather:
			for _, w := range ws {
				reply.Runs = append(reply.Runs, w.runs(op.View)...)
			}
		case OpTrace:
			// The in-process analogue of announcing the header to every
			// worker; tests read it back through LastTrace.
			l.mu.Lock()
			l.traceHdr, l.traced = op.Trace, true
			l.mu.Unlock()
		}
		if err != nil {
			return reply, err
		}
	}
	return reply, ctx.Err()
}

// joinAll evaluates spec on every given worker concurrently.
func joinAll(ws []*workerStore, spec JoinSpec) error {
	q, strategy, err := parseJoinSpec(spec, query.Parse)
	if err != nil {
		return err
	}
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *workerStore) {
			defer wg.Done()
			errs[i] = w.join(q, spec.Bindings, spec.View, strategy)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close implements Transport.
func (l *Loopback) Close() error { return nil }

// ReplaceWorker implements Replaceable: the worker's store is swapped
// for an empty one, the in-process equivalent of promoting a fresh
// worker process.
func (l *Loopback) ReplaceWorker(ctx context.Context, w int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w < 0 || w >= len(l.ws) {
		return fmt.Errorf("dist: loopback replace worker %d out of range [0,%d)", w, len(l.ws))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ws[w] = newWorkerStore(l.ws[w].home)
	return nil
}

// RunOn implements Replaceable: the script on worker w only.
func (l *Loopback) RunOn(ctx context.Context, w int, ops []Op) error {
	if w < 0 || w >= len(l.ws) {
		return fmt.Errorf("dist: loopback run on worker %d out of range [0,%d)", w, len(l.ws))
	}
	_, err := l.run(ctx, ops, w)
	return err
}

// Ping implements Replaceable; an in-process worker is always live.
func (l *Loopback) Ping(ctx context.Context, w int, seq uint32) error {
	if w < 0 || w >= len(l.ws) {
		return fmt.Errorf("dist: loopback ping worker %d out of range [0,%d)", w, len(l.ws))
	}
	return ctx.Err()
}

// Announce implements Replaceable by recording the epoch; tests read
// it back through Epoch.
func (l *Loopback) Announce(ctx context.Context, epoch uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.epoch {
		return fmt.Errorf("dist: loopback stale epoch %d announced, pool at %d", epoch, l.epoch)
	}
	l.epoch = epoch
	return nil
}

// LastTrace returns the last announced trace header and whether any
// was announced.
func (l *Loopback) LastTrace() (wire.TraceHeader, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.traceHdr, l.traced
}

// Epoch returns the last announced recovery epoch.
func (l *Loopback) Epoch() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// parseJoinSpec validates the pieces of a JoinSpec shared by the
// loopback transport and the remote worker session; parse is query.Parse
// or a session's memo of it.
func parseJoinSpec(spec JoinSpec, parse func(string) (*query.Query, error)) (*query.Query, localjoin.Strategy, error) {
	q, err := parse(spec.Query)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: join query: %w", err)
	}
	strategy := localjoin.Strategy(spec.Strategy)
	switch strategy {
	case localjoin.Default, localjoin.HashJoin, localjoin.Backtracking, localjoin.WCOJ:
	default:
		return nil, 0, fmt.Errorf("dist: unknown join strategy %d", spec.Strategy)
	}
	if spec.View == "" {
		return nil, 0, fmt.Errorf("dist: join with empty view name")
	}
	return q, strategy, nil
}

// workerStore is one worker's state: received runs grouped by store
// name. It is the one worker store, shared between the loopback
// transport and the remote worker session.
type workerStore struct {
	mu    sync.Mutex
	store map[string]*exchange.Column
	// dead holds per-store tombstones: tuples retracted by delta
	// maintenance. Runs are immutable once sealed, so a retraction
	// marks the tuple dead instead of rewriting runs; reads filter
	// through the set, and a later re-append clears the mark.
	dead map[string]*relation.TupleSet
	// home is where the worker keeps runs beyond the session; retained
	// holds the open round's flagged runs until its barrier.
	home     residentHome
	retained map[string][]*exchange.Buffer
}

func newWorkerStore(home residentHome) *workerStore {
	return &workerStore{store: make(map[string]*exchange.Column), home: home}
}

// add appends a sealed run under the store name. A store is read as one
// relation — its runs merged, filtered, joined together — so it holds
// one arity, and a run of another is refused: what names a store comes
// from the peer.
func (w *workerStore) add(rel string, run *exchange.Buffer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.addLocked(rel, run)
}

// addLocked is add with w.mu held.
func (w *workerStore) addLocked(rel string, run *exchange.Buffer) error {
	col := w.store[rel]
	if col == nil {
		col = &exchange.Column{}
		w.store[rel] = col
	}
	if held := col.Runs(); len(held) > 0 && held[0].Arity() != run.Arity() {
		return fmt.Errorf("dist: arity-%d run for store %q, which holds arity %d", run.Arity(), rel, held[0].Arity())
	}
	col.Add(run)
	return nil
}

// applyDelta ingests one delta run: a retraction tombstones every
// tuple out of store; an extension clears any tombstones the tuples
// carry and appends the run under store — and, when view is non-empty,
// under view as well, making the run readable as a Δ-relation.
func (w *workerStore) applyDelta(store, view string, del bool, run *exchange.Buffer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if del {
		set := w.dead[store]
		if set == nil {
			set = relation.NewTupleSet(run.Arity(), run.Len())
			if w.dead == nil {
				w.dead = make(map[string]*relation.TupleSet)
			}
			w.dead[store] = set
		}
		for _, t := range run.AppendTuples(nil) {
			set.Add(t)
		}
		return nil
	}
	if set := w.dead[store]; set != nil && set.Len() > 0 {
		for _, t := range run.AppendTuples(nil) {
			set.Remove(t)
		}
	}
	if err := w.addLocked(store, run); err != nil || view == "" {
		return err
	}
	return w.addLocked(view, run)
}

// liveDead returns rel's tombstone set when it is non-empty, with
// w.mu held.
func (w *workerStore) liveDead(rel string) *relation.TupleSet {
	set := w.dead[rel]
	if set == nil || set.Len() == 0 {
		return nil
	}
	return set
}

// runs returns the sealed runs stored under rel. When tombstones are
// live for the store, the runs are rematerialized as one filtered
// sealed run so gathers never leak retracted tuples.
func (w *workerStore) runs(rel string) []*exchange.Buffer {
	w.mu.Lock()
	defer w.mu.Unlock()
	col := w.store[rel]
	if col == nil {
		return nil
	}
	set := w.liveDead(rel)
	if set == nil {
		return col.Runs()
	}
	src := col.Runs()
	if len(src) == 0 {
		return nil
	}
	out := exchange.NewBuffer(src[0].Arity())
	for _, run := range src {
		for _, t := range run.AppendTuples(nil) {
			if !set.Contains(t) {
				out.Append(t)
			}
		}
	}
	out.Seal()
	if out.Len() == 0 {
		return nil
	}
	return []*exchange.Buffer{out}
}

// join evaluates q over the store (atom names mapped through
// bindings) and stores the result as one sealed run under view. Every
// atom is read as the sealed runs the store already holds — the local
// join works on their packed words directly — and the answer comes
// back as a sealed run, so no tuple is materialized here.
func (w *workerStore) join(q *query.Query, bindings map[string]string, view string, strategy localjoin.Strategy) error {
	runs := make(localjoin.Runs, len(q.Atoms))
	for _, a := range q.Atoms {
		src := a.Name
		if mapped, ok := bindings[a.Name]; ok {
			src = mapped
		}
		runs[a.Name] = w.runs(src)
	}
	out, err := localjoin.EvaluateRuns(q, runs, strategy)
	if err != nil || out == nil {
		return err
	}
	return w.add(view, out)
}
