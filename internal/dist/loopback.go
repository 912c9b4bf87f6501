package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
				for _, run := range w.runs(op.View) {
					reply.Runs, reply.From = append(reply.Runs, run), append(reply.From, w.home.slot)
				}
			}
		case OpEpoch:
			// The pool's sessions as one: tests read it back through Epoch.
			// An in-process worker is always live, so an OpPing does nothing.
			l.mu.Lock()
			if uint32(op.Round) < l.epoch {
				err = fmt.Errorf("dist: loopback stale epoch %d announced, pool at %d", op.Round, l.epoch)
			} else {
				l.epoch = uint32(op.Round)
			}
			l.mu.Unlock()
		case OpTrace:
			// The in-process analogue of announcing the header to every
			// worker; tests read it back through LastTrace.
			l.mu.Lock()
			l.traceHdr, l.traced = op.Trace, true
			l.mu.Unlock()
		case OpReset:
			// What a worker session does at a reset, to every store at once:
			// fresh stores on the same homes, epoch 0, no span context.
			l.mu.Lock()
			for _, w := range ws {
				l.ws[w.home.slot] = newWorkerStore(w.home)
			}
			l.epoch, l.traceHdr, l.traced = 0, wire.TraceHeader{}, false
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
	q, err := parseJoinSpec(spec, query.Parse)
	if err != nil {
		return err
	}
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *workerStore) {
			defer wg.Done()
			errs[i] = w.join(q, spec.Bindings, spec.View)
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
func parseJoinSpec(spec JoinSpec, parse func(string) (*query.Query, error)) (*query.Query, error) {
	q, err := parse(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("dist: join query: %w", err)
	}
	if spec.View == "" {
		return nil, fmt.Errorf("dist: join with empty view name")
	}
	return q, nil
}

// workerStore is one worker's state: received runs grouped by store
// name, in arrival order. It is the one worker store, shared between the
// loopback transport and the remote worker session, and everything in it
// is a sealed run: no tuple exists on a worker between wire decode and
// wire encode.
type workerStore struct {
	mu    sync.Mutex
	store map[string][]*relation.Run
	// dead holds per-store tombstones — the tuples retracted by delta
	// maintenance — as one sealed run. Runs are immutable once sealed, so
	// a retraction merges into the tombstones instead of rewriting runs, a
	// later re-append subtracts from them, and a read subtracts them from
	// the store. Nil until the first retraction.
	dead map[string]*relation.Run
	// home is where the worker keeps runs beyond the session; retained
	// holds the open round's flagged runs until its barrier.
	home     residentHome
	retained map[string]*retainedRuns
}

func newWorkerStore(home residentHome) *workerStore {
	return &workerStore{store: make(map[string][]*relation.Run), home: home}
}

// fits reports, with w.mu held, whether run may land under the store
// name. A store is read as one relation — its runs merged, its
// tombstones subtracted, the result joined — so it holds one arity, as
// runs and as tombstones, and a run of another is refused: what names a
// store comes from the peer.
func (w *workerStore) fits(rel string, run *relation.Run) error {
	held := w.dead[rel]
	if runs := w.store[rel]; len(runs) > 0 {
		held = runs[0]
	}
	if held != nil && held.Arity() != run.Arity() {
		return fmt.Errorf("dist: arity-%d run for store %q, which holds arity %d", run.Arity(), rel, held.Arity())
	}
	return nil
}

// add appends a run under the store name, sealing it if the sender did
// not.
func (w *workerStore) add(rel string, run *relation.Run) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.addLocked(rel, run)
}

// addLocked is add with w.mu held.
func (w *workerStore) addLocked(rel string, run *relation.Run) error {
	if err := w.fits(rel, run); err != nil {
		return err
	}
	run.Seal()
	w.store[rel] = append(w.store[rel], run)
	return nil
}

// applyDelta ingests one delta run: a retraction merges into store's
// tombstones; an extension is subtracted from them and appended under
// store — and, when view is non-empty, under view as well, making the
// run readable as a Δ-relation. A run that does not fit every name it
// would land under is refused before anything is applied.
func (w *workerStore) applyDelta(store, view string, del bool, run *relation.Run) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.fits(store, run); err != nil {
		return err
	}
	run.Seal()
	if del {
		if w.dead == nil {
			w.dead = make(map[string]*relation.Run)
		}
		w.dead[store] = relation.Merge([]*relation.Run{w.dead[store], run})
		return nil
	}
	if view != "" {
		if err := w.fits(view, run); err != nil {
			return err
		}
		w.store[view] = append(w.store[view], run)
	}
	if dead := w.dead[store]; dead.Len() > 0 {
		w.dead[store] = relation.Diff(dead, run)
	}
	w.store[store] = append(w.store[store], run)
	return nil
}

// runs returns what is stored under rel as at most one sealed run. A
// store that holds several is merged here, once: the merged run takes
// its pieces' place, so the next read — and whatever index the join
// hangs on the run — finds it standing; a later delivery or delta
// appends a piece beside it and the next read merges again. While
// tombstones are live for the store the run returned is the store less
// the tombstones, so gathers and joins never see a retracted tuple.
func (w *workerStore) runs(rel string) []*relation.Run {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := w.store[rel]
	if len(held) > 1 {
		merged := relation.Merge(held)
		if merged == nil {
			return nil // only empty pieces, which stay: they say the store's arity
		}
		held = []*relation.Run{merged}
		w.store[rel] = held
	}
	dead := w.dead[rel]
	if dead.Len() == 0 || len(held) == 0 {
		return held
	}
	live := relation.Diff(held[0], dead)
	if live.Len() == 0 {
		return nil
	}
	return []*relation.Run{live}
}

// join evaluates q over the store (atom names mapped through
// bindings) and stores the result as one sealed run under view. Every
// atom is read as the sealed runs the store already holds — the local
// join works on their packed words directly — and the answer comes
// back as a sealed run.
func (w *workerStore) join(q *query.Query, bindings map[string]string, view string) error {
	runs := make(localjoin.Runs, len(q.Atoms))
	for _, a := range q.Atoms {
		src := a.Name
		if mapped, ok := bindings[a.Name]; ok {
			src = mapped
		}
		runs[a.Name] = w.runs(src)
	}
	out, err := localjoin.EvaluateRuns(q, runs)
	if err != nil || out == nil {
		return err
	}
	return w.add(view, out)
}
