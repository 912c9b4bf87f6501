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

// Deliver implements Transport: runs land in the destination stores
// immediately (destination range was validated by the partitioner).
func (l *Loopback) Deliver(ctx context.Context, round int, ds []exchange.Delivery) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, d := range ds {
		if d.To < 0 || d.To >= len(l.ws) {
			return fmt.Errorf("dist: loopback delivery to worker %d out of range [0,%d)", d.To, len(l.ws))
		}
		if err := l.ws[d.To].receive(d); err != nil {
			return err
		}
	}
	return nil
}

// Attach implements Attacher.
func (l *Loopback) Attach(ctx context.Context, atts []Attachment) ([][]wire.Attach, error) {
	replies := make([][]wire.Attach, len(l.ws))
	for w, ws := range l.ws {
		for _, a := range atts {
			reply, err := ws.attach(a.Key, a.Store, a.Tuples[w])
			if err != nil {
				return nil, err
			}
			replies[w] = append(replies[w], reply)
		}
	}
	return replies, ctx.Err()
}

// ApplyDelta implements Transport: delta runs land in the destination
// stores immediately, retractions as tombstones, extensions as
// appended runs (also registered under their Δ view).
func (l *Loopback) ApplyDelta(ctx context.Context, round int, ds []DeltaDelivery) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, d := range ds {
		if d.To < 0 || d.To >= len(l.ws) {
			return fmt.Errorf("dist: loopback delta to worker %d out of range [0,%d)", d.To, len(l.ws))
		}
		if err := l.ws[d.To].applyDelta(d.Store, d.View, d.Del, d.Buf); err != nil {
			return err
		}
	}
	return nil
}

// Barrier implements Transport; loopback deliveries are synchronous,
// so it only observes cancellation and publishes the round's retained
// runs.
func (l *Loopback) Barrier(ctx context.Context, round int) error {
	for _, w := range l.ws {
		w.publish()
	}
	return ctx.Err()
}

// Join implements Transport: every worker evaluates the query over
// its own store concurrently and keeps the result as a sealed run
// under the view name.
func (l *Loopback) Join(ctx context.Context, spec JoinSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q, strategy, err := parseJoinSpec(spec, query.Parse)
	if err != nil {
		return err
	}
	errs := make([]error, len(l.ws))
	var wg sync.WaitGroup
	for i, w := range l.ws {
		wg.Add(1)
		go func(i int, w *workerStore) {
			defer wg.Done()
			errs[i] = w.join(q, spec.Bindings, spec.View, strategy)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Gather implements Transport.
func (l *Loopback) Gather(ctx context.Context, view string) ([]*exchange.Buffer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var runs []*exchange.Buffer
	for _, w := range l.ws {
		runs = append(runs, w.runs(view)...)
	}
	return runs, nil
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

// JoinWorker implements Replaceable: the local evaluation on worker w
// only.
func (l *Loopback) JoinWorker(ctx context.Context, w int, spec JoinSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w < 0 || w >= len(l.ws) {
		return fmt.Errorf("dist: loopback join worker %d out of range [0,%d)", w, len(l.ws))
	}
	q, strategy, err := parseJoinSpec(spec, query.Parse)
	if err != nil {
		return err
	}
	return l.ws[w].join(q, spec.Bindings, spec.View, strategy)
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

// SendTrace implements traceTransport by recording the header — the
// in-process analogue of announcing it to every worker; tests read it
// back through LastTrace.
func (l *Loopback) SendTrace(ctx context.Context, h wire.TraceHeader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traceHdr = h
	l.traced = true
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
