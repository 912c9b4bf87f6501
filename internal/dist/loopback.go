package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Loopback is the in-process link to the pool: p worker sessions in this
// process's memory — the same session, and so the same worker, a TCP
// session reaches in an mpcworker process, not a second implementation
// of it. Run hands each session its slice of every step as the frames
// TCP would send, never encoded: a run crosses as a pointer. Local joins
// run on every worker concurrently, every other step worker by worker.
// It is what Open uses when no transport is given. What an execution's
// answers are checked against is core.GroundTruth.
//
// One difference from TCP is kept on purpose: a step a worker refuses is
// the script's unattributed error and the session lives on, where over
// TCP the worker's Error frame ends the session.
type Loopback struct {
	ss []session
}

// NewLoopback returns an in-process pool of p workers with empty
// stores.
func NewLoopback(p int) *Loopback {
	return NewLoopbackOn(p, nil)
}

// NewLoopbackOn is NewLoopback with the workers keeping retained runs
// in rs, like sessions on one pool of worker processes (nil: nothing).
func NewLoopbackOn(p int, rs *ResidentStore) *Loopback {
	l := &Loopback{ss: make([]session, p)}
	for i := range l.ss {
		l.ss[i] = newSession(residentHome{rs, i, p})
	}
	return l
}

// Workers implements Transport.
func (l *Loopback) Workers() int { return len(l.ss) }

// Run implements Transport: the steps act on the sessions in script
// order, each step on every worker before the next.
func (l *Loopback) Run(ctx context.Context, ops []Op) (Reply, error) {
	return l.run(ctx, ops, l.ss)
}

// run executes the script on the sessions ss — the pool, or a replaced
// worker alone for its replay.
func (l *Loopback) run(ctx context.Context, ops []Op, ss []session) (Reply, error) {
	var reply Reply
	if err := ctx.Err(); err != nil {
		return reply, err
	}
	if err := checkDestinations(ops, len(l.ss)); err != nil {
		return reply, err
	}
	// frames is each worker's slice of the current step in turn, filled in
	// place.
	var frames []wire.Frame
	for i := range ops {
		if ops[i].Kind == OpJoin && len(ss) > 1 {
			frames = ops[i].frames(frames[:0], 0)
			if err := joinConcurrently(ss, &frames[0]); err != nil {
				return reply, err
			}
			continue
		}
		for j := range ss {
			s := &ss[j]
			frames = ops[i].frames(frames[:0], int(s.id))
			for k := range frames {
				answer, runs, err := s.handle(&frames[k])
				if err != nil {
					return reply, err
				}
				reply.add(len(l.ss), int(s.id), &answer, runs)
			}
		}
	}
	return reply, ctx.Err()
}

// joinConcurrently has every session handle the one join frame f, each on
// a goroutine of its own, and joins the refusals.
func joinConcurrently(ss []session, f *wire.Frame) error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for j := range ss {
		wg.Add(1)
		go func(s *session, err *error) {
			defer wg.Done()
			_, _, *err = s.handle(f)
		}(&ss[j], &errs[j])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// add records worker w's answer to one frame in a pool of p: an attach
// answer behind the worker's earlier ones, gathered runs behind every run
// of the workers up to w — so a worker's runs stay together however many
// gathers a script holds, as over TCP — and the rows the gathered view
// holds onto the worker's count. Acks and pongs carry only an echo.
func (r *Reply) add(p, w int, answer *wire.Frame, runs []*relation.Run) {
	switch answer.Type {
	case wire.TypeAttach:
		if r.Attached == nil {
			r.Attached = make([][]wire.Attach, p)
		}
		r.Attached[w] = append(r.Attached[w], answer.Attach)
	case wire.TypeDone:
		if r.Rows == nil {
			r.Rows = make([]int, p)
		}
		r.Rows[w] += int(answer.Rows)
		at := len(r.From)
		for at > 0 && r.From[at-1] > w {
			at--
		}
		for _, run := range runs {
			r.Runs, r.From = slices.Insert(r.Runs, at, run), slices.Insert(r.From, at, w)
			at++
		}
	}
}

// Close implements Transport.
func (l *Loopback) Close() error { return nil }

// ReplaceWorker implements Replaceable: the worker's session is swapped
// for a fresh one, the in-process equivalent of promoting a fresh worker
// process.
func (l *Loopback) ReplaceWorker(ctx context.Context, w int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w < 0 || w >= len(l.ss) {
		return fmt.Errorf("dist: loopback replace worker %d out of range [0,%d)", w, len(l.ss))
	}
	l.ss[w] = newSession(l.ss[w].store.home)
	return nil
}

// RunOn implements Replaceable: the script on worker w only.
func (l *Loopback) RunOn(ctx context.Context, w int, ops []Op) error {
	if w < 0 || w >= len(l.ss) {
		return fmt.Errorf("dist: loopback run on worker %d out of range [0,%d)", w, len(l.ss))
	}
	_, err := l.run(ctx, ops, l.ss[w:w+1])
	return err
}

// Epoch returns the highest recovery epoch a worker's session was last
// announced.
func (l *Loopback) Epoch() uint32 {
	var epoch uint32
	for i := range l.ss {
		epoch = max(epoch, l.ss[i].epoch)
	}
	return epoch
}

// workerStore is one worker session's state: received runs grouped by
// store name, in arrival order. Everything in it is a sealed run — no
// tuple exists on a worker between wire decode and wire encode — and only
// its session touches it, one frame at a time.
type workerStore struct {
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

// fits reports whether run may land under the store name. A store is
// read as one relation — its runs merged, its tombstones subtracted, the
// result joined — so it holds one arity, as runs and as tombstones, and a
// run of another is refused: what names a store comes from the peer.
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

// join evaluates q over the store (an atom named by a binding's first
// name reads the store its second names, the last such binding winning)
// and stores the result as one sealed run under view. Every atom is read
// as the sealed runs the store already holds — the local join works on
// their packed words directly — and the answer comes back as a sealed
// run.
func (w *workerStore) join(q *query.Query, bindings [][2]string, view string) error {
	runs := make(localjoin.Runs, len(q.Atoms))
	for _, a := range q.Atoms {
		src := a.Name
		for _, b := range bindings {
			if b[0] == a.Name {
				src = b[1]
			}
		}
		runs[a.Name] = w.runs(src)
	}
	out, err := localjoin.EvaluateRuns(q, runs)
	if err != nil || out == nil {
		return err
	}
	return w.add(view, out)
}
