package dist

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/exchange"
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
		if k := ops[i].Kind; (k == OpJoin || k == OpRoute) && len(ss) > 1 {
			frames = ops[i].frames(frames[:0], 0)
			answers, streams, err := concurrently(ss, &frames[0])
			if err != nil {
				return reply, err
			}
			for j := range ss {
				reply.add(len(l.ss), int(ss[j].id), frames[0].Type, &answers[j], streams[j])
			}
			continue
		}
		for j := range ss {
			s := &ss[j]
			frames = ops[i].frames(frames[:0], int(s.id))
			for k := range frames {
				answer, stream, err := s.handle(&frames[k])
				if err != nil {
					return reply, err
				}
				reply.add(len(l.ss), int(s.id), frames[k].Type, &answer, stream)
			}
		}
	}
	return reply, ctx.Err()
}

// concurrently has every session handle the one frame f — a join or a
// route, the steps that compute — each on a goroutine of its own, and
// returns their answers and streams in session order, and the refusals
// joined.
func concurrently(ss []session, f *wire.Frame) ([]wire.Frame, [][]wire.Frame, error) {
	answers, streams, errs := make([]wire.Frame, len(ss)), make([][]wire.Frame, len(ss)), make([]error, len(ss))
	var wg sync.WaitGroup
	for j := range ss {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			answers[j], streams[j], errs[j] = ss[j].handle(f)
		}(j)
	}
	wg.Wait()
	return answers, streams, errors.Join(errs...)
}

// add records worker w's answer to one frame of type req in a pool of p,
// and the frames it streamed ahead of it: an attach answer behind the worker's
// earlier ones; gathered runs behind every run of the workers up to w —
// so a worker's runs stay together however many gathers a script holds,
// as over TCP — and the rows the gathered view holds onto the worker's
// count; a route's pieces behind the pieces of the workers up to w. Acks
// and pongs carry only an echo.
func (r *Reply) add(p, w int, req wire.Type, answer *wire.Frame, stream []wire.Frame) {
	switch req {
	case wire.TypeAttach:
		if r.Attached == nil {
			r.Attached = make([][]wire.Attach, p)
		}
		r.Attached[w] = append(r.Attached[w], answer.Attach)
	case wire.TypeRoute:
		at := len(r.Pieces)
		for at > 0 && r.Pieces[at-1].From > w {
			at--
		}
		for i := range stream {
			pc := &stream[i].Piece
			r.Pieces = slices.Insert(r.Pieces, at, Piece{From: w, Target: int(pc.Target), To: int(pc.Dest), Buf: pc.Buf})
			at++
		}
	case wire.TypeGather:
		if r.Rows == nil {
			r.Rows = make([]int, p)
		}
		r.Rows[w] += int(answer.Rows)
		at := len(r.From)
		for at > 0 && r.From[at-1] > w {
			at--
		}
		for i := range stream {
			r.Runs, r.From = slices.Insert(r.Runs, at, stream[i].Data.Buf), slices.Insert(r.From, at, w)
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
	// absorbing holds, per store, the absorbed runs not yet settled: the
	// next read of any store keeps what the store lacks of them and
	// registers it under their view. filters holds the filter of each
	// store of one-word rows absorbed into.
	absorbing map[string]*absorbRuns
	filters   map[string]*wordFilter
}

// absorbRuns are the unsettled absorbed runs of one store, all for one
// Δ view.
type absorbRuns struct {
	view string
	runs []*relation.Run
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

// add appends a run the worker came by itself — a join's answer, a
// resident slice it attached — under the store name, sealing it if it is
// not.
func (w *workerStore) add(rel string, run *relation.Run) error {
	if err := w.fits(rel, run); err != nil {
		return err
	}
	w.settle()
	delete(w.filters, rel)
	run.Seal()
	w.store[rel] = append(w.store[rel], run)
	return nil
}

// receive ingests one delivered run as its frame says: appended under
// its store name — un-tombstoning its rows — and under its Δ view when it
// names one; retracted (Del) into the store's tombstones; or absorbed,
// waiting to be settled with the store's other absorbed runs. A run
// flagged to be retained is appended and noted to be published at the
// round's barrier. A run that does not fit every name it would land
// under is refused before anything is applied. This is the one way a
// run reaches a worker from its peer.
func (w *workerStore) receive(d *wire.Data) error {
	store, view, run := d.Rel, d.View, d.Buf
	if d.Retain != "" && (d.Del || d.Absorb) {
		return fmt.Errorf("dist: a run retained under a key is appended, not retracted or absorbed")
	}
	r := w.retained[d.Retain]
	if r != nil && r.runs[0].Arity() != run.Arity() {
		return fmt.Errorf("dist: arity-%d run to be retained under a key that holds arity %d", run.Arity(), r.runs[0].Arity())
	}
	if err := w.fits(store, run); err != nil {
		return err
	}
	if view != "" {
		if err := w.fits(view, run); err != nil {
			return err
		}
	}
	run.Seal()
	if d.Absorb {
		a := w.absorbing[store]
		if a != nil && a.view != view {
			w.settle()
			a = nil
		}
		if a == nil {
			if w.absorbing == nil {
				w.absorbing = make(map[string]*absorbRuns)
			}
			a = &absorbRuns{view: view}
			w.absorbing[store] = a
		}
		a.runs = append(a.runs, run)
		return nil
	}
	w.settle()
	delete(w.filters, store)
	if d.Del {
		if w.dead == nil {
			w.dead = make(map[string]*relation.Run)
		}
		w.dead[store] = relation.Merge([]*relation.Run{w.dead[store], run})
		return nil
	}
	w.extend(store, view, run)
	if d.Retain != "" && w.home.store != nil {
		if r == nil {
			if w.retained == nil {
				w.retained = make(map[string]*retainedRuns)
			}
			r = &retainedRuns{rel: store}
			w.retained[d.Retain] = r
		}
		r.runs = append(r.runs, run)
	}
	return nil
}

// extend appends a sealed run under store, un-tombstoning its rows, and
// under view when there is one.
func (w *workerStore) extend(store, view string, run *relation.Run) {
	if view != "" {
		w.store[view] = append(w.store[view], run)
	}
	if dead := w.dead[store]; dead.Len() > 0 {
		w.dead[store] = relation.Diff(dead, run)
	}
	w.store[store] = append(w.store[store], run)
}

// settle absorbs the waiting absorbed runs: per store, the rows of their
// runs the store does not hold extend it, as one more run, and are
// registered under the runs' view. What a store holds is what its
// routing sent it — the same for every worker a row reaches — so a row
// is new here exactly when it is new everywhere it is kept.
func (w *workerStore) settle() {
	absorbing := w.absorbing
	w.absorbing = nil
	for store, a := range absorbing {
		// A run from the peer is sorted, not necessarily free of repeats.
		in := a.runs[0]
		if len(a.runs) > 1 || in.Stride() > 1 || !increasing(in.Words()) {
			in = relation.Merge(a.runs)
		}
		if fresh := w.unheld(store, in); fresh.Len() > 0 {
			w.extend(store, a.view, fresh)
			if f := w.filters[store]; f != nil {
				f.addAll(fresh.Words())
			}
		}
	}
}

// unheld returns the rows of in that store does not hold. A store stays
// the runs it arrived as — a fixpoint that merged it every iteration
// would rewrite all of it every iteration — and, while its rows are one
// word each, a Bloom filter of its words answers for most rows: only
// those it may hold are looked up in the runs. Other stores, and stores
// with tombstones, are subtracted as one merged read.
func (w *workerStore) unheld(store string, in *relation.Run) *relation.Run {
	held := w.store[store]
	f := w.filters[store]
	if f == nil && w.dead[store].Len() == 0 && oneWord(held) {
		if len(held) > 1 {
			// The runs the store arrived as become one, so that from here
			// on each of its rows is in one run (gather).
			held = w.runs(store)
		}
		f = newWordFilter(held, 0)
		if w.filters == nil {
			w.filters = make(map[string]*wordFilter)
		}
		w.filters[store] = f
	}
	words := in.Words()
	if f == nil || in.Stride() > 1 || !oneWord(held) {
		delete(w.filters, store)
		if runs := w.runs(store); len(runs) > 0 {
			return relation.Diff(in, runs[0])
		}
		return in
	}
	if f.n+len(words) > f.limit {
		f = newWordFilter(held, len(words))
		w.filters[store] = f
	}
	var maybe []uint64
	for _, x := range words {
		if f.has(x) {
			maybe = append(maybe, x)
		}
	}
	if len(maybe) == 0 {
		return in
	}
	known, err := relation.NewRunFromWords(in.Arity(), 1, maybe)
	if err != nil {
		panic(err) // a subsequence of a sealed run's words
	}
	fresh := known
	for _, run := range held {
		fresh = relation.Diff(fresh, run)
	}
	return relation.Diff(in, relation.Diff(known, fresh))
}

// increasing reports whether sorted words repeat none.
func increasing(words []uint64) bool {
	for i := 1; i < len(words); i++ {
		if words[i] == words[i-1] {
			return false
		}
	}
	return true
}

// oneWord reports whether every run's rows are one word each.
func oneWord(runs []*relation.Run) bool {
	for _, run := range runs {
		if run.Stride() > 1 {
			return false
		}
	}
	return true
}

// wordFilter is a Bloom filter of one-word rows — 16 bits a word, two
// probes — that says of almost every word it was not given that it was
// not: the test a settle makes of each row before looking it up in a
// store's runs.
type wordFilter struct {
	bits     []uint64
	shift    uint // 64 − log₂ of the filter's width in bits
	n, limit int  // words added; words it takes at its false-positive rate
}

// newWordFilter returns a filter of the words of runs, with room for as
// many again and more besides.
func newWordFilter(runs []*relation.Run, more int) *wordFilter {
	n := more
	for _, run := range runs {
		n += run.Len()
	}
	limit := max(1024, 2*n)
	width := 64
	for width < 16*limit {
		width *= 2
	}
	f := &wordFilter{bits: make([]uint64, width/64), shift: uint(64 - bits.TrailingZeros(uint(width))), limit: limit}
	for _, run := range runs {
		f.addAll(run.Words())
	}
	return f
}

// probes returns the two bit positions of x.
func (f *wordFilter) probes(x uint64) (uint64, uint64) {
	h := x * 0x9e3779b97f4a7c15
	return h >> f.shift, (h ^ h>>29) * 0xbf58476d1ce4e5b9 >> f.shift
}

// addAll adds words.
func (f *wordFilter) addAll(words []uint64) {
	for _, x := range words {
		i, j := f.probes(x)
		f.bits[i/64] |= 1 << (i % 64)
		f.bits[j/64] |= 1 << (j % 64)
	}
	f.n += len(words)
}

// has reports whether x may have been added; false is certain.
func (f *wordFilter) has(x uint64) bool {
	i, j := f.probes(x)
	return f.bits[i/64]&(1<<(i%64)) != 0 && f.bits[j/64]&(1<<(j%64)) != 0
}

// route is the route step: the rows held under r.View, projected onto
// r.Cols and deduplicated, partitioned through each of r.Grids, appended
// to pieces as one Piece frame per grid and destination that receives
// rows — and the number of distinct rows. The step is input like any frame: columns the
// view does not have and grids wider than the projection or the pool are
// refused.
func (w *workerStore) route(pieces []wire.Frame, r *wire.Route) (_ []wire.Frame, rows int, err error) {
	if len(r.Cols) == 0 {
		return nil, 0, errors.New("no columns to project onto")
	}
	for i, g := range r.Grids {
		if g.Size() > w.home.p || g.Width() > len(r.Cols) {
			return nil, 0, fmt.Errorf("grid %d of %d points routes %d columns; the pool has %d workers, the projection %d columns", i, g.Size(), g.Width(), w.home.p, len(r.Cols))
		}
	}
	held := w.runs(r.View)
	if len(held) == 0 {
		return pieces, 0, nil
	}
	for _, c := range r.Cols {
		if c >= held[0].Arity() {
			return nil, 0, fmt.Errorf("column %d of an arity-%d view", c, held[0].Arity())
		}
	}
	derived := relation.Project(held[0], r.Cols)
	for i, g := range r.Grids {
		ds, err := exchange.PartitionRun(r.View, derived, w.home.p, g)
		if err != nil {
			return nil, 0, err
		}
		for _, d := range ds {
			pieces = append(pieces, wire.Frame{Type: wire.TypePiece, Piece: wire.Piece{Target: uint32(i), Dest: uint32(d.To), Buf: d.Buf}})
		}
	}
	return pieces, derived.Len(), nil
}

// runs returns what is stored under rel as at most one sealed run. A
// store that holds several is merged here, once: the merged run takes
// its pieces' place, so the next read — and whatever index the join
// hangs on the run — finds it standing; a later delivery
// appends a piece beside it and the next read merges again. While
// tombstones are live for the store the run returned is the store less
// the tombstones, so gathers and joins never see a retracted tuple.
func (w *workerStore) runs(rel string) []*relation.Run {
	w.settle()
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

// gather returns what a gather of rel streams under limit — every row
// of the store read as one sealed run, its first limit rows, or none for
// a negative limit — and how many rows the read holds. A store absorbed
// into holds each row in one of its runs, so under a limit it is counted
// and cut from its runs' first rows, and never merged whole.
func (w *workerStore) gather(rel string, limit int64) ([]*relation.Run, int) {
	var runs []*relation.Run
	rows := 0
	if w.settle(); limit != 0 && w.filters[rel] != nil {
		for _, run := range w.store[rel] {
			rows += run.Len()
			runs = append(runs, run.Prefix(int(max(limit, 0))))
		}
		runs = []*relation.Run{relation.Merge(runs)}
	} else {
		runs = w.runs(rel)
		for _, run := range runs {
			rows += run.Len()
		}
	}
	if limit < 0 || len(runs) == 0 || runs[0] == nil {
		return nil, rows
	}
	if limit > 0 {
		runs = []*relation.Run{runs[0].Prefix(int(limit))}
	}
	return runs, rows
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
