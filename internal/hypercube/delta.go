package hypercube

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the incremental view maintenance of the HC engine.
// A cold HC run distributes every relation along the grid once and
// answers one query; a Maintainer keeps that distribution — and the
// materialized answer — alive across delta batches. A delta tuple of
// atom S_j routes through the same GridPartitioner as the base
// scatter, so it reaches exactly the grid points that replicate it:
// maintenance communication is the replication factor of the tuple,
// not a rescatter of the relation. Insertions are then answered by a
// delta join per changed atom (the changed atom bound to its Δ view,
// every other atom to its full post-update store), and deletions by a
// coordinator-side anti-join: a conjunctive query without projection
// determines each answer's witness in atom S_j uniquely (it is the
// answer's projection onto vars(S_j)), so an answer dies exactly when
// one of its projections was retracted.

// Report describes what one maintenance batch cost and changed.
type Report struct {
	// Bits is the communication the batch cost (delta routing only;
	// the delta join's gather is answer traffic, counted separately by
	// the engine's stats like any gather).
	Bits int64
	// RoutedTuples counts delta tuple receipts across workers — for a
	// single-tuple batch this is the tuple's replication factor.
	RoutedTuples int64
	// AnswersAdded and AnswersRemoved count the net change to the
	// materialized answer.
	AnswersAdded   int
	AnswersRemoved int
	// FreshRun holds the genuinely new answers of the batch — the
	// AnswersAdded tuples — as the sealed run they were computed as (nil
	// or empty when nothing was added): the Δ a semi-naive fixpoint loop
	// projects and diffs without going through tuples.
	FreshRun *exchange.Buffer
	// Replacements counts workers replaced by recovery during the
	// batch.
	Replacements int
	// CapExceeded reports whether a worker exceeded the per-round
	// receive budget during the batch.
	CapExceeded bool
}

// Maintainer holds a continuously-maintained HC execution: the grid
// distribution of every atom's relation on a live cluster, plus the
// materialized answer. It is single-caller, like the Cluster it
// drives.
type Maintainer struct {
	q       *query.Query
	shares  *Shares
	hasher  *Hasher
	cluster *dist.Cluster
	ctx     context.Context
	// parts holds the per-atom grid partitioner — the identical
	// routing the base scatter used, reused for every delta.
	parts map[string]*GridPartitioner
	// proj maps atom name → positions of the atom's variables in the
	// answer tuple, the projection behind the deletion anti-join.
	proj map[string][]int
	// arity maps atom name → arity of the atom (and of its relation).
	arity map[string]int
	// answers is the materialized answer as one sealed, deduplicated
	// run (nil when empty); batches maintain it with linear passes over
	// its words or rows.
	answers *exchange.Buffer
	// tuples caches Answers() between batches; nil when stale.
	tuples []relation.Tuple
	// seq numbers maintenance batches; Δ view names embed it so no
	// two batches share worker-side view state.
	seq int
	// capSeen latches whether any round exceeded the receive budget.
	capSeen bool
}

// NewMaintainer runs the cold HC distribution of q over db on p
// workers and returns a Maintainer holding the cluster open for delta
// batches. Self-joins are rejected: maintenance binds stores by atom
// name, which a repeated atom name would alias. The caller must Close
// the maintainer to release the cluster. A maintenance batch is a thin
// round — route Δ, barrier, delta joins, gather — so the cluster always
// runs the fused schedule whatever opts.Pipeline says: one exchange per
// worker and batch over TCP instead of three.
func NewMaintainer(q *query.Query, db *relation.Database, p int, opts Options) (*Maintainer, error) {
	seen := make(map[string]bool, len(q.Atoms))
	for _, a := range q.Atoms {
		if seen[a.Name] {
			return nil, fmt.Errorf("hypercube: maintenance of self-join atom %s not supported", a.Name)
		}
		seen[a.Name] = true
	}
	shares, err := SharesForQuery(q, p, GreedyRounding)
	if err != nil {
		return nil, err
	}
	if shares.GridSize() > p {
		return nil, fmt.Errorf("hypercube: grid size %d exceeds %d servers", shares.GridSize(), p)
	}
	opts.Pipeline = true
	cluster, ctx, err := opts.open(p, db)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		q:       q,
		shares:  shares,
		hasher:  NewHasher(shares, opts.Seed),
		cluster: cluster,
		ctx:     ctx,
		parts:   make(map[string]*GridPartitioner, len(q.Atoms)),
		proj:    make(map[string][]int, len(q.Atoms)),
		arity:   make(map[string]int, len(q.Atoms)),
	}
	varPos := make(map[string]int, q.NumVars())
	for i, v := range q.Vars() {
		varPos[v] = i
	}

	for _, a := range q.Atoms {
		pos := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			pos[i] = varPos[v]
		}
		m.proj[a.Name] = pos
		m.arity[a.Name] = len(a.Vars)
		m.parts[a.Name] = NewGridPartitioner(shares, m.hasher, a)
	}

	// Cold distribution: the ordinary one-round HC scatter and join,
	// with the cluster kept open afterwards.
	m.capSeen, err = coldRound(ctx, cluster, q, db, opts.Strategy, func(a query.Atom) *GridPartitioner { return m.parts[a.Name] })
	if err == nil {
		m.answers, err = cluster.GatherRun(ctx, answersView)
	}
	if err != nil {
		cluster.Close()
		return nil, err
	}
	return m, nil
}

// Answers returns the materialized answer: sorted, deduplicated, and
// current as of the last ApplyDelta. The tuples are built from the
// maintained run on first use after a batch and cached until the next;
// the slice is shared and callers must not mutate it.
func (m *Maintainer) Answers() []relation.Tuple {
	if m.tuples == nil {
		m.tuples = m.answers.Tuples()
	}
	return m.tuples
}

// Run returns the materialized answer as the sealed run the maintainer
// keeps (nil when empty) — Answers without building tuples. Sealed
// runs are immutable; the next ApplyDelta replaces the run rather than
// changing it.
func (m *Maintainer) Run() *exchange.Buffer { return m.answers }

// Stats returns the cluster's communication record, cold distribution
// and every maintenance batch included.
func (m *Maintainer) Stats() *mpc.Stats { return m.cluster.Stats() }

// Replacements returns the total workers replaced by recovery across
// the maintainer's lifetime.
func (m *Maintainer) Replacements() int { return m.cluster.Replacements() }

// Fanout returns the replication factor of the named atom — how many
// grid points each of its tuples is sent to — or 0 for an unknown
// atom. It is the per-tuple maintenance communication bound.
func (m *Maintainer) Fanout(atom string) int {
	part := m.parts[atom]
	if part == nil {
		return 0
	}
	return part.Fanout()
}

// Close releases the cluster.
func (m *Maintainer) Close() error { return m.cluster.Close() }

// deltaView names the Δ-relation view of one atom in one batch.
func deltaView(atom string, seq int) string {
	return fmt.Sprintf("delta!%s!%d", atom, seq)
}

// ApplyDelta maintains the distribution and the materialized answer
// under one delta batch, given as the set-level effect per relation
// (relation.ApplyDelta's output shape). Unknown relation names are
// rejected; relations of the query not named in changes are
// untouched. The returned report carries the batch's maintenance
// cost.
func (m *Maintainer) ApplyDelta(changes map[string]relation.Effect) (*Report, error) {
	for name := range changes {
		if m.parts[name] == nil {
			return nil, fmt.Errorf("hypercube: delta for relation %s not in query", name)
		}
	}
	m.seq++
	stats := m.cluster.Stats()
	statsFrom := len(stats.Rounds)

	// Route the delta along the grid: retractions first, then
	// extensions, so a worker never resurrects an old occurrence by
	// clearing a tombstone the same batch set (set-level effects make
	// Added and Removed disjoint, but ordering keeps the invariant
	// locally checkable). Atom order follows the query, as the cold
	// scatter does.
	m.cluster.BeginRound()
	changed := false
	for _, a := range m.q.Atoms {
		eff, ok := changes[a.Name]
		if !ok {
			continue
		}
		if len(eff.Removed) > 0 {
			if err := m.cluster.ScatterDelta(m.ctx, eff.Removed, m.arity[a.Name], a.Name, "", true, m.parts[a.Name]); err != nil {
				return nil, err
			}
		}
		if len(eff.Added) > 0 {
			changed = true
			if err := m.cluster.ScatterDelta(m.ctx, eff.Added, m.arity[a.Name], a.Name, deltaView(a.Name, m.seq), false, m.parts[a.Name]); err != nil {
				return nil, err
			}
		}
	}
	if err := m.cluster.EndRound(m.ctx); err != nil {
		if !errors.Is(err, mpc.ErrCapExceeded) {
			return nil, err
		}
		m.capSeen = true
	}

	// Deletion, coordinator-side: an answer dies exactly when its
	// projection onto some atom was retracted.
	removedSets := make(map[string]*relation.TupleSet, len(changes))
	for name, eff := range changes {
		if len(eff.Removed) == 0 {
			continue
		}
		set := relation.NewTupleSet(m.arity[name], len(eff.Removed))
		for _, t := range eff.Removed {
			set.Add(t)
		}
		removedSets[name] = set
	}
	removed := 0
	if len(removedSets) > 0 && m.answers.Len() > 0 {
		witness := make(relation.Tuple, 0, 8)
		ans := make(relation.Tuple, m.answers.Arity())
		live := exchange.NewBuffer(m.answers.Arity())
		live.Grow(m.answers.Len())
		for i, n := 0, m.answers.Len(); i < n; i++ {
			m.answers.Row(i, ans)
			dead := false
			for name, set := range removedSets {
				witness = witness[:0]
				for _, p := range m.proj[name] {
					witness = append(witness, ans[p])
				}
				if set.Contains(witness) {
					dead = true
					break
				}
			}
			if dead {
				removed++
			} else {
				live.Append(ans)
			}
		}
		if removed > 0 {
			live.Seal() // survivors arrive in order; this only freezes
			m.answers, m.tuples = live, nil
		}
	}

	// Insertion: one delta join per extended atom — the atom bound to
	// its Δ view, every other atom to its full post-update store — all
	// terms unioned under one gather view. Under set semantics the
	// union of these terms is exactly the new answers: any answer
	// using at least one added tuple appears in the term of one of the
	// atoms it was added to, and stores already exclude retracted
	// tuples, so no term resurrects a dead answer.
	var added *exchange.Buffer
	if changed {
		gatherView := fmt.Sprintf("hc!delta!%d", m.seq)
		for _, a := range m.q.Atoms {
			eff, ok := changes[a.Name]
			if !ok || len(eff.Added) == 0 {
				continue
			}
			bindings := map[string]string{a.Name: deltaView(a.Name, m.seq)}
			if err := m.cluster.Join(m.ctx, m.q, bindings, gatherView, 0); err != nil {
				return nil, err
			}
		}
		fresh, err := m.cluster.GatherRun(m.ctx, gatherView)
		if err != nil {
			return nil, err
		}
		if added = exchange.Diff(fresh, m.answers); added.Len() > 0 {
			m.answers, m.tuples = exchange.Merge([]*exchange.Buffer{m.answers, added}), nil
		}
	}

	// A batch without extensions gathered nothing, and on the fused
	// schedule the gather is the fence: send what is still deferred (the
	// routed retractions and the barrier) before returning.
	if err := m.cluster.Flush(m.ctx); err != nil {
		return nil, err
	}

	rep := &Report{
		AnswersAdded:   added.Len(),
		AnswersRemoved: removed,
		FreshRun:       added,
		Replacements:   m.cluster.Replacements(),
		CapExceeded:    m.capSeen,
	}
	for _, rs := range stats.Rounds[statsFrom:] {
		rep.Bits += rs.TotalBits
		rep.RoutedTuples += rs.TotalTuples
	}
	return rep, nil
}
