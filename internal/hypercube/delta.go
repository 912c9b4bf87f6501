package hypercube

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the incremental view maintenance of the HC engine, in
// two layers. A cold HC run distributes every relation along the grid
// once and answers one query; a Distribution keeps that distribution
// alive across delta batches, and a Maintainer keeps the materialized
// answer on top of it. A delta tuple of atom S_j routes through the same
// GridPartitioner as the base scatter, so it reaches exactly the grid
// points that replicate it: maintenance communication is the
// replication factor of the tuple, not a rescatter of the relation.
// Insertions are then answered by a delta join per changed atom (the
// changed atom bound to its Δ view, every other atom to its full
// post-update store), and deletions by a coordinator-side anti-join: a
// conjunctive query without projection determines each answer's witness
// in atom S_j uniquely (it is the answer's projection onto vars(S_j)),
// so an answer dies exactly when one of its projections was retracted.
// apply hands back what the workers joined, undiffed, and a Maintainer
// diffs it against the answer it keeps — serve's continuous queries. A
// Datalog fixpoint keeps nothing on the coordinator: it holds a
// Distribution open (Hold) and drives Route, Absorb and Closure, so each
// iteration's derivations travel from the workers that derived them to
// the grid points that keep them, and only what is new stays.

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
}

// Distribution holds a warm HC execution: the grid distribution of every
// atom's relation on a live cluster, maintained under delta batches given
// as sealed runs. It is single-caller, like the Cluster it drives.
type Distribution struct {
	q       *query.Query
	cluster *dist.Cluster
	ctx     context.Context
	// parts holds the per-atom grid partitioner — the identical
	// routing the base scatter used, reused for every delta.
	parts map[string]*GridPartitioner
	// seq numbers maintenance batches; Δ view names embed it so no
	// two batches share worker-side view state.
	seq int
	// derived is the view the last join filled — the cold answer, then
	// each Absorb's delta joins — and "" when an Absorb joined nothing.
	derived string
}

// Distribute runs the cold HC distribution of q over db on p workers and
// returns it, held open for delta batches, with the cold round's answer
// as one sealed run (nil when empty). Self-joins are rejected:
// maintenance binds stores by atom name, which a repeated atom name
// would alias. The caller must Close the distribution to release the
// cluster. A maintenance batch is a thin round — route Δ, barrier, delta
// joins, gather — and leaves fused: one exchange per worker and batch
// over TCP.
func Distribute(q *query.Query, db *relation.Database, p int, opts Options) (*Distribution, *relation.Run, error) {
	d, err := Hold(q, db, p, opts)
	if err != nil {
		return nil, nil, err
	}
	cold, err := d.cluster.Gather(d.ctx, AnswersView)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, cold, nil
}

// Hold is Distribute leaving the cold round's answer on the workers,
// under AnswersView, for Route to read; the round is queued, and leaves
// with the next fence.
func Hold(q *query.Query, db *relation.Database, p int, opts Options) (*Distribution, error) {
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
	cluster, ctx, err := open(p, db, opts)
	if err != nil {
		return nil, err
	}
	d := &Distribution{q: q, cluster: cluster, ctx: ctx, parts: make(map[string]*GridPartitioner, len(q.Atoms)), derived: AnswersView}
	hasher := NewHasher(shares, opts.Seed)
	for _, a := range q.Atoms {
		d.parts[a.Name] = NewGridPartitioner(shares, hasher, a)
	}

	// Cold distribution: the ordinary one-round HC scatter and join,
	// with the cluster kept open afterwards.
	if err := Round(ctx, cluster, q, db, func(a query.Atom) exchange.Partitioner { return d.parts[a.Name] }); err != nil {
		cluster.Close()
		return nil, err
	}
	return d, nil
}

// Stats returns the cluster's communication record, cold distribution
// and every maintenance batch included.
func (d *Distribution) Stats() *mpc.Stats { return d.cluster.Stats() }

// Outcome returns the distribution's record so far, the cold round
// included: statistics, a broken receive budget, replacements.
func (d *Distribution) Outcome() dist.Outcome { return d.cluster.Outcome() }

// Fanout returns the replication factor of the named atom — how many
// grid points each of its tuples is sent to — or 0 for an unknown
// atom. It is the per-tuple maintenance communication bound.
func (d *Distribution) Fanout(atom string) int {
	part := d.parts[atom]
	if part == nil {
		return 0
	}
	return part.Fanout()
}

// Close releases the cluster.
func (d *Distribution) Close() error { return d.cluster.Close() }

// Grid returns the routing of the named atom's tuples, or nil for an
// atom outside the query.
func (d *Distribution) Grid(atom string) *exchange.Grid {
	if part := d.parts[atom]; part != nil {
		return part.Grid
	}
	return nil
}

// Route sends what the last join derived — the cold answer, then each
// Absorb's — on its way: every worker projects it onto cols and
// partitions the distinct rows through each of grids (Cluster.Route),
// in the fused script that still holds the iteration's deliveries,
// barrier and joins. It returns the pieces, none when the last Absorb
// joined nothing.
func (d *Distribution) Route(cols []int, grids []*exchange.Grid) ([]dist.Piece, error) {
	if d.derived == "" {
		return nil, d.cluster.Flush(d.ctx)
	}
	return d.cluster.Route(d.ctx, d.derived, cols, grids)
}

// Absorb runs one fixpoint iteration's round on the distribution: per
// store, the pieces routed to it (Cluster.Absorb) — each receiver keeps
// only the rows its store lacks, and registers those as the store's Δ —
// then, for every atom of the query that received pieces, a delta join
// binding the atom to its Δ and every other atom to its store. A store
// outside the query only keeps what it is sent. What the joins derived
// is what the next Route sends; the round leaves with it.
func (d *Distribution) Absorb(pieces map[string][]dist.Piece) error {
	d.seq++
	d.cluster.BeginRound()
	stores := make([]string, 0, len(pieces))
	for store := range pieces {
		stores = append(stores, store)
	}
	sort.Strings(stores)
	for _, store := range stores {
		if err := d.cluster.Absorb(d.ctx, pieces[store], store, deltaView(store, d.seq)); err != nil {
			return err
		}
	}
	if err := d.cluster.EndRound(d.ctx); err != nil && !errors.Is(err, mpc.ErrCapExceeded) {
		return err
	}
	d.derived = ""
	view := fmt.Sprintf("hc!delta!%d", d.seq)
	for _, a := range d.q.Atoms {
		if len(pieces[a.Name]) == 0 {
			continue
		}
		if err := d.cluster.Join(d.ctx, d.q, map[string]string{a.Name: deltaView(a.Name, d.seq)}, view, 0); err != nil {
			return err
		}
		d.derived = view
	}
	return nil
}

// Closure gathers what store holds from the canonical cells of grid, the
// routing its rows arrived by: each row once, so under a limit the first
// limit rows and the summed count are exact (Cluster.GatherCells).
func (d *Distribution) Closure(store string, grid *exchange.Grid, limit int) (*relation.Run, int, error) {
	return d.cluster.GatherCells(d.ctx, store, limit, grid.Canonical())
}

// deltaView names the Δ-relation view of one atom in one batch.
func deltaView(atom string, seq int) string {
	return fmt.Sprintf("delta!%s!%d", atom, seq)
}

// apply maintains the distribution under one delta batch — per atom
// name, the sealed runs of retracted and of added tuples (set-level
// effects: disjoint, and truly present resp. absent; nil or empty runs
// and names outside the query are skipped) — and returns what the
// batch's delta joins produced, gathered into one sealed run: every
// answer that uses at least one added tuple, whether or not the caller
// has seen it before (nil when nothing was added or nothing joined).
func (d *Distribution) apply(removed, added map[string]*relation.Run) (*relation.Run, error) {
	d.seq++
	// Route the delta along the grid: retractions first, then
	// extensions, so a retraction never rewrites out of a store a row
	// the same batch put back in (set-level effects make added and
	// removed disjoint, but ordering keeps the invariant locally
	// checkable). Atom order follows the query, as the cold
	// scatter does.
	d.cluster.BeginRound()
	var extended []query.Atom
	for _, a := range d.q.Atoms {
		if run := removed[a.Name]; run.Len() > 0 {
			if err := d.cluster.ScatterDelta(d.ctx, run, a.Name, "", true, d.parts[a.Name]); err != nil {
				return nil, err
			}
		}
		if run := added[a.Name]; run.Len() > 0 {
			extended = append(extended, a)
			if err := d.cluster.ScatterDelta(d.ctx, run, a.Name, deltaView(a.Name, d.seq), false, d.parts[a.Name]); err != nil {
				return nil, err
			}
		}
	}
	if err := d.cluster.EndRound(d.ctx); err != nil && !errors.Is(err, mpc.ErrCapExceeded) {
		return nil, err
	}

	// Insertion: one delta join per extended atom — the atom bound to
	// its Δ view, every other atom to its full post-update store — all
	// terms unioned under one gather view. Under set semantics the
	// union of these terms is exactly the new answers: any answer
	// using at least one added tuple appears in the term of one of the
	// atoms it was added to, and stores already exclude retracted
	// tuples, so no term resurrects a dead answer.
	var gathered *relation.Run
	if len(extended) > 0 {
		gatherView := fmt.Sprintf("hc!delta!%d", d.seq)
		for _, a := range extended {
			bindings := map[string]string{a.Name: deltaView(a.Name, d.seq)}
			if err := d.cluster.Join(d.ctx, d.q, bindings, gatherView, 0); err != nil {
				return nil, err
			}
		}
		var err error
		if gathered, err = d.cluster.Gather(d.ctx, gatherView); err != nil {
			return nil, err
		}
	}
	// A batch without extensions gathered nothing, and on the fused
	// schedule the gather is the fence: send what is still deferred (the
	// routed retractions and the barrier) before returning.
	return gathered, d.cluster.Flush(d.ctx)
}

// Maintainer is a Distribution plus the materialized answer of its
// query, kept current under delta batches given as tuples: ApplyDelta
// is its way in.
type Maintainer struct {
	*Distribution
	// proj maps atom name → positions of the atom's variables in the
	// answer tuple, the projection behind the deletion anti-join.
	proj map[string][]int
	// answers is the materialized answer as one sealed, deduplicated
	// run (nil when empty); batches maintain it with linear passes over
	// its words or rows.
	answers *relation.Run
}

// NewMaintainer distributes q over db on p workers (Distribute) and
// returns a Maintainer whose answer is the cold round's. The caller must
// Close the maintainer to release the cluster.
func NewMaintainer(q *query.Query, db *relation.Database, p int, opts Options) (*Maintainer, error) {
	d, cold, err := Distribute(q, db, p, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{Distribution: d, proj: make(map[string][]int, len(q.Atoms)), answers: cold}
	for _, a := range q.Atoms {
		pos := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			pos[i] = q.VarIndex(v)
		}
		m.proj[a.Name] = pos
	}
	return m, nil
}

// Answers returns the materialized answer, current as of the last
// ApplyDelta, as one sealed, deduplicated run (nil when empty). A batch
// replaces the run rather than changing it, so a caller may keep it.
func (m *Maintainer) Answers() *relation.Run { return m.answers }

// ApplyDelta maintains the distribution and the materialized answer
// under one delta batch, given as the set-level effect per relation
// (relation.ApplyDelta's output shape). Unknown relation names are
// rejected; relations of the query not named in changes are
// untouched. The returned report carries the batch's maintenance
// cost.
func (m *Maintainer) ApplyDelta(changes map[string]relation.Effect) (*Report, error) {
	removed := make(map[string]*relation.Run, len(changes))
	added := make(map[string]*relation.Run, len(changes))
	for name, eff := range changes {
		pos, ok := m.proj[name]
		if !ok {
			return nil, fmt.Errorf("hypercube: delta for relation %s not in query", name)
		}
		// Every occurrence is kept, so a tuple a caller repeats is routed
		// and accounted once per occurrence.
		if len(eff.Removed) > 0 {
			removed[name] = relation.RunOf(len(pos), eff.Removed)
		}
		added[name] = relation.RunOf(len(pos), eff.Added)
	}
	stats := m.Stats()
	statsFrom := len(stats.Rounds)
	fresh, err := m.apply(removed, added)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, rs := range stats.Rounds[statsFrom:] {
		rep.Bits += rs.TotalBits
		rep.RoutedTuples += rs.TotalTuples
	}

	// Deletion, coordinator-side: an answer dies exactly when its
	// projection onto some atom is in that atom's removed run.
	if len(removed) > 0 && m.answers.Len() > 0 {
		witness := make(relation.Tuple, 0, 8)
		ans := make(relation.Tuple, m.answers.Arity())
		live := relation.NewRun(m.answers.Arity())
		live.Grow(m.answers.Len())
		for i, n := 0, m.answers.Len(); i < n; i++ {
			m.answers.Row(i, ans)
			dead := false
			for name, run := range removed {
				witness = witness[:0]
				for _, p := range m.proj[name] {
					witness = append(witness, ans[p])
				}
				if run.Contains(witness) {
					dead = true
					break
				}
			}
			if dead {
				rep.AnswersRemoved++
			} else {
				live.AppendRow(m.answers, i)
			}
		}
		if rep.AnswersRemoved > 0 {
			live.Seal() // survivors arrive in order; this only freezes
			m.answers = live
		}
	}

	// Insertion: of what the delta joins produced, the answers not
	// already held are the batch's additions.
	if fresh = relation.Diff(fresh, m.answers); fresh.Len() > 0 {
		rep.AnswersAdded = fresh.Len()
		m.answers = relation.Merge([]*relation.Run{m.answers, fresh})
	}
	return rep, nil
}
