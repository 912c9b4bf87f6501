package relation

// This file is the relation half of incremental view maintenance: a
// Delta names per-relation appended and deleted tuple occurrences, and
// ApplyDelta folds one into a database snapshot (multiset semantics,
// validating every deletion). A changed relation whose summary was
// collected is born holding it with the batch applied, without a
// re-scan — each column's histogram (see hist) is merged with the
// batch's sorted values, and cardinalities, distinct counts and maximum
// frequencies are read off the result.

import (
	"fmt"
	"slices"
	"sort"
)

// Delta is one batch of changes to a database: per-relation tuple
// occurrences to delete and to append. Within a batch, deletes apply
// before appends, so deleting and re-appending the same tuple leaves
// it present.
type Delta struct {
	// Appends maps relation name → tuple occurrences to add.
	Appends map[string][]Tuple
	// Deletes maps relation name → tuple occurrences to remove. Every
	// occurrence must match one present in the relation.
	Deletes map[string][]Tuple
}

// Empty reports whether the delta carries no tuples at all.
func (d Delta) Empty() bool {
	for _, ts := range d.Appends {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range d.Deletes {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// Effect is the set-level consequence of a delta for one relation —
// the distinction view maintenance cares about, after multiset
// bookkeeping: Added tuples were absent before and are present after;
// Removed tuples were present before and are absent after. A tuple
// deleted and re-appended in the same batch, or appended when other
// occurrences survive, is in neither run.
type Effect struct {
	// Added holds the tuples newly present as one sealed run, each once
	// (nil when none).
	Added *Run
	// Removed holds the tuples no longer present as one sealed run, each
	// once (nil when none).
	Removed *Run
}

// ApplyDelta returns a new database reflecting d. Untouched relations
// are shared with db; each changed relation is one fresh sealed run: its
// surviving occurrences and the appended ones, merged in sorted order —
// the rows come back sorted, whatever order they were registered in,
// while sets, multiplicities, Effects and statistics are what applying
// the batch to a tuple list gives. The returned map holds one Effect per
// changed relation. A changed relation whose summary was collected
// (Relation.Stats) is born holding that summary with d applied; one
// whose summary was not is born without, and nothing is scanned.
//
// Every delta tuple is validated: the relation must exist, arities
// must match, and values must lie in [1, db.N] — the domain is fixed
// at registration, so the communication model (bits per value,
// hypercube hashing) stays sound under the stream. A deletion with no
// matching occurrence is an error and leaves db unusable-side-effect
// free (db itself is never mutated).
func ApplyDelta(db *Database, d Delta) (*Database, map[string]Effect, error) {
	changed := make(map[string]bool, len(d.Appends)+len(d.Deletes))
	for name := range d.Appends {
		changed[name] = true
	}
	for name := range d.Deletes {
		changed[name] = true
	}
	for name := range changed {
		if _, ok := db.Relation(name); !ok {
			return nil, nil, fmt.Errorf("relation: delta names unknown relation %s", name)
		}
	}
	out := NewDatabase(db.N)
	effects := make(map[string]Effect, len(changed))
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		if !changed[name] {
			out.AddRelation(r)
			continue
		}
		nr, eff, err := applyRunDelta(db.N, r, d.Deletes[name], d.Appends[name])
		if err != nil {
			return nil, nil, err
		}
		if rs := r.memoStats(false); rs != nil {
			nr.sealed.sum = &summary{of: nr, rs: rs.apply(d.Deletes[name], d.Appends[name])}
		}
		out.AddRelation(nr)
		effects[name] = eff
	}
	return out, effects, nil
}

// validateDeltaTuples checks arity and domain for one side of a delta.
func validateDeltaTuples(n int, r *Relation, ts []Tuple, side string) error {
	arity := r.Arity()
	for _, t := range ts {
		if len(t) != arity {
			return fmt.Errorf("relation: %s delta for %s has arity %d, want %d", side, r.Name, len(t), arity)
		}
		for _, v := range t {
			if v < 1 || v > n {
				return fmt.Errorf("relation: %s delta for %s has value %d outside the domain [1,%d]", side, r.Name, v, n)
			}
		}
	}
	return nil
}

// applyRunDelta applies one relation's deletes-then-appends as one merge
// over its sealed run and reads its Effect off the counts the merge
// met. The merge is exact about occurrences — a delete drops one, an
// append adds one — which is why it is not Diff and Merge: that set
// algebra drops multiplicities.
func applyRunDelta(n int, r *Relation, dels, apps []Tuple) (*Relation, Effect, error) {
	if err := validateDeltaTuples(n, r, dels, "delete"); err != nil {
		return nil, Effect{}, err
	}
	if err := validateDeltaTuples(n, r, apps, "append"); err != nil {
		return nil, Effect{}, err
	}
	base := r.Run()
	del, app := sortBatch(dels), sortBatch(apps)
	dr, ar := del.run(base.arity), app.run(base.arity)
	l := widest(base, dr, ar)
	words, delC, appC := mergeDelta(base.at(l), dr.at(l), ar.at(l), l.stride)
	run := &Run{layout: l, words: words, sealed: true}

	failed, have, want := -1, 0, 0
	var removed, added []int // sorted positions, one per group
	del.groups(func(k, size int) {
		first, c := del.order[k], delC[k]
		switch {
		case c.held < size:
			if failed < 0 || first < failed {
				failed, have, want = first, c.held, size
			}
		case c.held == size && c.other == 0:
			removed = append(removed, k)
		}
	})
	if failed >= 0 {
		return nil, Effect{}, fmt.Errorf("relation: delete of %v from %s: %d occurrence(s) present, %d deleted", dels[failed], r.Name, have, want)
	}
	app.groups(func(k, _ int) {
		if appC[k].held == 0 {
			added = append(added, k)
		}
	})
	return FromRun(r.Name, r.Attrs, run), Effect{Added: subRun(ar, added), Removed: subRun(dr, removed)}, nil
}

// subRun returns the rows idx, ascending, of the sorted run src as one
// sealed run, laid out as RunOf lays out its tuples; nil for none.
func subRun(src *Run, idx []int) *Run {
	if len(idx) == 0 {
		return nil
	}
	out, row := NewRun(src.arity), make(Tuple, src.arity)
	out.Grow(len(idx))
	for _, i := range idx {
		out.Append(src.Row(i, row))
	}
	out.Seal()
	return out
}

// batch is one side of a delta in sorted order: order[k] is the index
// of its k-th smallest tuple, equal tuples in batch order — so the
// first of a group of equal tuples is where that tuple first appears.
type batch struct {
	ts    []Tuple
	order []int
}

func sortBatch(ts []Tuple) batch {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return ts[a].Compare(ts[b]) })
	return batch{ts: ts, order: order}
}

// groups calls f with the sorted position and the size of every group
// of equal tuples, in order.
func (b batch) groups(f func(k, size int)) {
	for k := 0; k < len(b.order); {
		e := k + 1
		for e < len(b.order) && b.ts[b.order[e]].Equal(b.ts[b.order[k]]) {
			e++
		}
		f(k, e-k)
		k = e
	}
}

// run returns the sorted batch as one run, open, its rows in order.
func (b batch) run(arity int) *Run {
	out := NewRun(arity)
	for _, i := range b.order {
		out.Append(b.ts[i])
	}
	return out
}

// counts is what the merge meets of one sorted batch row's tuple: the
// occurrences the relation held, and how many the other side of the
// batch names.
type counts struct{ held, other int }

// mergeDelta returns base — sorted rows of the given stride — with one
// occurrence dropped per row of del and one added per row of app (both
// sorted, same stride), in order, and the counts of every del and app
// row. Base rows between two batch tuples are copied in bulk. A row
// deleted more often than held drops all of its occurrences; the caller
// reports it.
func mergeDelta(base, del, app []uint64, stride int) (out []uint64, delC, appC []counts) {
	row := func(s []uint64, i int) []uint64 { return s[i*stride : (i+1)*stride] }
	nb, nd, na := len(base)/stride, len(del)/stride, len(app)/stride
	out = make([]uint64, 0, max(0, len(base)-len(del))+len(app))
	delC, appC = make([]counts, nd), make([]counts, na)
	i, j, k := 0, 0, 0
	for j < nd || k < na {
		var next []uint64 // the smaller batch row
		if k == na || j < nd && compareRows(row(del, j), row(app, k)) <= 0 {
			next = row(del, j)
		} else {
			next = row(app, k)
		}
		lo := i + sort.Search(nb-i, func(x int) bool { return compareRows(row(base, i+x), next) >= 0 })
		out = append(out, base[i*stride:lo*stride]...)
		held, dj, ak := 0, j, k
		for i = lo; i < nb && compareRows(row(base, i), next) == 0; i++ {
			held++
		}
		for ; j < nd && compareRows(row(del, j), next) == 0; j++ {
		}
		for ; k < na && compareRows(row(app, k), next) == 0; k++ {
		}
		for x := dj; x < j; x++ {
			delC[x] = counts{held: held, other: k - ak}
		}
		for x := ak; x < k; x++ {
			appC[x] = counts{held: held, other: j - dj}
		}
		for c := max(0, held-(j-dj)) + k - ak; c > 0; c-- {
			out = append(out, next...)
		}
	}
	return append(out, base[i*stride:]...), delC, appC
}

// apply returns the summary after one batch, deletes before appends,
// every deleted occurrence present (ApplyDelta validates this): per
// column, the batch's values are sorted and merged into a fresh
// histogram, and the column's counts are read off it. rs is never
// written; an empty batch returns rs itself.
func (rs *RelationStats) apply(dels, apps []Tuple) *RelationStats {
	if len(dels)+len(apps) == 0 {
		return rs
	}
	out := &RelationStats{
		Name:  rs.Name,
		Count: rs.Count + len(apps) - len(dels),
		Attrs: rs.Attrs,
		Cols:  make([]*ColumnStats, len(rs.Cols)),
	}
	for col, cs := range rs.Cols {
		out.Cols[col] = hist(cs.Hist).merge(sortedColumn(apps, col), sortedColumn(dels, col)).stats()
	}
	return out
}

// apply returns the catalog after one validated delta; relations the
// delta leaves untouched keep their summaries. s is never written, so
// every catalog handed out earlier stays what it was.
func (s *Stats) apply(d Delta) *Stats {
	out := &Stats{Relations: make(map[string]*RelationStats, len(s.Relations))}
	for name, rs := range s.Relations {
		out.Relations[name] = rs.apply(d.Deletes[name], d.Appends[name])
	}
	return out
}

// IncrementalStats carries a database's catalog across a delta stream
// by hand, for a caller that holds the deltas but not the databases
// ApplyDelta returns: bench/probes.go pins NewIncrementalStats and
// Apply, and the statistics tests read Snapshot.
type IncrementalStats struct{ cat *Stats }

// NewIncrementalStats starts from db's catalog: db.Stats(), which scans
// only when nothing has collected it yet.
func NewIncrementalStats(db *Database) *IncrementalStats {
	return &IncrementalStats{cat: db.Stats()}
}

// Apply folds one validated delta (deletes before appends, matching
// ApplyDelta's semantics) into the catalog. Call it only after
// ApplyDelta accepted the same delta.
func (s *IncrementalStats) Apply(d Delta) { s.cat = s.cat.apply(d) }

// Snapshot returns the current catalog. It matches CollectStats on the
// maintained database state field for field, and no later Apply
// writes it.
func (s *IncrementalStats) Snapshot() *Stats { return s.cat }
