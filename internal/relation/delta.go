package relation

// This file is the relation half of incremental view maintenance: a
// Delta names per-relation appended and deleted tuple occurrences,
// ApplyDelta folds one into a database snapshot (multiset semantics,
// validating every deletion), and IncrementalStats keeps the
// planner-facing Stats catalog current under a delta stream without
// ever re-scanning a relation — each touched column's histogram (see
// hist) is merged with the batch's sorted values, and cardinalities,
// distinct counts and maximum frequencies are read off the result.

import "fmt"

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
// occurrences survive, appears in neither list.
type Effect struct {
	// Added lists tuples newly present, in first-appearance order of
	// the batch's append list.
	Added []Tuple
	// Removed lists tuples no longer present, in first-appearance order
	// of the batch's delete list.
	Removed []Tuple
}

// ApplyDelta returns a new database reflecting d. Untouched relations
// are shared with db; changed relations get fresh tuple slices (the
// occurrences that survive deletion, in their original order, followed
// by the appended occurrences in batch order). The returned map holds
// one Effect per changed relation.
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
		nr, eff, err := applyRelationDelta(db.N, r, d.Deletes[name], d.Appends[name])
		if err != nil {
			return nil, nil, err
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

// applyRelationDelta applies one relation's deletes-then-appends and
// computes its set-level Effect.
func applyRelationDelta(n int, r *Relation, dels, apps []Tuple) (*Relation, Effect, error) {
	if err := validateDeltaTuples(n, r, dels, "delete"); err != nil {
		return nil, Effect{}, err
	}
	if err := validateDeltaTuples(n, r, apps, "append"); err != nil {
		return nil, Effect{}, err
	}
	arity := r.Arity()
	delC := newTupleCounter(arity, len(dels))
	for _, t := range dels {
		delC.add(t, 1)
	}
	appC := newTupleCounter(arity, len(apps))
	for _, t := range apps {
		appC.add(t, 1)
	}
	// One pass over the relation: count prior occurrences of every
	// interesting tuple and drop the first delC occurrences of each
	// deleted one.
	occ := newTupleCounter(arity, len(dels)+len(apps))
	budget := delC.clone()
	keptCap := len(r.Tuples) - len(dels) + len(apps)
	if keptCap < 0 {
		keptCap = 0
	}
	kept := make([]Tuple, 0, keptCap)
	for _, t := range r.Tuples {
		if delC.get(t) > 0 || appC.get(t) > 0 {
			occ.add(t, 1)
		}
		if budget.get(t) > 0 {
			budget.add(t, -1)
			continue
		}
		kept = append(kept, t)
	}
	var eff Effect
	seenDel := NewTupleSet(arity, len(dels))
	for _, t := range dels {
		if !seenDel.Add(t) {
			continue
		}
		have, want := occ.get(t), delC.get(t)
		if have < want {
			return nil, Effect{}, fmt.Errorf("relation: delete of %v from %s: %d occurrence(s) present, %d deleted", t, r.Name, have, want)
		}
		if have == want && appC.get(t) == 0 {
			eff.Removed = append(eff.Removed, t.Clone())
		}
	}
	seenApp := NewTupleSet(arity, len(apps))
	for _, t := range apps {
		kept = append(kept, t.Clone())
		if !seenApp.Add(t) {
			continue
		}
		if occ.get(t) == 0 {
			eff.Added = append(eff.Added, t.Clone())
		}
	}
	nr := &Relation{
		Name:   r.Name,
		Attrs:  append([]string(nil), r.Attrs...),
		Tuples: kept,
	}
	return nr, eff, nil
}

// tupleCounter counts same-arity tuple occurrences under packed uint64
// keys (see key.go), falling back to string keys when a tuple does not
// pack.
type tupleCounter struct {
	arity int
	shift uint
	ints  map[uint64]int
	strs  map[string]int
}

func newTupleCounter(arity, sizeHint int) *tupleCounter {
	if sizeHint < 0 {
		sizeHint = 0
	}
	c := &tupleCounter{arity: arity}
	if shift := PackedShift(arity); shift > 0 {
		c.shift = shift
		c.ints = make(map[uint64]int, sizeHint)
	} else {
		c.strs = make(map[string]int, sizeHint)
	}
	return c
}

// pack encodes t into a uint64 key; ok is false when a value needs
// more than shift bits (or is negative, or the arity differs).
func (c *tupleCounter) pack(t Tuple) (uint64, bool) {
	if len(t) != c.arity {
		return 0, false
	}
	var key uint64
	for _, v := range t {
		if !FitsPacked(v, c.shift) {
			return 0, false
		}
		key = key<<c.shift | uint64(v)
	}
	return key, true
}

// migrate re-encodes every packed key as a string key and switches to
// the fallback path. Packed keys decode exactly (uniform shift), so no
// information is lost.
func (c *tupleCounter) migrate() {
	c.strs = make(map[string]int, len(c.ints))
	mask := PackedMask(c.shift)
	t := make(Tuple, c.arity)
	for key, n := range c.ints {
		for i := c.arity - 1; i >= 0; i-- {
			t[i] = int(key & mask)
			key >>= c.shift
		}
		c.strs[t.Key()] = n
	}
	c.ints = nil
}

// add adjusts t's count by delta and returns the new count. Counts
// that reach zero are removed.
func (c *tupleCounter) add(t Tuple, delta int) int {
	if c.ints != nil {
		if key, ok := c.pack(t); ok {
			n := c.ints[key] + delta
			if n == 0 {
				delete(c.ints, key)
			} else {
				c.ints[key] = n
			}
			return n
		}
		c.migrate()
	}
	k := t.Key()
	n := c.strs[k] + delta
	if n == 0 {
		delete(c.strs, k)
	} else {
		c.strs[k] = n
	}
	return n
}

// get returns t's current count; a tuple that does not pack is never
// among packed keys.
func (c *tupleCounter) get(t Tuple) int {
	if c.ints != nil {
		if key, ok := c.pack(t); ok {
			return c.ints[key]
		}
		return 0
	}
	return c.strs[t.Key()]
}

// len returns the number of distinct tuples with a nonzero count.
func (c *tupleCounter) len() int {
	if c.ints != nil {
		return len(c.ints)
	}
	return len(c.strs)
}

// clone returns an independent copy.
func (c *tupleCounter) clone() *tupleCounter {
	out := &tupleCounter{arity: c.arity, shift: c.shift}
	if c.ints != nil {
		out.ints = make(map[uint64]int, len(c.ints))
		for k, v := range c.ints {
			out.ints[k] = v
		}
	} else {
		out.strs = make(map[string]int, len(c.strs))
		for k, v := range c.strs {
			out.strs[k] = v
		}
	}
	return out
}

// IncStats incrementally maintains one relation's RelationStats: its
// cardinality plus one histogram per column. Snapshot returns a
// summary equal (field for field, including heavy-hitter order) to
// what CollectRelationStats would compute from scratch on the current
// state.
type IncStats struct {
	name  string
	attrs []string
	count int
	cols  []hist
}

// NewIncStats seeds an incremental summary with one scan of r — the
// only full scan the relation ever pays; every later delta costs a
// sort of the batch and one merge per column.
func NewIncStats(r *Relation) *IncStats {
	s := &IncStats{
		name:  r.Name,
		attrs: append([]string(nil), r.Attrs...),
		count: len(r.Tuples),
		cols:  make([]hist, r.Arity()),
	}
	for col := range s.cols {
		s.cols[col] = newHist(sortedColumn(r.Tuples, col))
	}
	return s
}

// apply folds one batch into the summary: per column, the deleted and
// appended values are sorted and merged into a fresh histogram, so
// histograms handed out earlier (or adopted from a Database) stay
// valid. The caller guarantees every deleted occurrence was present
// (relation.ApplyDelta validates this).
func (s *IncStats) apply(dels, apps []Tuple) {
	if len(dels)+len(apps) == 0 {
		return
	}
	s.count += len(apps) - len(dels)
	cols := make([]hist, len(s.cols)) // not in place: an adopted IncStats shares s.cols with the Database memo
	for col, h := range s.cols {
		cols[col] = h.merge(sortedColumn(apps, col), sortedColumn(dels, col))
	}
	s.cols = cols
}

// Snapshot materializes the current RelationStats.
func (s *IncStats) Snapshot() *RelationStats {
	rs := &RelationStats{
		Name:  s.name,
		Count: s.count,
		Attrs: append([]string(nil), s.attrs...),
		Cols:  make([]*ColumnStats, len(s.cols)),
	}
	for i, h := range s.cols {
		rs.Cols[i] = h.stats()
	}
	return rs
}

// IncrementalStats incrementally maintains a whole database's Stats
// catalog under a delta stream.
type IncrementalStats struct {
	rels  map[string]*IncStats
	order []string
}

// scanStats builds every relation's histograms with one scan each.
func scanStats(db *Database) *IncrementalStats {
	s := &IncrementalStats{
		rels:  make(map[string]*IncStats, len(db.Relations)),
		order: db.Names(),
	}
	for _, name := range s.order {
		s.rels[name] = NewIncStats(db.Relations[name])
	}
	return s
}

// NewIncrementalStats seeds the catalog from db. When db.Stats() has
// already collected, the histograms it kept are adopted (shared, never
// written) and nothing is scanned; otherwise each relation is scanned
// once.
func NewIncrementalStats(db *Database) *IncrementalStats {
	db.statsMu.Lock()
	kept := db.statsHists
	db.statsMu.Unlock()
	if kept == nil {
		return scanStats(db)
	}
	s := &IncrementalStats{rels: make(map[string]*IncStats, len(kept.rels)), order: kept.order}
	for name, inc := range kept.rels {
		adopted := *inc
		s.rels[name] = &adopted
	}
	return s
}

// Apply folds one validated delta (deletes before appends, matching
// ApplyDelta's semantics) into the catalog. Call it only after
// ApplyDelta accepted the same delta.
func (s *IncrementalStats) Apply(d Delta) {
	for name, inc := range s.rels {
		inc.apply(d.Deletes[name], d.Appends[name])
	}
}

// Snapshot materializes the current catalog. The result matches
// CollectStats on the maintained database state field for field.
func (s *IncrementalStats) Snapshot() *Stats {
	out := &Stats{Relations: make(map[string]*RelationStats, len(s.rels))}
	for _, name := range s.order {
		out.Relations[name] = s.rels[name].Snapshot()
	}
	return out
}
