package relation

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// randomDeltaDB builds a database with two binary relations over a
// small domain, dense enough that heavy hitters exist and deletes
// collide with multiplicities.
func randomDeltaDB(rng *rand.Rand, n, rows int) *Database {
	db := NewDatabase(n)
	for _, name := range []string{"R", "S"} {
		r := &Relation{Name: name, Attrs: []string{"x", "y"}}
		for i := 0; i < rows; i++ {
			// Skew the first column so the top-K head is non-trivial.
			x := 1 + rng.IntN(n)/(1+rng.IntN(4))
			r.MustAdd(Tuple{x, 1 + rng.IntN(n)})
		}
		db.AddRelation(r)
	}
	return db
}

// randomDelta draws a delta whose deletes are sampled from present
// tuples (so it always validates) and whose appends are fresh draws.
func randomDelta(rng *rand.Rand, db *Database) Delta {
	d := Delta{Appends: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		rows := r.Rows()
		nDel := min(rng.IntN(4), len(rows))
		for _, i := range rng.Perm(len(rows))[:nDel] {
			d.Deletes[name] = append(d.Deletes[name], rows[i].Clone())
		}
		for i := 0; i < rng.IntN(4); i++ {
			d.Appends[name] = append(d.Appends[name],
				Tuple{1 + rng.IntN(db.N), 1 + rng.IntN(db.N)})
		}
	}
	return d
}

func TestApplyDeltaEffects(t *testing.T) {
	db := NewDatabase(10)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	r.MustAdd(Tuple{1, 2})
	r.MustAdd(Tuple{1, 2}) // duplicate occurrence
	r.MustAdd(Tuple{3, 4})
	db.AddRelation(r)

	// Deleting one of two occurrences removes nothing set-wise.
	out, eff, err := ApplyDelta(db, Delta{Deletes: map[string][]Tuple{"R": {{1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if eff["R"].Removed.Len() != 0 || eff["R"].Added.Len() != 0 {
		t.Fatalf("one-of-two delete produced effect %+v", eff["R"])
	}
	nr, _ := out.Relation("R")
	if got := nr.Rows(); !reflect.DeepEqual(got, []Tuple{{1, 2}, {3, 4}}) {
		t.Fatalf("got %v, want [[1 2] [3 4]]: one of the two occurrences kept", got)
	}

	// Deleting the last occurrence removes; appending a fresh tuple adds.
	out, eff, err = ApplyDelta(db, Delta{
		Deletes: map[string][]Tuple{"R": {{3, 4}}},
		Appends: map[string][]Tuple{"R": {{5, 6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eff["R"]; !reflect.DeepEqual(got.Removed.Tuples(), []Tuple{{3, 4}}) ||
		!reflect.DeepEqual(got.Added.Tuples(), []Tuple{{5, 6}}) {
		t.Fatalf("effect %+v, want removed [3 4], added [5 6]", eff["R"])
	}

	// Delete + re-append of the same tuple is a set-level no-op.
	_, eff, err = ApplyDelta(db, Delta{
		Deletes: map[string][]Tuple{"R": {{3, 4}}},
		Appends: map[string][]Tuple{"R": {{3, 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eff["R"]; got.Removed.Len() != 0 || got.Added.Len() != 0 {
		t.Fatalf("delete+re-append produced effect %+v", got)
	}

	// The original database is untouched.
	if r2, _ := db.Relation("R"); len(r2.Tuples) != 3 {
		t.Fatalf("source relation mutated to %d tuples", len(r2.Tuples))
	}
}

func TestApplyDeltaRejects(t *testing.T) {
	db := NewDatabase(10)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	r.MustAdd(Tuple{1, 2})
	db.AddRelation(r)

	cases := []Delta{
		{Deletes: map[string][]Tuple{"R": {{9, 9}}}},         // absent tuple
		{Deletes: map[string][]Tuple{"R": {{1, 2}, {1, 2}}}}, // more than present
		{Appends: map[string][]Tuple{"Q": {{1, 2}}}},         // unknown relation
		{Appends: map[string][]Tuple{"R": {{1}}}},            // arity mismatch
		{Appends: map[string][]Tuple{"R": {{0, 2}}}},         // below domain
		{Appends: map[string][]Tuple{"R": {{1, 11}}}},        // above domain
		{Deletes: map[string][]Tuple{"R": {{-1, 2}}}},        // negative value
	}
	for i, d := range cases {
		if _, _, err := ApplyDelta(db, d); err == nil {
			t.Errorf("case %d: delta %+v accepted, want error", i, d)
		}
	}
}

// TestIncrementalStatsMatchCollect is the incremental-stats property
// test: after every step of a random delta sequence, the maintained
// catalog equals a from-scratch CollectStats — cardinality, distinct
// counts, max frequency, and the exact top-K heavy-hitter list with
// its canonical order.
func TestIncrementalStatsMatchCollect(t *testing.T) {
	for _, domain := range []int{5, 12, 300} {
		rng := rand.New(rand.NewPCG(0xde17a, uint64(domain)))
		db := randomDeltaDB(rng, domain, 120)
		inc := NewIncrementalStats(db)
		if got, want := inc.Snapshot(), CollectStats(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("domain %d: seeded snapshot diverges:\n got %+v\nwant %+v", domain, got, want)
		}
		for step := 0; step < 40; step++ {
			d := randomDelta(rng, db)
			next, _, err := ApplyDelta(db, d)
			if err != nil {
				t.Fatalf("domain %d step %d: %v", domain, step, err)
			}
			inc.Apply(d)
			db = next
			got, want := inc.Snapshot(), CollectStats(db)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("domain %d step %d: incremental catalog diverges from scratch:\n got %+v\nwant %+v",
					domain, step, got, want)
			}
		}
	}
}

// TestIncrementalStatsTopKPromotion forces the demotion path: the most
// frequent value shrinks below every other, so MaxFreq must move to the
// runner-up exactly as a re-collection would.
func TestIncrementalStatsTopKPromotion(t *testing.T) {
	const k = 16
	db := NewDatabase(100)
	r := &Relation{Name: "R", Attrs: []string{"x", "y"}}
	// k+1 distinct x-values in descending frequency; value 1 is the
	// most frequent.
	for v := 1; v <= k+1; v++ {
		reps := k + 2 - v
		for i := 0; i < reps; i++ {
			r.MustAdd(Tuple{v, 50})
		}
	}
	db.AddRelation(r)
	inc := NewIncrementalStats(db)

	// Delete value 1 down to frequency 1: it falls to the bottom.
	var d Delta
	d.Deletes = map[string][]Tuple{}
	for i := 0; i < k; i++ {
		d.Deletes["R"] = append(d.Deletes["R"], Tuple{1, 50})
	}
	next, _, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	inc.Apply(d)
	got, want := inc.Snapshot(), CollectStats(next)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-demotion catalog diverges:\n got %+v\nwant %+v", got, want)
	}
}

// Removing tuples from a sealed run is a Diff, and the membership search
// sees the result — on one-word rows and, once a value exceeds the
// 32-bit field of one, on two-word rows.
func TestTupleSetRemove(t *testing.T) {
	s := RunOf(2, []Tuple{{1, 2}, {3, 4}})
	gone := RunOf(2, []Tuple{{1, 2}})
	if !s.Contains(Tuple{1, 2}) {
		t.Fatal("present tuple not found before the Diff")
	}
	s = Diff(s, gone)
	if again := Diff(s, gone); again.Len() != s.Len() {
		t.Fatalf("second Diff removed %d more tuples", s.Len()-again.Len())
	}
	if s.Contains(Tuple{1, 2}) || !s.Contains(Tuple{3, 4}) || s.Len() != 1 {
		t.Fatalf("run state wrong after Diff: len=%d", s.Len())
	}
	// Two words a row.
	huge := Tuple{1 << 40, 1 << 40}
	big := RunOf(2, []Tuple{huge, {1, 2}}) // values exceed a 32-bit field
	if big.Stride() != 2 {
		t.Fatalf("a value past 2³² at arity 2 takes %d words a row, want 2", big.Stride())
	}
	big = Diff(big, RunOf(2, []Tuple{huge}))
	if big.Contains(huge) {
		t.Fatal("Diff on two-word rows kept the removed tuple")
	}
	if !big.Contains(Tuple{1, 2}) {
		t.Fatal("a two-word Diff disturbed other members")
	}
}

// TestApplyDeltaMatchesReference holds ApplyDelta's merge to the parent
// tree's hash-counting apply (refApplyDelta) over random relations with
// duplicates on a small domain: deletes present, absent and over-counted,
// appends overlapping them and the relation, on one-word rows and on
// rows wider than a word (values ≥ 2³² at arity 2 and 3). The multiset, every Effect
// list in order, and the error text must agree; then the result is the
// next step's input, so a run built by the merge is merged again.
func TestApplyDeltaMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, domain int
		big       bool
	}{
		{"packed", 8, 8, false},
		{"packed-wide-domain", 1 << 40, 8, false},
		{"flat", 1 << 40, 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xde17a, uint64(tc.domain)))
			value := func() int {
				v := 1 + rng.IntN(tc.domain)
				if tc.big && rng.IntN(4) == 0 {
					v += 1 << 32
				}
				return v
			}
			draw := func(k, arity int) []Tuple {
				ts := make([]Tuple, k)
				for i := range ts {
					ts[i] = make(Tuple, arity)
					for c := range ts[i] {
						ts[i][c] = value()
					}
				}
				return ts
			}
			db := NewDatabase(tc.n)
			for arity, name := range []string{"A", "B", "C"} {
				db.AddRelation(&Relation{Name: name, Attrs: statsTestAttrs[:arity+1], Tuples: draw(rng.IntN(40), arity+1)})
			}
			var failed, removed, added, strided int // what the steps exercised
			for step := 0; step < 300; step++ {
				d := Delta{Appends: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
				for _, name := range db.Names() {
					r := db.Relations[name]
					rows := r.Rows()
					if rng.IntN(3) == 0 {
						continue
					}
					for k := rng.IntN(6); k > 0 && len(rows) > 0; k-- {
						d.Deletes[name] = append(d.Deletes[name], rows[rng.IntN(len(rows))]) // may over-count
					}
					if rng.IntN(8) == 0 {
						d.Deletes[name] = append(d.Deletes[name], draw(1, r.Arity())...) // likely absent
					}
					d.Appends[name] = draw(rng.IntN(6), r.Arity())
					if len(d.Deletes[name]) > 0 && rng.IntN(2) == 0 {
						d.Appends[name] = append(d.Appends[name], d.Deletes[name][0]) // delete and re-append
					}
				}
				got, gotEff, gotErr := ApplyDelta(db, d)
				want, wantEff, wantErr := refApplyDelta(db, d)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: error %v, reference %v", step, gotErr, wantErr)
				}
				if wantErr != nil {
					failed++
					continue
				}
				for _, e := range wantEff {
					removed += e.Removed.Len()
					added += e.Added.Len()
				}
				if !reflect.DeepEqual(effectRows(gotEff), effectRows(wantEff)) {
					t.Fatalf("step %d: effects %v, reference %v", step, gotEff, wantEff)
				}
				for _, name := range db.Names() {
					gotRows, wantRows := slices.Clone(got.Relations[name].Rows()), slices.Clone(want.Relations[name].Rows())
					slices.SortFunc(gotRows, Tuple.Compare) // an unchanged relation keeps its Tuples' order
					slices.SortFunc(wantRows, Tuple.Compare)
					if len(gotRows)+len(wantRows) > 0 && !reflect.DeepEqual(gotRows, wantRows) {
						t.Fatalf("step %d: %s holds %v, reference %v", step, name, gotRows, wantRows)
					}
					if run := got.Relations[name].Run(); run.Len() > 0 && run.Stride() > 1 {
						if !tc.big {
							t.Fatalf("step %d: %s takes %d words a row with every value fitting one", step, name, run.Stride())
						}
						strided++
					}
				}
				db = got
			}
			if failed == 0 || removed == 0 || added == 0 || tc.big && strided == 0 {
				t.Fatalf("the stream exercised %d rejected batches, %d removals, %d additions, %d relations wider than a word; want some of each", failed, removed, added, strided)
			}
		})
	}
}

// refApplyDelta is the parent tree's ApplyDelta: one hash-counting pass
// per changed relation (refCounter), the surviving occurrences in their
// order and then the appends in batch order. It is the oracle
// TestApplyDeltaMatchesReference holds the merge to.
func refApplyDelta(db *Database, d Delta) (*Database, map[string]Effect, error) {
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
		nr, eff, err := refApplyRelationDelta(db.N, r, d.Deletes[name], d.Appends[name])
		if err != nil {
			return nil, nil, err
		}
		out.AddRelation(nr)
		effects[name] = eff
	}
	return out, effects, nil
}

func refApplyRelationDelta(n int, r *Relation, dels, apps []Tuple) (*Relation, Effect, error) {
	if err := validateDeltaTuples(n, r, dels, "delete"); err != nil {
		return nil, Effect{}, err
	}
	if err := validateDeltaTuples(n, r, apps, "append"); err != nil {
		return nil, Effect{}, err
	}
	arity := r.Arity()
	delC := newRefCounter(arity, len(dels))
	for _, t := range dels {
		delC.add(t, 1)
	}
	appC := newRefCounter(arity, len(apps))
	for _, t := range apps {
		appC.add(t, 1)
	}
	occ := newRefCounter(arity, len(dels)+len(apps))
	budget := delC.clone()
	kept := make([]Tuple, 0, max(0, r.Size()-len(dels)+len(apps)))
	for _, t := range r.Rows() {
		if delC.get(t) > 0 || appC.get(t) > 0 {
			occ.add(t, 1)
		}
		if budget.get(t) > 0 {
			budget.add(t, -1)
			continue
		}
		kept = append(kept, t)
	}
	var removed, added []Tuple
	seenDel := make(map[string]bool, len(dels))
	for _, t := range dels {
		if seenDel[t.Key()] {
			continue
		}
		seenDel[t.Key()] = true
		have, want := occ.get(t), delC.get(t)
		if have < want {
			return nil, Effect{}, fmt.Errorf("relation: delete of %v from %s: %d occurrence(s) present, %d deleted", t, r.Name, have, want)
		}
		if have == want && appC.get(t) == 0 {
			removed = append(removed, t.Clone())
		}
	}
	seenApp := make(map[string]bool, len(apps))
	for _, t := range apps {
		kept = append(kept, t.Clone())
		if seenApp[t.Key()] {
			continue
		}
		seenApp[t.Key()] = true
		if occ.get(t) == 0 {
			added = append(added, t.Clone())
		}
	}
	eff := Effect{Added: RunOf(arity, added), Removed: RunOf(arity, removed)}
	return &Relation{Name: r.Name, Attrs: append([]string(nil), r.Attrs...), Tuples: kept}, eff, nil
}

// effectRows is each relation's Effect as its added and removed tuples,
// in order: what an effect holds, whatever layout its runs have.
func effectRows(effects map[string]Effect) map[string][2][]Tuple {
	out := make(map[string][2][]Tuple, len(effects))
	for name, e := range effects {
		out[name] = [2][]Tuple{e.Added.Tuples(), e.Removed.Tuples()}
	}
	return out
}

// refCounter is the parent tree's occurrence counter, keyed by each
// tuple's string key (the parent packed the keys it could into uint64s,
// which counts the same).
type refCounter map[string]int

func newRefCounter(_, sizeHint int) refCounter { return make(refCounter, sizeHint) }

func (c refCounter) add(t Tuple, delta int) {
	k := t.Key()
	if c[k] += delta; c[k] == 0 {
		delete(c, k)
	}
}

func (c refCounter) get(t Tuple) int { return c[t.Key()] }

func (c refCounter) clone() refCounter { return maps.Clone(c) }
