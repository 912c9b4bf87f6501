package relation

// Property, fuzz and allocation tests of the statistics kernel: the
// histogram-run implementation (NewIncrementalStats → Apply* →
// Snapshot, and CollectStats) against the frequency-map oracle of
// stats_ref_test.go over delta streams chosen to hit every shape the
// top-K read and the merge can get wrong.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

var statsTestAttrs = []string{"a", "b", "c", "d"}

// genStatsRelation draws rows tuples of the given arity whose columns
// are permutations ("matching", needs rows ≤ n), Zipf(1.3) draws over
// [1, n] ("zipf") or one constant ("equal").
func genStatsRelation(rng *rand.Rand, name string, arity, rows, n int, kind string) *Relation {
	r := &Relation{Name: name, Attrs: statsTestAttrs[:arity]}
	perms := make([][]int, arity)
	for c := range perms {
		perms[c] = rng.Perm(rows)
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
	for i := 0; i < rows; i++ {
		t := make(Tuple, arity)
		for c := range t {
			switch kind {
			case "matching":
				t[c] = 1 + perms[c][i]
			case "zipf":
				t[c] = 1 + int(zipf.Uint64())
			default:
				t[c] = 7
			}
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// applyUnchecked is ApplyDelta's multiset semantics (deletes before
// appends, first occurrences dropped) without the [1, N] domain check,
// so a stream can carry labels ApplyDelta refuses.
func applyUnchecked(t *testing.T, db *Database, d Delta) *Database {
	t.Helper()
	out := NewDatabase(db.N)
	for _, name := range db.Names() {
		r := db.Relations[name]
		kept := slices.Clone(r.Tuples)
		for _, del := range d.Deletes[name] {
			i := slices.IndexFunc(kept, del.Equal)
			if i < 0 {
				t.Fatalf("test stream deletes %v from %s, which is absent", del, name)
			}
			kept = slices.Delete(kept, i, i+1)
		}
		out.AddRelation(&Relation{Name: name, Attrs: r.Attrs, Tuples: append(kept, d.Appends[name]...)})
	}
	return out
}

// statsStream is one delta stream: a seed database and a batch
// generator that sees the current state.
type statsStream struct {
	name  string
	steps int
	db    func(rng *rand.Rand) *Database
	next  func(rng *rand.Rand, step int, db *Database) Delta
}

// run drives the stream through the incremental catalog and checks,
// after the seed and after every batch, Snapshot ≡ oracle ≡
// CollectStats on the state the batch produced (via ApplyDelta too
// whenever it accepts the batch). It also holds every catalog handed
// out earlier to its value: Apply must never write a histogram in
// place. With adopt, db.Stats() has collected before the stream
// starts, and that memoized catalog is held as well.
func (s statsStream) run(t *testing.T, adopt bool) {
	rng := rand.New(rand.NewPCG(0x57a75, uint64(len(s.name))))
	db0 := s.db(rng)
	var memo *Stats
	if adopt {
		memo = db0.Stats()
	}
	seedWant := refStats(db0)
	inc := NewIncrementalStats(db0)
	check := func(step int, db *Database) {
		t.Helper()
		want := refStats(db)
		if got := inc.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: incremental catalog diverges from the oracle:\n got %+v\nwant %+v", step, got, want)
		}
		if got := CollectStats(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: CollectStats diverges from the oracle:\n got %+v\nwant %+v", step, got, want)
		}
	}
	db := db0
	check(-1, db)
	for step := 0; step < s.steps; step++ {
		d := s.next(rng, step, db)
		prev, prevWant := inc.Snapshot(), refStats(db)
		after := applyUnchecked(t, db, d)
		if legal, _, err := ApplyDelta(db, d); err == nil && !reflect.DeepEqual(refStats(legal), refStats(after)) {
			t.Fatalf("step %d: ApplyDelta and the test's multiset apply disagree", step)
		}
		inc.Apply(d)
		db = after
		check(step, db)
		if !reflect.DeepEqual(prev, prevWant) {
			t.Fatalf("step %d: Apply changed the previous snapshot", step)
		}
	}
	if adopt && !reflect.DeepEqual(memo, seedWant) {
		t.Fatal("Apply changed the catalog memoized by Database.Stats")
	}
	if got := NewIncrementalStats(db0).Snapshot(); !reflect.DeepEqual(got, seedWant) {
		t.Fatal("Apply changed the seed database's histograms")
	}
}

// oneRelation wraps a relation generator as a stream seed.
func oneRelation(n int, gen func(rng *rand.Rand) *Relation) func(*rand.Rand) *Database {
	return func(rng *rand.Rand) *Database {
		db := NewDatabase(n)
		db.AddRelation(gen(rng))
		return db
	}
}

// randomBatch deletes up to 6 present occurrences per relation and
// appends up to 6 draws over [1, db.N] — with db.N above the seeded
// labels, some appends carry values no column has seen.
func randomBatch(rng *rand.Rand, _ int, db *Database) Delta {
	d := Delta{Appends: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
	for _, name := range db.Names() {
		r := db.Relations[name]
		for _, i := range rng.Perm(len(r.Tuples))[:min(rng.IntN(7), len(r.Tuples))] {
			d.Deletes[name] = append(d.Deletes[name], r.Tuples[i])
		}
		for k := rng.IntN(7); k > 0; k-- {
			t := make(Tuple, r.Arity())
			for c := range t {
				t[c] = 1 + rng.IntN(db.N)
			}
			d.Appends[name] = append(d.Appends[name], t)
		}
	}
	return d
}

// whereCol0 returns r's tuples whose first column is v.
func whereCol0(r *Relation, v int) []Tuple {
	var out []Tuple
	for _, t := range r.Tuples {
		if t[0] == v {
			out = append(out, t)
		}
	}
	return out
}

// signedLabels are legal Relation.Add input outside the CSV path: the
// radix order must be the signed order at both ends of the int range.
var signedLabels = []int{0, -1, -5, 3, 1 << 40, 1<<40 + 1, 1 << 62, math.MaxInt, math.MinInt, -(1 << 40)}

func statsStreams() []statsStream {
	var out []statsStream
	for _, kind := range []string{"matching", "zipf", "equal"} {
		for arity := 1; arity <= 4; arity++ {
			out = append(out, statsStream{
				name: fmt.Sprintf("random/%s/arity%d", kind, arity), steps: 25, next: randomBatch,
				db: oneRelation(300, func(rng *rand.Rand) *Relation {
					return genStatsRelation(rng, "R", arity, 150, 150, kind)
				}),
			})
		}
	}
	zipf2 := oneRelation(200, func(rng *rand.Rand) *Relation { return genStatsRelation(rng, "R", 2, 600, 200, "zipf") })
	return append(out,
		// The current heaviest value of column 0 loses all its
		// occurrences (all but one on even steps), 24 times over, so
		// MaxFreq has to move to a new value every step.
		statsStream{name: "heavy-hitters-down", steps: 24, db: zipf2,
			next: func(_ *rand.Rand, step int, db *Database) Delta {
				r := db.Relations["R"]
				hits := whereCol0(r, heaviest(refRelationStats(r).Cols[0].Hist))
				return Delta{Deletes: map[string][]Tuple{"R": hits[(step+1)%2:]}}
			}},
		statsStream{name: "smallest-8", steps: 12,
			db: func(rng *rand.Rand) *Database {
				db := zipf2(rng)
				db.AddRelation(genStatsRelation(rng, "M", 3, 90, 90, "matching"))
				return db
			},
			next: func(_ *rand.Rand, _ int, db *Database) Delta {
				d := Delta{Deletes: map[string][]Tuple{}}
				for _, name := range db.Names() {
					ts := slices.Clone(db.Relations[name].Tuples)
					slices.SortFunc(ts, Tuple.Compare)
					d.Deletes[name] = ts[:min(8, len(ts))]
				}
				return d
			}},
		// One value is deleted to zero and re-appended in the same batch.
		statsStream{name: "delete-and-reappend", steps: 15, db: zipf2,
			next: func(rng *rand.Rand, _ int, db *Database) Delta {
				r := db.Relations["R"]
				v := r.Tuples[rng.IntN(len(r.Tuples))][0]
				return Delta{
					Deletes: map[string][]Tuple{"R": whereCol0(r, v)},
					Appends: map[string][]Tuple{"R": {{v, 1 + rng.IntN(db.N)}}},
				}
			}},
		statsStream{name: "unseen-appends", steps: 10,
			db: oneRelation(1<<41, func(rng *rand.Rand) *Relation { return genStatsRelation(rng, "R", 2, 100, 100, "matching") }),
			next: func(_ *rand.Rand, step int, _ *Database) Delta {
				base := 1<<40 + 10*step
				return Delta{Appends: map[string][]Tuple{"R": {{base, base + 1}, {base + 2, base}, {base, base}}}}
			}},
		// Empty relations under empty batches, a first append, and a
		// delete of everything back to empty.
		statsStream{name: "empty", steps: 5,
			db: func(*rand.Rand) *Database {
				db := NewDatabase(50)
				for arity := 1; arity <= 4; arity++ {
					db.AddRelation(&Relation{Name: fmt.Sprintf("E%d", arity), Attrs: statsTestAttrs[:arity]})
				}
				return db
			},
			next: func(_ *rand.Rand, step int, db *Database) Delta {
				switch step {
				case 0:
					return Delta{}
				case 1:
					return Delta{Appends: map[string][]Tuple{"E1": {}}, Deletes: map[string][]Tuple{"E2": nil}}
				case 2:
					return Delta{Appends: map[string][]Tuple{"E1": {{4}, {4}, {2}}, "E3": {{1, 2, 3}}}}
				case 3:
					return Delta{Deletes: map[string][]Tuple{"E1": db.Relations["E1"].Tuples, "E3": db.Relations["E3"].Tuples}}
				}
				return Delta{}
			}},
		statsStream{name: "signed-labels", steps: 30,
			db: oneRelation(1, func(rng *rand.Rand) *Relation {
				r := &Relation{Name: "R", Attrs: statsTestAttrs[:2]}
				for i := 0; i < 400; i++ { // ≥ 256 rows: the radix path, not the small-input fallback
					r.Tuples = append(r.Tuples, Tuple{signedLabels[rng.IntN(len(signedLabels))], signedLabels[i%len(signedLabels)]})
				}
				return r
			}),
			next: func(rng *rand.Rand, _ int, db *Database) Delta {
				r := db.Relations["R"]
				d := Delta{Appends: map[string][]Tuple{}, Deletes: map[string][]Tuple{}}
				for _, i := range rng.Perm(len(r.Tuples))[:min(rng.IntN(20), len(r.Tuples))] {
					d.Deletes["R"] = append(d.Deletes["R"], r.Tuples[i])
				}
				for k := rng.IntN(5); k > 0; k-- {
					d.Appends["R"] = append(d.Appends["R"], Tuple{signedLabels[rng.IntN(len(signedLabels))], -rng.IntN(3)})
				}
				return d
			}},
		// 40 values tie at count 3 and single-occurrence batches
		// reshuffle who leads the tie.
		statsStream{name: "ties-at-the-cut", steps: 30, next: randomBatch,
			db: oneRelation(45, func(*rand.Rand) *Relation {
				r := &Relation{Name: "R", Attrs: statsTestAttrs[:2]}
				for v := 40; v >= 1; v-- {
					for i := 0; i < 3; i++ {
						r.Tuples = append(r.Tuples, Tuple{v, 1 + (v+i)%5})
					}
				}
				return r
			})},
	)
}

func TestStatsStreamsMatchOracle(t *testing.T) {
	for _, s := range statsStreams() {
		for _, adopt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adopt=%v", s.name, adopt), func(t *testing.T) { s.run(t, adopt) })
		}
	}
}

// FuzzIncrementalStats deals fuzzer-chosen bytes into a relation of a
// fuzzer-chosen arity and a stream of delete/append batches over it
// (labels around zero, negative, and beyond ±2⁴⁰) and checks the
// maintained catalog and CollectStats against the oracle after every
// batch.
func FuzzIncrementalStats(f *testing.F) {
	f.Add(uint8(0), uint8(4), []byte{2, 2, 4, 2, 6, 8, 2, 6, 3, 2, 7, 200, 201, 0, 255, 3})
	f.Add(uint8(1), uint8(3), []byte{10, 11, 10, 12, 10, 13, 10, 11, 10, 11, 10, 12, 10, 13, 9, 9})
	f.Add(uint8(3), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, arity, initial uint8, data []byte) {
		a := 1 + int(arity)%4
		label := func(b byte) int {
			v := int(int8(b) >> 1)
			if b&1 == 1 {
				v <<= 40
			}
			return v
		}
		var rows []Tuple
		var deletes []bool
		for ; len(data) >= a; data = data[a:] {
			row := make(Tuple, a)
			for c := range row {
				row[c] = label(data[c])
			}
			rows, deletes = append(rows, row), append(deletes, data[0]&2 != 0)
		}
		seed := min(int(initial), len(rows))
		db := NewDatabase(1)
		db.AddRelation(&Relation{Name: "R", Attrs: statsTestAttrs[:a], Tuples: slices.Clone(rows[:seed])})
		inc := NewIncrementalStats(db)
		for rows, deletes = rows[seed:], deletes[seed:]; ; {
			want := refStats(db)
			if got := inc.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("incremental catalog diverges from the oracle:\n got %+v\nwant %+v", got, want)
			}
			if got := CollectStats(db); !reflect.DeepEqual(got, want) {
				t.Fatalf("CollectStats diverges from the oracle:\n got %+v\nwant %+v", got, want)
			}
			if len(rows) == 0 {
				break
			}
			// A batch of up to 4 rows: a row marked delete that is still
			// present (deletes apply before appends) is deleted, any
			// other is appended.
			k := min(4, len(rows))
			present := slices.Clone(db.Relations["R"].Tuples)
			var d Delta
			d.Appends, d.Deletes = map[string][]Tuple{}, map[string][]Tuple{}
			for i, row := range rows[:k] {
				if j := slices.IndexFunc(present, row.Equal); deletes[i] && j >= 0 {
					present = slices.Delete(present, j, j+1)
					d.Deletes["R"] = append(d.Deletes["R"], row)
				} else {
					d.Appends["R"] = append(d.Appends["R"], row)
				}
			}
			rows, deletes = rows[k:], deletes[k:]
			inc.Apply(d)
			db = applyUnchecked(t, db, d)
		}
	})
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDatabaseStatsAdoptedSeed pins the one-scan-per-dataset contract:
// once Database.Stats has collected, NewIncrementalStats starts from
// the memoized catalog — O(relations) small allocations, nothing sized
// by the data — and AddRelation drops it, so the next seed scans.
func TestDatabaseStatsAdoptedSeed(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewPCG(9, 9))
	db := NewDatabase(n)
	for _, name := range []string{"R", "S", "T"} {
		db.AddRelation(Matching(rng, name, []string{"x", "y"}, n))
	}
	scanBytes := allocatedBytes(func() { NewIncrementalStats(db) })
	if scanBytes < 8*n {
		t.Fatalf("an unadopted seed allocated %d B; it must scan (≥ %d B of column keys)", scanBytes, 8*n)
	}
	db.Stats()
	var inc *IncrementalStats
	if allocs := testing.AllocsPerRun(20, func() { inc = NewIncrementalStats(db) }); allocs > 4+2*float64(len(db.Relations)) {
		t.Errorf("adopted seed made %.0f allocations for %d relations", allocs, len(db.Relations))
	}
	if b := allocatedBytes(func() { NewIncrementalStats(db) }); b > 4096 {
		t.Errorf("adopted seed allocated %d B for %d tuples; it must not scan", b, 3*n)
	}
	if got, want := inc.Snapshot(), refStats(db); !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted seed diverges from the oracle:\n got %+v\nwant %+v", got, want)
	}

	db.AddRelation(Matching(rng, "U", []string{"x", "y"}, n))
	if b := allocatedBytes(func() { inc = NewIncrementalStats(db) }); b < 8*n {
		t.Errorf("seed after AddRelation allocated %d B; the dropped histograms must be rebuilt by a scan", b)
	}
	if got, want := inc.Snapshot(), refStats(db); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed after AddRelation diverges from the oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestApplyDeltaCarriesCollectedStats pins the carry-forward: a
// database whose catalog is collected hands it, with the delta applied,
// to the database ApplyDelta returns, so that database's Stats() scans
// nothing and still equals a from-scratch collection. An uncollected
// database hands on nothing, so its successor's first Stats() scans.
func TestApplyDeltaCarriesCollectedStats(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewPCG(54, 54))
	db := NewDatabase(n)
	for _, name := range []string{"R", "S", "T"} {
		db.AddRelation(Matching(rng, name, []string{"x", "y"}, n))
	}
	d := Delta{
		Deletes: map[string][]Tuple{"R": {db.Relations["R"].Tuples[0]}},
		Appends: map[string][]Tuple{"R": {{1, 1}}, "S": {{2, 3}, {n, 1}}},
	}
	uncollected, _, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	if b := allocatedBytes(func() { uncollected.Stats() }); b < 8*n {
		t.Errorf("Stats() of a delta over an uncollected database allocated %d B; it must scan", b)
	}

	db.Stats()
	next, _, err := ApplyDelta(db, d)
	if err != nil {
		t.Fatal(err)
	}
	var got *Stats
	if b := allocatedBytes(func() { got = next.Stats() }); b > 4096 {
		t.Errorf("Stats() after ApplyDelta allocated %d B for ~%d tuples; the collected catalog must be carried forward", b, 3*n)
	}
	if want := CollectStats(next); !reflect.DeepEqual(got, want) {
		t.Fatalf("carried catalog diverges from CollectStats:\n got %+v\nwant %+v", got, want)
	}
	if got.Relations["T"] != db.Stats().Relations["T"] {
		t.Error("an untouched relation's summary was rebuilt")
	}
}

// TestSortWordsMatchesComparisonSort covers the radix sort's skipped
// byte positions: constant high bytes, a constant low byte, all-equal
// input, and the sign-flipped keys the statistics kernel sorts — on rows
// of one word and of two and three, whose later words are sorted first
// and must not undo the order of the earlier ones.
func TestSortWordsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	gens := map[string]func() uint64{
		"small-domain": func() uint64 { return uint64(rng.IntN(5000)) },
		"full-width":   rng.Uint64,
		"all-equal":    func() uint64 { return 0xdeadbeef },
		"low-byte-constant": func() uint64 {
			return uint64(rng.IntN(1<<20))<<8 | 0x5a
		},
		"sign-flipped": func() uint64 { return uint64(rng.IntN(2001)-1000) ^ signBit },
	}
	for name, gen := range gens {
		for _, stride := range []int{1, 2, 3} {
			for _, size := range []int{0, 1, 255, 256, 3000} {
				ws := make([]uint64, size*stride)
				for i := range ws {
					ws[i] = gen()
				}
				rows := make([][]uint64, size)
				for i := range rows {
					rows[i] = slices.Clone(ws[i*stride : (i+1)*stride])
				}
				slices.SortFunc(rows, slices.Compare)
				sortRows(ws, stride)
				if !slices.Equal(ws, slices.Concat(rows...)) {
					t.Errorf("%s, %d rows of %d words: sortRows disagrees with slices.SortFunc", name, size, stride)
				}
			}
		}
	}
}
