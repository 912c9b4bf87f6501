// Package relation provides the data layer of the MPC reproduction:
// tuples over the integer domain [n] = {1,…,n}, named relations with a
// variable schema, and the matching databases of Section 2.5 of
// Beame, Koutris, Suciu (PODS 2013) — inputs in which every relation
// of arity a is an a-dimensional matching (each column is a
// permutation of [n]).
//
// It also owns the form in which tuples travel: the sealed Run (run.go)
// — same-arity tuples as sorted rows of packed words, as many words a
// row as the fields need — and its set algebra Merge, Diff and Project
// (runalgebra.go), and the one index a sealed run remembers of itself
// (Run.Index, the trie index a join reads: immutable input, so never
// invalidated). Everything
// between a scatter and a gather is runs:
// internal/exchange routes rows into them, internal/wire frames them,
// workers store, join and return them, and the coordinator's views are
// kept as them. The package imports none of those layers.
//
// The catalog holds runs too. A Relation is one sealed run (Run, Size):
// an uploaded CSV's bytes are scanned straight into one (ReadCSV),
// a delta batch is one occurrence-exact merge over it (ApplyDelta), the
// statistics are read off its columns, and a scatter partitions it.
// Tuples stays the interchange form tests, generators and bench/ write:
// a Relation filled through it is sealed once, on first use. Rows
// materializes tuples for the oracles and experiments that want them.
package relation

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
)

// Tuple is a row over the domain [n]; Tuple[i] is the value of the
// i-th schema variable.
type Tuple []int

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key returns a canonical string key for map-based dedup. The values
// are separated by '|', so keys are unambiguous for any arity. It
// allocates per call; hot paths should prefer a sealed Run (Contains,
// Dedup) or DedupSort.
func (t Tuple) Key() string {
	var arr [64]byte
	buf := arr[:0]
	for i, v := range t {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// Compare orders tuples lexicographically, a shorter tuple before any
// longer one it is a prefix of: negative when t sorts first, zero when
// the tuples are equal, positive otherwise — the comparator form of
// Less for slices.SortFunc.
func (t Tuple) Compare(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	return len(t) - len(u)
}

// Less orders tuples lexicographically.
func (t Tuple) Less(u Tuple) bool {
	for i := 0; i < len(t) && i < len(u); i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}

// Relation is a named multiset of tuples with a variable schema. Its
// rows are one sealed Run — sorted, every occurrence kept — which is
// what the product builds (ReadCSV, ApplyDelta, FromRun) and what every
// engine reads, through Run and Size. A caller that fills Tuples instead
// (tests, generators, bench/) gets that run sealed from them once, on
// first use; Tuples must not change after that.
type Relation struct {
	// Name is the relation symbol.
	Name string
	// Attrs names the columns (query variables).
	Attrs []string
	// Tuples holds the rows when the caller supplies them: the
	// interchange form tests, generators and bench/ write. A relation
	// built from a run leaves it nil; read Rows for a tuple view of either.
	Tuples []Tuple

	sealed struct {
		sync.Mutex
		run *Run
		sum *summary // the statistics memo, shared with WithAttrs views
	}
}

// New returns an empty relation with the given schema.
func New(name string, attrs ...string) *Relation {
	as := make([]string, len(attrs))
	copy(as, attrs)
	return &Relation{Name: name, Attrs: as}
}

// FromRun returns a relation whose rows are run, a sealed run of
// len(attrs) columns (nil: no rows). The run is shared, never copied.
func FromRun(name string, attrs []string, run *Run) *Relation {
	r := New(name, attrs...)
	r.sealed.run = run
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Run returns the relation's rows as one sealed run, every occurrence
// kept (the semantics of RunOf): the run it was built from, or Tuples
// sealed on the first call and remembered. Safe for concurrent callers;
// the run is shared and immutable.
func (r *Relation) Run() *Run {
	r.sealed.Lock()
	defer r.sealed.Unlock()
	if r.sealed.run == nil {
		r.sealed.run = RunOf(r.Arity(), r.Tuples)
	}
	return r.sealed.run
}

// memo returns the run the relation holds without sealing one.
func (r *Relation) memo() *Run {
	r.sealed.Lock()
	defer r.sealed.Unlock()
	return r.sealed.run
}

// Size returns the number of tuples, read off whichever form the
// relation holds.
func (r *Relation) Size() int {
	if run := r.memo(); run != nil {
		return run.Len()
	}
	return len(r.Tuples)
}

// Rows returns the relation's tuples for readers that want a slice —
// oracles, experiments, file writers, never an engine: Tuples itself
// when the caller filled it (shared, read-only), otherwise the run
// materialized over one fresh backing array, in sorted order.
func (r *Relation) Rows() []Tuple {
	if r.Tuples != nil {
		return r.Tuples
	}
	return r.memo().Tuples()
}

// WithAttrs returns a view of r under another schema of the same arity:
// it shares r's rows — Tuples and the sealed run, sealed first if need
// be, so every view of r reads one run — and r's statistics memo, so r
// and its views collect one summary between them; it copies neither.
func (r *Relation) WithAttrs(attrs []string) *Relation {
	v := FromRun(r.Name, attrs, r.Run())
	v.Tuples = r.Tuples
	v.sealed.sum = r.summary()
	return v
}

// Add appends a tuple (copied) after validating its arity. The relation
// becomes a Tuples relation: a run it held is read back first, and the
// run is sealed — and its summary collected — afresh on next use.
func (r *Relation) Add(t Tuple) error {
	if len(t) != r.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.Arity())
	}
	r.sealed.Lock()
	defer r.sealed.Unlock()
	if r.Tuples == nil {
		r.Tuples = r.sealed.run.Tuples()
	}
	r.Tuples = append(r.Tuples, t.Clone())
	r.sealed.run, r.sealed.sum = nil, nil
	return nil
}

// MustAdd is Add that panics on arity mismatch.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// AttrIndex returns the column index of attribute name, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// String renders a compact description (name, schema, cardinality).
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%s)[%d tuples]", r.Name, strings.Join(r.Attrs, ","), r.Size())
}

// IsMatching reports whether the relation is an a-dimensional matching
// over [n]: it has exactly n tuples and every column contains each of
// 1..n exactly once.
func (r *Relation) IsMatching(n int) bool {
	rows := r.Rows()
	if len(rows) != n {
		return false
	}
	for col := 0; col < r.Arity(); col++ {
		seen := make([]bool, n+1)
		for _, t := range rows {
			v := t[col]
			if v < 1 || v > n || seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// Matching generates a random a-dimensional matching over [n] using
// rng: each column beyond the first is an independent uniform
// permutation of [n] (the first column is the identity, which is a
// uniform representative because matchings are column-permutation
// families with (n!)^(a−1) members, exactly the count used in the
// paper's entropy argument).
func Matching(rng *rand.Rand, name string, attrs []string, n int) *Relation {
	r := New(name, attrs...)
	a := len(attrs)
	cols := make([][]int, a)
	for c := 0; c < a; c++ {
		cols[c] = make([]int, n)
		for i := 0; i < n; i++ {
			cols[c][i] = i + 1
		}
		if c > 0 {
			rng.Shuffle(n, func(i, j int) { cols[c][i], cols[c][j] = cols[c][j], cols[c][i] })
		}
	}
	for i := 0; i < n; i++ {
		t := make(Tuple, a)
		for c := 0; c < a; c++ {
			t[c] = cols[c][i]
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// IdentityMatching returns the identity matching
// {(1,1,…),(2,2,…),…,(n,n,…)} used by the retraction construction in
// the multi-round lower bound (Section 4.2.3).
func IdentityMatching(name string, attrs []string, n int) *Relation {
	r := New(name, attrs...)
	a := len(attrs)
	for i := 1; i <= n; i++ {
		t := make(Tuple, a)
		for c := 0; c < a; c++ {
			t[c] = i
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// SkewedZipf generates a binary relation of n tuples whose first
// column is drawn from a Zipf-like distribution (heavy hitters) and
// whose second column is uniform. Matching databases have no skew;
// this generator exists to contrast HC behaviour on skewed inputs.
func SkewedZipf(rng *rand.Rand, name string, attrs []string, n int, s float64) *Relation {
	if len(attrs) != 2 {
		panic("relation.SkewedZipf: binary schema required")
	}
	// Build a cumulative Zipf table over [n].
	weights := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(i+1), s)
		weights[i] = w
		total += w
	}
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	r := New(name, attrs...)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		r.Tuples = append(r.Tuples, Tuple{lo + 1, rng.IntN(n) + 1})
	}
	return r
}

// Database is a collection of relations keyed by name.
type Database struct {
	// N is the domain size [n].
	N int
	// Relations maps relation name → relation.
	Relations map[string]*Relation
	order     []string

	statsMu     sync.Mutex
	cachedStats *Stats
}

// NewDatabase returns an empty database over domain [n].
func NewDatabase(n int) *Database {
	return &Database{N: n, Relations: make(map[string]*Relation)}
}

// DatabaseOf returns the relations, in the order given, over the
// smallest domain [n] holding every value they hold (n ≥ 1) — the
// database an upload of them registers.
func DatabaseOf(rels ...*Relation) *Database {
	n := 1
	for _, r := range rels {
		n = max(n, r.MaxValue())
	}
	db := NewDatabase(n)
	for _, r := range rels {
		db.AddRelation(r)
	}
	return db
}

// AddRelation inserts a relation, replacing any with the same name,
// and drops the memoized catalog (see Stats). The insertion
// happens under the statistics lock, so it serializes with a
// concurrent Stats() collection; like the rest of Database, it is not
// otherwise synchronized against concurrent readers.
func (db *Database) AddRelation(r *Relation) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if _, exists := db.Relations[r.Name]; !exists {
		db.order = append(db.order, r.Name)
	}
	db.Relations[r.Name] = r
	db.cachedStats = nil
}

// Relation fetches a relation by name.
func (db *Database) Relation(name string) (*Relation, bool) {
	r, ok := db.Relations[name]
	return r, ok
}

// Names returns relation names in insertion order.
func (db *Database) Names() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// BitsPerValue returns the number of bits used to encode one domain
// value of [n]: ⌈log2(n+1)⌉. It fixes the Θ(log n) tuple cost used by
// the MPC engine's communication accounting.
func BitsPerValue(n int) int { return ceilLog2(n + 1) }

// InputBits returns the paper's N: the number of bits to encode the
// database, O(n log n) per relation — we use the concrete count
// Σ_j |S_j| · a_j · ⌈log2(n+1)⌉.
func (db *Database) InputBits() int64 {
	bitsPerValue := int64(BitsPerValue(db.N))
	var total int64
	for _, r := range db.Relations {
		total += int64(r.Size()) * int64(r.Arity()) * bitsPerValue
	}
	return total
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 1
	}
	b := 0
	v := x - 1
	for v > 0 {
		v >>= 1
		b++
	}
	return b
}
