package relation

import (
	"fmt"
	"strings"
	"sync"
)

// ValueCount pairs a domain value with its number of occurrences in
// one column.
type ValueCount struct {
	// Value is the domain value.
	Value int
	// Count is its frequency in the column.
	Count int
}

// ColumnStats summarizes the value distribution of one relation column.
// It is what the paper's Section 2.4 allows an input server to compute
// over its own relation before the first communication round: counts,
// not data.
type ColumnStats struct {
	// Distinct is the number of distinct values in the column.
	Distinct int
	// MaxFreq is the frequency of the most common value (1 on a
	// matching, where every column is a permutation).
	MaxFreq int
	// Hist is the column's exact histogram run: every distinct value
	// ascending, each with its count. It is shared with the catalog that
	// built it and must be treated as read-only; nil on synthesized
	// catalogs (plan.MatchingStats) that describe no concrete column.
	Hist []ValueCount
}

// RelationStats is the planner-facing summary of one relation:
// cardinality plus per-column value distributions.
type RelationStats struct {
	// Name is the relation symbol.
	Name string
	// Count is the relation's cardinality |R|.
	Count int
	// Attrs names the columns, aligned with Cols.
	Attrs []string
	// Cols holds one ColumnStats per column, in schema order.
	Cols []*ColumnStats
}

// Col returns the stats of the column at position i, or nil when out of
// range.
func (rs *RelationStats) Col(i int) *ColumnStats {
	if i < 0 || i >= len(rs.Cols) {
		return nil
	}
	return rs.Cols[i]
}

// String renders a one-line summary: |R|=n plus each column's max
// frequency when it exceeds 1 (matching columns are omitted as noise).
func (rs *RelationStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "|%s|=%d", rs.Name, rs.Count)
	for i, c := range rs.Cols {
		if c.MaxFreq > 1 {
			fmt.Fprintf(&sb, " maxfreq(%s)=%d", rs.Attrs[i], c.MaxFreq)
		}
	}
	return sb.String()
}

// signBit flips an int into a uint64 whose unsigned order is the
// int's signed order, so sortRows sorts any labels — 0 and negatives
// included — into the canonical "smaller value first" order.
const signBit = 1 << 63

// sortedColumn extracts column col of ts as order-preserving keys (see
// signBit) and radix-sorts them.
func sortedColumn(ts []Tuple, col int) []uint64 {
	keys := make([]uint64, len(ts))
	for i, t := range ts {
		keys[i] = uint64(t[col]) ^ signBit
	}
	sortRows(keys, 1)
	return keys
}

// hist is one column's histogram run: its distinct values ascending,
// each with its occurrence count. It is the one statistics kernel —
// collection builds it with a radix sort, a delta batch merges into a
// fresh one, and every ColumnStats is read off it. A hist is never
// written after it is built, so every catalog a delta stream passes
// through may share one.
type hist []ValueCount

// ColumnHistogram returns the histogram run of column col of r — what a
// collected ColumnStats carries as Hist — for callers that hold the
// relation but no catalog. It reads r's run.
func ColumnHistogram(r *Relation, col int) []ValueCount {
	run := r.Run()
	keys := make([]uint64, run.Len())
	run.column(col, keys)
	return newHist(keys)
}

// newHist run-length encodes sorted keys.
func newHist(keys []uint64) hist {
	distinct := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct++
		}
	}
	h := make(hist, 0, distinct)
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			h[len(h)-1].Count++
		} else {
			h = append(h, ValueCount{Value: int(k ^ signBit), Count: 1})
		}
	}
	return h
}

// merge returns the histogram of h plus the occurrences add minus the
// occurrences del (both sorted keys) in one pass; values whose count
// falls to zero drop out. h itself is left untouched.
func (h hist) merge(add, del []uint64) hist {
	out := make(hist, 0, len(h)+len(add))
	for i, a, d := 0, 0, 0; i < len(h) || a < len(add); {
		var vc ValueCount
		if a == len(add) || i < len(h) && uint64(h[i].Value)^signBit <= add[a] {
			vc = h[i]
			i++
		} else {
			vc.Value = int(add[a] ^ signBit)
		}
		key := uint64(vc.Value) ^ signBit
		for ; a < len(add) && add[a] == key; a++ {
			vc.Count++
		}
		for ; d < len(del) && del[d] <= key; d++ {
			if del[d] == key {
				vc.Count--
			}
		}
		if vc.Count > 0 {
			out = append(out, vc)
		}
	}
	return out
}

// stats reads the column summary off the histogram in one pass.
func (h hist) stats() *ColumnStats {
	cs := &ColumnStats{Distinct: len(h), Hist: h}
	for _, vc := range h {
		if vc.Count > cs.MaxFreq {
			cs.MaxFreq = vc.Count
		}
	}
	return cs
}

// CollectRelationStats scans one relation and returns its summary:
// one radix sort per column into a histogram run, O(|R|·arity). Each
// column is read off the run into one reused key slice; the first is
// in order already.
func CollectRelationStats(r *Relation) *RelationStats {
	run := r.Run()
	rs := &RelationStats{
		Name:  r.Name,
		Count: run.Len(),
		Attrs: append([]string(nil), r.Attrs...),
		Cols:  make([]*ColumnStats, r.Arity()),
	}
	keys := make([]uint64, run.Len())
	for col := range rs.Cols {
		run.column(col, keys)
		rs.Cols[col] = newHist(keys).stats()
	}
	return rs
}

// Stats is a database-wide statistics catalog keyed by relation name —
// the planner's input alongside the query itself.
type Stats struct {
	// Relations maps relation name → collected summary.
	Relations map[string]*RelationStats
}

// CollectStats scans every relation of the database. In the MPC model
// this is legal "free" preprocessing: each input server computes
// statistics over its own relation only (Section 2.4) and the Θ(p)
// numbers exchanged are negligible against the Ω(n) data.
func CollectStats(db *Database) *Stats {
	out := &Stats{Relations: make(map[string]*RelationStats, len(db.Relations))}
	for name, r := range db.Relations {
		out.Relations[name] = CollectRelationStats(r)
	}
	return out
}

// summary is a relation's statistics memo, shared with its WithAttrs
// views: rs, collected from of — the relation it was made for, frozen
// at that run and schema — or derived by a delta.
type summary struct {
	sync.Mutex
	of *Relation
	rs *RelationStats
}

func (r *Relation) summary() *summary {
	run := r.Run()
	r.sealed.Lock()
	defer r.sealed.Unlock()
	if r.sealed.sum == nil {
		r.sealed.sum = &summary{of: FromRun(r.Name, r.Attrs, run)}
	}
	return r.sealed.sum
}

// Stats returns the relation's summary, collected on first use and
// memoized on the relation, as a sealed run memoizes its trie index:
// every catalog holding the relation or a view of it reads that one.
// It is shared and read-only; concurrent callers are safe.
func (r *Relation) Stats() *RelationStats { return r.memoStats(true) }

// memoStats returns the memoized summary, collecting it when collect
// is set and none is held (nil otherwise).
func (r *Relation) memoStats(collect bool) *RelationStats {
	s := r.summary()
	s.Lock()
	defer s.Unlock()
	if s.rs == nil && collect {
		s.rs = CollectRelationStats(s.of)
	}
	return s.rs
}

// Stats returns the database's catalog of its relations' summaries,
// gathered on first use and memoized; AddRelation drops it. Serving
// amortizes the O(Σ|S_j|·a_j) scan across every query on a resident
// dataset, and ApplyDelta hands the summaries on. The catalog is shared
// and read-only; concurrent callers are safe.
func (db *Database) Stats() *Stats {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.cachedStats == nil {
		db.cachedStats = &Stats{Relations: make(map[string]*RelationStats, len(db.Relations))}
		for name, r := range db.Relations {
			db.cachedStats.Relations[name] = r.Stats()
		}
	}
	return db.cachedStats
}

// Relation returns the summary of the named relation, or nil.
func (s *Stats) Relation(name string) *RelationStats {
	if s == nil {
		return nil
	}
	return s.Relations[name]
}

// Sizes returns a name → cardinality map (the shape the hypercube
// share optimizer consumes).
func (s *Stats) Sizes() map[string]int {
	out := make(map[string]int, len(s.Relations))
	for name, rs := range s.Relations {
		out[name] = rs.Count
	}
	return out
}
