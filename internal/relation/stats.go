package relation

import (
	"fmt"
	"strings"
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

// ColByName returns the stats of the named column, or nil.
func (rs *RelationStats) ColByName(attr string) *ColumnStats {
	for i, a := range rs.Attrs {
		if a == attr {
			return rs.Cols[i]
		}
	}
	return nil
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
// written after it is built, so snapshots, the Database memo and an
// IncrementalStats may share one.
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
// one radix sort per column into a histogram run, O(|R|·arity).
func CollectRelationStats(r *Relation) *RelationStats {
	return NewIncStats(r).Snapshot()
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
	return scanStats(db).Snapshot()
}

// Stats returns the database's statistics catalog, collecting it on
// first use and memoizing it for every later call — the serving layer
// amortizes the O(Σ|S_j|·a_j) scan across all queries that hit the
// same resident dataset. The histograms the scan built are kept beside
// the catalog for NewIncrementalStats to adopt; AddRelation drops
// both. The returned catalog is shared and must be treated as
// read-only; concurrent callers are safe.
func (db *Database) Stats() *Stats {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.cachedStats == nil {
		db.statsHists = scanStats(db)
		db.cachedStats = db.statsHists.Snapshot()
	}
	return db.cachedStats
}

// InstallStats installs a precomputed catalog as the database's memo,
// so the next Stats call returns it without a collection scan. The
// incremental-maintenance path uses it to seed a post-delta snapshot's
// catalog from the delta instead of re-scanning; the caller guarantees
// s describes the database's current contents.
func (db *Database) InstallStats(s *Stats) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	db.cachedStats = s
}

// Relation returns the summary of the named relation, or nil.
func (s *Stats) Relation(name string) *RelationStats {
	if s == nil {
		return nil
	}
	return s.Relations[name]
}

// Size returns the cardinality of the named relation and whether it is
// known.
func (s *Stats) Size(name string) (int, bool) {
	rs := s.Relation(name)
	if rs == nil {
		return 0, false
	}
	return rs.Count, true
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

// TotalTuples returns the summed cardinality Σ_j |S_j|.
func (s *Stats) TotalTuples() int {
	total := 0
	for _, rs := range s.Relations {
		total += rs.Count
	}
	return total
}

// MaxCount returns the largest relation cardinality (the n of the
// paper's per-relation bounds), or 0 for an empty catalog.
func (s *Stats) MaxCount() int {
	max := 0
	for _, rs := range s.Relations {
		if rs.Count > max {
			max = rs.Count
		}
	}
	return max
}
