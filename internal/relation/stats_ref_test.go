package relation

import "sort"

// refRelationStats is the frequency-map collector the histogram kernel
// replaced, kept as the tests' oracle: one map[int]int per column. The
// histogram run the kernel's summaries carry (ColumnStats.Hist) is
// emitted from the same map, sorted by value.
func refRelationStats(r *Relation) *RelationStats {
	rs := &RelationStats{
		Name:  r.Name,
		Count: len(r.Tuples),
		Attrs: append([]string(nil), r.Attrs...),
		Cols:  make([]*ColumnStats, r.Arity()),
	}
	for col := 0; col < r.Arity(); col++ {
		freq := make(map[int]int)
		for _, t := range r.Tuples {
			freq[t[col]]++
		}
		cs := &ColumnStats{Distinct: len(freq)}
		cs.Hist = make([]ValueCount, 0, len(freq))
		for v, c := range freq {
			if c > cs.MaxFreq {
				cs.MaxFreq = c
			}
			cs.Hist = append(cs.Hist, ValueCount{Value: v, Count: c})
		}
		sort.Slice(cs.Hist, func(i, j int) bool { return cs.Hist[i].Value < cs.Hist[j].Value })
		rs.Cols[col] = cs
	}
	return rs
}

// heaviest returns the most frequent value of a histogram run, the
// smallest among ties.
func heaviest(h []ValueCount) int {
	best := h[0]
	for _, vc := range h[1:] {
		if vc.Count > best.Count {
			best = vc
		}
	}
	return best.Value
}

// refStats is the oracle catalog of a whole database.
func refStats(db *Database) *Stats {
	s := &Stats{Relations: make(map[string]*RelationStats, len(db.Relations))}
	for _, name := range db.Names() {
		s.Relations[name] = refRelationStats(db.Relations[name])
	}
	return s
}
