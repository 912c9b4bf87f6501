package relation

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"repro/internal/query"
)

// This file holds the relational-algebra operators used both by the
// single-node reference evaluator (ground truth in tests) and by the
// per-worker local join.

// NaturalJoin joins r and s on their shared attribute names. The
// output schema is r.Attrs followed by the attributes of s not in r.
// It reads both through Rows.
func NaturalJoin(r, s *Relation) *Relation {
	r, s = &Relation{Name: r.Name, Attrs: r.Attrs, Tuples: r.Rows()}, &Relation{Name: s.Name, Attrs: s.Attrs, Tuples: s.Rows()}
	shared := sharedAttrs(r, s)
	outAttrs := make([]string, 0, len(r.Attrs)+len(s.Attrs))
	outAttrs = append(outAttrs, r.Attrs...)
	var sExtra []int // column indices of s not in r
	for i, a := range s.Attrs {
		if r.AttrIndex(a) < 0 {
			outAttrs = append(outAttrs, a)
			sExtra = append(sExtra, i)
		}
	}
	out := New(r.Name+"⋈"+s.Name, outAttrs...)

	if len(shared) == 0 {
		// Cartesian product.
		for _, tr := range r.Tuples {
			for _, ts := range s.Tuples {
				out.Tuples = append(out.Tuples, combine(tr, ts, sExtra))
			}
		}
		return out
	}

	// Hash s on the shared attributes, with packed uint64 keys when
	// the joined columns fit and string keys otherwise.
	rIdx := make([]int, len(shared))
	sIdx := make([]int, len(shared))
	for i, a := range shared {
		rIdx[i] = r.AttrIndex(a)
		sIdx[i] = s.AttrIndex(a)
	}
	if shift, ok := packShift(len(shared), [2]*Relation{r, s}, [2][]int{rIdx, sIdx}); ok {
		hashJoinInto(out, r, s, rIdx, sIdx, sExtra, func(t Tuple, idx []int) uint64 {
			return packColumns(t, idx, shift)
		})
	} else {
		hashJoinInto(out, r, s, rIdx, sIdx, sExtra, projectKey)
	}
	return out
}

// hashJoinInto performs the indexed hash join with an arbitrary
// comparable key type (packed uint64 fast path, string fallback).
//
// The build side is a chained index — head maps a key to the first
// matching tuple position in s, next links the rest — so the map holds
// one fixed-size entry per distinct key instead of a growing []Tuple
// per key. Output rows are sliced out of chunked arenas rather than
// allocated per probe hit; on skewed inputs (heavy keys, quadratic
// output) both together remove the allocation traffic that used to
// dominate this path.
func hashJoinInto[K comparable](out, r, s *Relation, rIdx, sIdx []int, sExtra []int, key func(Tuple, []int) K) {
	head := make(map[K]int32, len(s.Tuples))
	next := make([]int32, len(s.Tuples))
	// Building in reverse index order leaves each chain sorted by s
	// position, preserving the probe output order of the slice index.
	for i := len(s.Tuples) - 1; i >= 0; i-- {
		k := key(s.Tuples[i], sIdx)
		if j, ok := head[k]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		head[k] = int32(i)
	}
	// Counting pre-pass: chain walks are cheap relative to reallocating
	// the output while it grows, so size the header slice and the value
	// arena exactly — one allocation each, no growth copies and no
	// write-barrier churn from append doubling.
	total := 0
	for _, tr := range r.Tuples {
		j, ok := head[key(tr, rIdx)]
		if !ok {
			continue
		}
		for ; j >= 0; j = next[j] {
			total++
		}
	}
	if total == 0 {
		return
	}
	width := len(r.Attrs) + len(sExtra)
	arena := make([]int, 0, total*width)
	out.Tuples = slices.Grow(out.Tuples, total)
	for _, tr := range r.Tuples {
		j, ok := head[key(tr, rIdx)]
		if !ok {
			continue
		}
		for ; j >= 0; j = next[j] {
			n := len(arena)
			arena = arena[:n+width]
			row := Tuple(arena[n : n+width : n+width])
			copy(row, tr)
			o := len(tr)
			for _, x := range sExtra {
				row[o] = s.Tuples[j][x]
				o++
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
}

// packShift returns the per-column bit width that packs the indexed
// columns of both relations into a uint64 key, or ok=false when some
// value is negative or too large.
func packShift(cols int, rels [2]*Relation, idxs [2][]int) (uint, bool) {
	if cols < 1 || cols > 64 {
		return 0, false
	}
	shift := uint(64 / cols)
	for k, rel := range rels {
		for _, t := range rel.Tuples {
			for _, j := range idxs[k] {
				if bitsFor(t[j]) > min(shift, 63) { // a negative value needs 64
					return 0, false
				}
			}
		}
	}
	return shift, true
}

// packColumns encodes the indexed values of t with shift bits each.
func packColumns(t Tuple, idx []int, shift uint) uint64 {
	var key uint64
	for _, j := range idx {
		key = key<<shift | uint64(t[j])
	}
	return key
}

func sharedAttrs(r, s *Relation) []string {
	var out []string
	for _, a := range r.Attrs {
		if s.AttrIndex(a) >= 0 {
			out = append(out, a)
		}
	}
	return out
}

func projectKey(t Tuple, idx []int) string {
	var sb strings.Builder
	for i, j := range idx {
		if i > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "%d", t[j])
	}
	return sb.String()
}

func combine(tr, ts Tuple, sExtra []int) Tuple {
	out := make(Tuple, 0, len(tr)+len(sExtra))
	out = append(out, tr...)
	for _, j := range sExtra {
		out = append(out, ts[j])
	}
	return out
}

// MatchingDatabase generates, for every atom of q, an independent
// random matching over [n] with the atom's variables as schema —
// the uniformly random matching database of Section 2.5.
func MatchingDatabase(rng *rand.Rand, q *query.Query, n int) *Database {
	db := NewDatabase(n)
	for _, a := range q.Atoms {
		db.AddRelation(Matching(rng, a.Name, a.Vars, n))
	}
	return db
}

// IdentityDatabase generates the identity matching for every atom.
func IdentityDatabase(q *query.Query, n int) *Database {
	db := NewDatabase(n)
	for _, a := range q.Atoms {
		db.AddRelation(IdentityMatching(a.Name, a.Vars, n))
	}
	return db
}

// Bind returns the view of db that q reads, which every front door
// plans, executes and caps q over: q's relations alone, each under its
// atom's variables (WithAttrs), sharing db's runs and summaries. Every
// atom must name a relation of db of its arity.
func (db *Database) Bind(q *query.Query) (*Database, error) {
	view := NewDatabase(db.N)
	for _, a := range q.Atoms {
		r, ok := db.Relation(a.Name)
		if !ok {
			return nil, fmt.Errorf("database has no relation %s (has: %s)", a.Name, strings.Join(db.Names(), ", "))
		}
		if r.Arity() != a.Arity() {
			return nil, fmt.Errorf("relation %s has arity %d, atom %s needs %d", a.Name, r.Arity(), a, a.Arity())
		}
		view.AddRelation(r.WithAttrs(a.Vars))
	}
	return view, nil
}
