package localjoin

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file implements the worst-case-optimal multiway join (WCOJ), a
// leapfrog-triejoin-style evaluator: every atom's tuples are projected
// onto its distinct variables, sorted lexicographically in the global
// variable order, and exposed as a sorted trie; the join then binds one
// variable at a time by leapfrogging the sorted value lists of every
// atom containing that variable. On cyclic queries (triangles, cycles)
// this runs within the AGM bound instead of materializing the
// super-linear pairwise intermediates the hash-join pipeline builds,
// and it is robust to skew: a heavy join value narrows every
// participating trie at once.
//
// The data path is packed end to end. An atom's input is a sealed
// relation.Run — one uint64 word per tuple; several runs are merged into
// one first, which a worker store has already done — and the trie is the
// run's trie index in the atom's level order (Run.Index): the rows as
// sorted words, which alias the run when the level order is the atom's
// column order and are its bit-fields permuted and re-sorted when it is
// not (T(z,x) under the order x,z) or when the atom repeats a variable,
// plus a level-0 directory of bucket starts. A sealed run remembers its
// index, so a second join over the same run builds nothing. Every seek is
// a search over contiguous integers, compared as whole words — no
// per-tuple allocation, no comparator indirection and no field extraction
// per probe — and one at level 0 looks only inside its target's bucket. A
// variable that one atom alone binds is not searched at all: that atom's
// distinct values are read in place, each starting where open bounded the
// one before. Runs holding a value that does not fit a word (the run's
// flat layout) fall back to a sorted []relation.Tuple trie with identical
// semantics, always leapfrogged.
//
// Answers are appended to a scratch run drawn from a pool, whose memory
// outlives the join, and kept as one exact-size copy: an answer's memory
// is allocated once, at its size, not grown a quarter at a time.

// trieRel is a sorted-trie view of one atom's tuples. Level d of the
// trie is the atom's d-th distinct variable in global variable order.
type trieRel struct {
	levels []trieLevel

	// Packed layout: row i is keys[i], level d the mask-wide field at
	// bit offset levels[d].shift. keys may alias a sealed run, or the
	// order it remembers: read-only. starts and top are the level-0
	// directory of relation.TrieIndex (nil under 64 rows): bucket b,
	// the rows whose key>>top is b, starts at row starts[b].
	keys   []uint64
	mask   uint64
	starts []uint32
	top    uint

	// Fallback layout: tuples sorted by the levels' positions col.
	tuples []relation.Tuple
}

// trieLevel is the state of one trie level: what a seek touches, side
// by side.
type trieLevel struct {
	depth  int // global depth of the level's variable
	lo, hi int // rows consistent with the currently bound prefix; level 0 is the whole relation
	cur    int // cursor: first row of the last sought value

	shift uint   // packed: bit offset of the level's field
	pre   uint64 // packed: the bits above the field, shared by every row of [lo, hi)

	col int // fallback: tuple position of the level
}

// splitRepeats sorts atom's positions into first occurrences of a
// variable and, for every repeated occurrence, the position pair
// (first occurrence, repeat). A tuple matches the atom only when every
// pair holds equal values — S(x,x) drops (1,2). Computed once per atom.
func splitRepeats(atom query.Atom) (first []int, eq [][2]int) {
next:
	for j, v := range atom.Vars {
		for f := 0; f < j; f++ {
			if atom.Vars[f] == v {
				eq = append(eq, [2]int{f, j})
				continue next
			}
		}
		first = append(first, j)
	}
	return first, eq
}

// consistentRepeats reports whether t holds equal values at every
// repeated-variable position pair.
func consistentRepeats(t relation.Tuple, eq [][2]int) bool {
	for _, e := range eq {
		if t[e[0]] != t[e[1]] {
			return false
		}
	}
	return true
}

// newTrieRel builds the trie for one atom from its columnar runs (all
// of the atom's arity): project onto distinct variables (dropping
// tuples with inconsistent repeats), order the columns by the
// variables' global depths, and sort — skipping whatever of that the
// runs already guarantee. Sealed runs are only read, never reordered.
func newTrieRel(atom query.Atom, runs []*relation.Run, depthOf map[string]int) *trieRel {
	arity := atom.Arity()
	// pos[d] is the tuple position supplying trie level d: first
	// occurrences, ordered by global depth.
	pos, eq := splitRepeats(atom)
	sort.Slice(pos, func(i, j int) bool { return depthOf[atom.Vars[pos[i]]] < depthOf[atom.Vars[pos[j]]] })
	m := len(pos)
	tr := &trieRel{levels: make([]trieLevel, m)}
	for d, j := range pos {
		tr.levels[d].depth, tr.levels[d].col = depthOf[atom.Vars[j]], j
	}

	// A worker store reads as one run; whoever hands over several has
	// them merged here (packed with flat gives flat).
	run := runs[0]
	if len(runs) > 1 {
		run = relation.Merge(runs)
	}
	words, packed := run.Words()
	if packed && arity == 1 && run.Sealed() && len(words) > 0 && words[len(words)-1] > math.MaxInt {
		// A full-width word with the top bit set (only a foreign peer
		// sends one; Append admits none) reads back as a negative value,
		// which the unsigned word order misplaces; the tuple layout orders
		// it.
		packed = false
	}
	if !packed {
		// Fallback: some value does not fit a word. Materialize once
		// and sort with a comparator.
		tuples := run.Tuples()
		kept := tuples[:0]
		for _, t := range tuples {
			if consistentRepeats(t, eq) {
				kept = append(kept, t)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			a, b := kept[i], kept[j]
			for _, c := range pos {
				if a[c] != b[c] {
					return a[c] < b[c]
				}
			}
			return false
		})
		tr.tuples = kept
		tr.levels[0].hi = len(kept)
		return tr
	}

	// Words carry arity fields of shift bits, most significant first;
	// the trie keeps that width for its m ≤ arity levels.
	shift := relation.PackedShift(arity)
	tr.mask = relation.PackedMask(shift)
	for d := range tr.levels {
		tr.levels[d].shift = uint(m-1-d) * shift
	}
	// The run's trie index in level order — its own words when that is its
	// column order, else the bit-fields permuted (repeats checked on the
	// words) and re-sorted — with the level-0 directory: once per sealed
	// run, not per join.
	ix := run.Index(pos, eq)
	tr.keys, tr.starts, tr.top = ix.Keys, ix.Starts, ix.Shift
	tr.levels[0].hi = len(tr.keys)
	return tr
}

// at returns the level-d value of row i of the tuple layout.
func (tr *trieRel) at(d, i int) int { return tr.tuples[i][tr.levels[d].col] }

// reset rewinds the level-d cursor to the start of the current prefix
// range; callers do this when they start a fresh intersection pass.
func (tr *trieRel) reset(d int) { tr.levels[d].cur = tr.levels[d].lo }

// seek returns the smallest value ≥ v at trie level d within the
// current prefix range, or ok=false when the range is exhausted.
// Successive seeks at one level must use non-decreasing v (the
// leapfrog discipline); the cursor then advances monotonically and a
// full intersection pass costs amortized O(rows) instead of
// O(values · log rows), via galloping from the previous position.
//
// On the packed layout every row of the range shares the bits above
// level d's field (pre), so the first row whose field is ≥ v is the
// first word ≥ pre | v<<shift: the search compares whole words and
// extracts a field once, from the row it lands on. A v below every field
// value seeks 0; one above the field mask — a wider value from an atom
// of another arity — exhausts the range.
//
// Level 0 spans the whole relation, and when its variable is not the
// first of the order its cursor restarts at row 0 under every binding of
// the variables above it: a gallop from there would cost ≈ 2·log₂ n
// scattered loads per probe. With a directory the search instead reads
// the target's bucket bounds and looks only between the cursor (or the
// bucket's first row, whichever is later) and the bucket's end — every
// row before the bucket is below the target, every row after it above.
func (tr *trieRel) seek(d, v int) (int, bool) {
	l := &tr.levels[d]
	i := l.cur
	if i >= l.hi {
		return 0, false
	}
	if tr.tuples != nil {
		if val := tr.at(d, i); val >= v {
			return val, true
		}
		i = tr.bound(d, i, l.hi, v)
		l.cur = i
		if i == l.hi {
			return 0, false
		}
		return tr.at(d, i), true
	}
	v = max(v, 0)
	if uint64(v) > tr.mask {
		l.cur = l.hi
		return 0, false
	}
	if target := l.pre | uint64(v)<<l.shift; tr.keys[i] < target {
		hi := l.hi
		if d == 0 && tr.starts != nil {
			b := target >> tr.top
			if b >= uint64(len(tr.starts)) {
				l.cur = l.hi
				return 0, false
			}
			i = max(i, int(tr.starts[b]))
			if b+1 < uint64(len(tr.starts)) {
				hi = int(tr.starts[b+1])
			}
		}
		if i < hi && tr.keys[i] < target {
			i = boundWords(tr.keys, i, hi, target)
		}
		l.cur = i
		if i == l.hi {
			return 0, false
		}
	}
	return int(tr.keys[i] >> l.shift & tr.mask), true
}

// open narrows level d+1 to the rows whose level-d value equals v. It
// must follow a seek that returned v, so the cursor sits on the first
// occurrence. The last level has nothing below it to narrow, and the
// largest value a level can hold no successor to search for: its rows
// run to the end of the range.
func (tr *trieRel) open(d, v int) {
	if d+1 == len(tr.levels) {
		return
	}
	l, next := &tr.levels[d], &tr.levels[d+1]
	next.lo, next.hi = l.cur, l.hi
	if tr.tuples != nil {
		if v < math.MaxInt {
			next.hi = tr.bound(d, l.cur, l.hi, v+1)
		}
		return
	}
	next.pre = l.pre | uint64(v)<<l.shift
	if uint64(v) < tr.mask {
		next.hi = boundWords(tr.keys, l.cur, l.hi, next.pre+1<<l.shift)
	}
}

// next returns the first row of level d's range past the value its
// cursor sits on, on the packed layout: where open bounded the level
// below, or — on the last level, which open leaves unbounded — past the
// cursor row's repeats. The last level's field is the word's lowest and
// the range shares every bit above it, so a repeat is an equal word.
func (tr *trieRel) next(d int) int {
	if d+1 < len(tr.levels) {
		return tr.levels[d+1].hi
	}
	l := &tr.levels[d]
	i, key := l.cur+1, tr.keys[l.cur]
	if i < l.hi && tr.keys[i] == key {
		if key == math.MaxUint64 {
			return l.hi
		}
		i = boundWords(tr.keys, i, l.hi, key+1)
	}
	return i
}

// bound returns the first row in (i, hi] of the tuple layout whose
// level-d value is ≥ v (hi when there is none), given that row i's value
// is below v: gallop from i in doubling strides to bracket the row, then
// bisect the bracket.
func (tr *trieRel) bound(d, i, hi, v int) int {
	step := 1
	for i+step < hi && tr.at(d, i+step) < v {
		i += step
		step <<= 1
	}
	lo, up := i+1, min(hi, i+step)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if tr.at(d, mid) < v {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo
}

// boundWords is bound on the packed layout: the first row in (i, hi] of
// keys that is ≥ target, given keys[i] < target.
func boundWords(keys []uint64, i, hi int, target uint64) int {
	step := 1
	for i+step < hi && keys[i+step] < target {
		i += step
		step <<= 1
	}
	lo, up := i+1, min(hi, i+step)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if keys[mid] < target {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo
}

// participant is one atom's trie at the level where a global variable
// is bound.
type participant struct {
	tr *trieRel
	d  int // trie level of the variable inside this atom
}

// EvaluateRuns computes q over sealed runs by leapfrog intersection
// along the global variable order — walking in place the values of a
// variable only one atom binds — and returns the answers, in the variable
// order q.Vars(), deduplicated, as one sealed run whose payload is
// exactly their size, or nil when there are none. The answers are built
// in a pooled scratch run and copied out, so the returned run shares no
// memory with it or with any other call's. A relation without runs is
// empty. The runs are only read: a trie may alias a run's words, and the
// same runs can be joined again (or re-sent by a recovery journal) after
// the call.
func EvaluateRuns(q *query.Query, runs Runs) (*relation.Run, error) {
	// Validate every atom before the empty-input shortcut, so an arity
	// mismatch is reported whatever the other atoms hold.
	empty := false
	for _, a := range q.Atoms {
		rows := 0
		for _, run := range runs[a.Name] {
			if run.Len() > 0 && run.Arity() != a.Arity() {
				return nil, arityError(run.Arity(), a)
			}
			rows += run.Len()
		}
		empty = empty || rows == 0
	}
	if empty {
		return nil, nil
	}

	varOrder := variableOrder(q)
	k := len(varOrder)
	depthOf := make(map[string]int, k)
	for d, v := range varOrder {
		depthOf[v] = d
	}
	parts := make([][]participant, k)
	for _, a := range q.Atoms {
		tr := newTrieRel(a, runs[a.Name], depthOf)
		for d, l := range tr.levels {
			parts[l.depth] = append(parts[l.depth], participant{tr: tr, d: d})
		}
	}

	// outCol[i] is the global depth of q.Vars()[i].
	outCol := make([]int, q.NumVars())
	for i, v := range q.Vars() {
		outCol[i] = depthOf[v]
	}

	binding := make([]int, k)
	row := make(relation.Tuple, len(outCol))
	out := scratch.Get().(*relation.Run)
	out.Reset(len(outCol))
	var rec func(g int)
	rec = func(g int) {
		if g == k {
			for i, c := range outCol {
				row[i] = binding[c]
			}
			out.Append(row)
			return
		}
		ps := parts[g]
		if p := ps[0]; len(ps) == 1 && p.tr.tuples == nil {
			// One atom alone binds the variable: there is nothing to
			// intersect, so its distinct values are read in place, each
			// starting where the last one's rows end. A one-participant
			// leapfrog finds the same values, but its per-value bookkeeping
			// costs BenchmarkWorkerJoinChain about a quarter more time.
			tr, l := p.tr, &p.tr.levels[p.d]
			for i := l.lo; i < l.hi; i = tr.next(p.d) {
				l.cur = i
				v := int(tr.keys[i] >> l.shift & tr.mask)
				tr.open(p.d, v)
				binding[g] = v
				rec(g + 1)
			}
			return
		}
		// Leapfrog: cycle through the participants, raising the target
		// value to each one's next feasible value until all agree.
		for _, p := range ps {
			p.tr.reset(p.d)
		}
		v := math.MinInt
		i, agree := 0, 0
		for {
			val, ok := ps[i].tr.seek(ps[i].d, v)
			if !ok {
				return
			}
			if val == v {
				agree++
			} else {
				v, agree = val, 1
			}
			if agree == len(ps) {
				for _, p := range ps {
					p.tr.open(p.d, v)
				}
				binding[g] = v
				rec(g + 1)
				if v == math.MaxInt {
					return
				}
				// open bounded v's rows: the next seek starts past them
				// instead of galloping over them again.
				for _, p := range ps {
					if p.d+1 < len(p.tr.levels) {
						p.tr.levels[p.d].cur = p.tr.levels[p.d+1].hi
					}
				}
				v, agree = v+1, 0
			}
			i++
			if i == len(ps) {
				i = 0
			}
		}
	}
	rec(0)
	var answers *relation.Run
	if out.Len() > 0 {
		answers = out.Clone().Dedup()
	}
	scratch.Put(out)
	return answers, nil
}

// scratch holds the runs EvaluateRuns appends its answers to. A scratch
// outlives the join that filled it, so its payload grows once over many
// joins instead of a quarter at a time in each, and every join keeps an
// exact-size copy and hands the scratch back. The pool is safe under the
// concurrent joins a Loopback runs, one per worker.
var scratch = sync.Pool{New: func() any { return new(relation.Run) }}

// arityError is the error every strategy reports for a tuple (or run)
// whose arity differs from its atom's.
func arityError(got int, atom query.Atom) error {
	return fmt.Errorf("localjoin: tuple arity %d != atom %s arity %d", got, atom.Name, atom.Arity())
}
