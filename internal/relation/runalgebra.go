package relation

import "fmt"

// This file is the run algebra: union, difference and projection of
// sealed runs, each producing one sealed run. Between a gather's wire
// decode and the final materialization of an answer the coordinator
// stays on these — linear passes over pointer-free rows of words — and
// never builds a []Tuple of a whole view; a worker keeps its tombstones
// with them. Runs of one arity at different strides meet at the widest
// one: the narrower runs' rows are re-encoded there. Inputs are only
// read (the recovery journal may re-send the same runs).

// Merge returns the sorted, deduplicated union of the runs as one
// sealed run: one k-way merge (mergeSorted) over their rows at the
// widest stride among them. Nil and empty runs are skipped; with no
// tuples at all the result is nil.
// All runs must share one arity (they are the per-worker pieces of one
// view, so mixed arities indicate a routing bug and panic).
func Merge(runs []*Run) *Run {
	live := runs[:0:0]
	for _, r := range runs {
		if r.Len() == 0 {
			continue
		}
		if len(live) > 0 && r.arity != live[0].arity {
			panic(fmt.Sprintf("relation: merge of arity-%d and arity-%d runs", live[0].arity, r.arity))
		}
		r.Seal()
		live = append(live, r)
	}
	if len(live) == 0 {
		return nil
	}
	l := widest(live...)
	rows := make([][]uint64, len(live))
	for i, r := range live {
		rows[i] = r.at(l)
	}
	return &Run{layout: l, words: mergeSorted(rows, l.stride), sealed: true}
}

// mergeSorted is the one k-way merge of the package: the sorted,
// deduplicated union of sorted row sequences of the given stride,
// freshly allocated. It is a balanced tree of two-way merges: each pass
// merges neighbouring runs pairwise, ⌈log₂ k⌉ passes in all, every one
// a branch-light linear scan — the shape that makes folding a Δ into a
// sorted closure (k = 2) a single copy-speed pass and beats a cursor
// heap at gather fan-ins too. Passes alternate between two arenas of
// the total input size; the result is a prefix of one of them.
func mergeSorted(runs [][]uint64, stride int) []uint64 {
	live := make([][]uint64, 0, len(runs))
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	if total == 0 {
		return nil
	}
	var arenas [2][]uint64
	for pass := 0; ; pass++ {
		dst := arenas[pass%2]
		if dst == nil {
			dst = make([]uint64, total)
			arenas[pass%2] = dst
		}
		merged, off := live[:0], 0
		for i := 0; i < len(live); i += 2 {
			var b []uint64 // an odd run out merges with nothing: a deduplicating copy
			if i+1 < len(live) {
				b = live[i+1]
			}
			span := len(live[i]) + len(b)
			n := mergePair(dst[off:off+span], live[i], b, stride)
			merged = append(merged, dst[off:off+n])
			off += span
		}
		if live = merged; len(live) == 1 {
			return live[0]
		}
	}
}

// mergePair writes the sorted, deduplicated union of the sorted row
// sequences a and b into dst (len(dst) ≥ len(a)+len(b)) and returns
// the number of values written. Duplicates are dropped across and
// within the inputs: a row is written only when it differs from the
// last one written. One-word rows take a scalar loop — half the cost
// per word of the strided one, and the loop every fixpoint iteration
// and worker trie build runs.
func mergePair(dst, a, b []uint64, stride int) int {
	n := 0
	if stride == 1 {
		put := func(v uint64) {
			if n == 0 || dst[n-1] != v {
				dst[n] = v
				n++
			}
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if v := b[j]; v < a[i] {
				put(v)
				j++
			} else {
				put(a[i])
				i++
			}
		}
		for _, v := range a[i:] {
			put(v)
		}
		for _, v := range b[j:] {
			put(v)
		}
		return n
	}
	put := func(row []uint64) {
		if n == 0 || compareRows(dst[n-stride:n], row) != 0 {
			n += copy(dst[n:], row)
		}
	}
	for len(a) > 0 && len(b) > 0 {
		if compareRows(a[:stride], b[:stride]) <= 0 {
			put(a[:stride])
			a = a[stride:]
		} else {
			put(b[:stride])
			b = b[stride:]
		}
	}
	for ; len(a) > 0; a = a[stride:] {
		put(a[:stride])
	}
	for ; len(b) > 0; b = b[stride:] {
		put(b[:stride])
	}
	return n
}

// Diff returns the tuples of a that are not in b, in a's order, as one
// sealed run — the set difference a semi-naive fixpoint takes against
// what it already knows. Both runs are sorted (they are sealed here if
// not yet); a's multiplicities carry over, so a deduplicated a gives a
// deduplicated result. When there is nothing to subtract the result is
// a itself — sealed runs are immutable, so sharing is safe.
func Diff(a, b *Run) *Run {
	if a.Len() == 0 || b.Len() == 0 {
		return a
	}
	if a.arity != b.arity {
		panic(fmt.Sprintf("relation: diff of arity-%d and arity-%d runs", a.arity, b.arity))
	}
	a.Seal()
	b.Seal()
	l := widest(a, b)
	return &Run{layout: l, words: diffSorted(a.at(l), b.at(l), l.stride), sealed: true}
}

// diffSorted returns the rows of a absent from b (both sorted, same
// stride), freshly allocated. b is searched by galloping from the last
// match — doubling steps, then bisection — so subtracting a large
// closure from a small Δ costs O(|Δ|·log) row comparisons, not a scan
// of the closure. One-word rows take a scalar loop, as in mergePair:
// every fixpoint iteration runs it.
func diffSorted(a, b []uint64, stride int) []uint64 {
	out := make([]uint64, 0, len(a))
	if stride == 1 {
		j := 0
		for _, v := range a {
			step := 1
			for j+step <= len(b) && b[j+step-1] < v {
				j += step
				step *= 2
			}
			lo, hi := j, min(j+step-1, len(b))
			for lo < hi {
				if mid := (lo + hi) / 2; b[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if j = lo; j == len(b) || b[j] != v {
				out = append(out, v)
			}
		}
		return out
	}
	nb := len(b) / stride
	j := 0 // first row of b not known to be < the current row of a
	for i := 0; i < len(a); i += stride {
		row := a[i : i+stride]
		step := 1
		for j+step <= nb && compareRows(b[(j+step-1)*stride:(j+step)*stride], row) < 0 {
			j += step
			step *= 2
		}
		lo, hi := j, min(j+step-1, nb) // b[lo-1] < row ≤ b[hi] (or hi == nb)
		for lo < hi {
			mid := (lo + hi) / 2
			if compareRows(b[mid*stride:(mid+1)*stride], row) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j = lo
		if j == nb || compareRows(b[j*stride:(j+1)*stride], row) != 0 {
			out = append(out, row...)
		}
	}
	return out
}

// Project returns the run's tuples restricted to the columns cols, in
// that order (a selection, a permutation, or both), sorted and
// deduplicated, as one sealed run. The result picks its own stride:
// projecting a wide run onto few columns may take fewer words a row.
func Project(run *Run, cols []int) *Run {
	if run == nil {
		return nil
	}
	out := NewRun(len(cols))
	n := run.Len()
	out.Grow(n)
	row := make(Tuple, run.arity)
	sel := make(Tuple, len(cols))
	for i := 0; i < n; i++ {
		run.Row(i, row)
		for j, c := range cols {
			sel[j] = row[c]
		}
		out.Append(sel)
	}
	return out.Dedup()
}
