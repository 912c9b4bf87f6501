package exchange

import (
	"sync"

	"repro/internal/relation"
)

// MergeRuns k-way merges sealed sorted runs into their deduplicated,
// lexicographically sorted union — the columnar replacement for
// concatenate-then-sort answer gathering. When every run is packed at
// the same arity the merge works directly on uint64 words; otherwise it
// falls back to materializing and relation.DedupSort.
func MergeRuns(runs []*Buffer) []relation.Tuple {
	live := runs[:0:0]
	for _, r := range runs {
		if r != nil && r.Len() > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	arity := live[0].arity
	packed := true
	for _, r := range live {
		if !r.sealed {
			r.Seal()
		}
		if !r.packed || r.arity != arity {
			packed = false
		}
	}
	if !packed {
		var all []relation.Tuple
		for _, r := range live {
			all = r.AppendTuples(all)
		}
		return relation.DedupSort(all)
	}
	words := MergeWords(live)
	// Unpack into tuples over one fresh backing array.
	shift := live[0].shift
	mask := relation.PackedMask(shift)
	backing := make([]int, len(words)*arity)
	out := make([]relation.Tuple, len(words))
	for i, key := range words {
		row := backing[i*arity : (i+1)*arity]
		for j := arity - 1; j >= 0; j-- {
			row[j] = int(key & mask)
			key >>= shift
		}
		out[i] = relation.Tuple(row)
	}
	return out
}

// MergeWords returns the sorted, deduplicated union of the word
// payloads of sealed packed runs of one arity — the word-level k-way
// merge under MergeRuns and FoldRuns, exported for consumers that stay
// on packed words end to end (the worker-side trie builder of
// internal/localjoin). Every non-empty run must be packed (Words
// reports true); a run on the flat layout panics rather than vanish
// from the union. The result is freshly allocated; the runs are only
// read.
func MergeWords(runs []*Buffer) []uint64 {
	type cursor struct {
		words []uint64
		pos   int
	}
	h := make([]cursor, 0, len(runs))
	total := 0
	for _, r := range runs {
		if !r.packed && r.Len() > 0 {
			panic("exchange: MergeWords over a run on the flat layout")
		}
		if len(r.words) > 0 {
			h = append(h, cursor{words: r.words})
			total += len(r.words)
		}
	}
	out := make([]uint64, 0, total)
	less := func(a, b cursor) bool { return a.words[a.pos] < b.words[b.pos] }
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		c := &h[0]
		w := c.words[c.pos]
		if len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
		c.pos++
		if c.pos == len(c.words) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// FoldRuns streams the deduplicated sorted union of the runs into
// yield, one tuple at a time, without materializing the merged answer
// set — the gather-phase hook grouped aggregation folds through: the
// coordinator keeps one accumulator row per group instead of the full
// answer. On the packed fast path the tuple passed to yield is reused
// between calls; yield must not retain it.
func FoldRuns(runs []*Buffer, yield func(relation.Tuple)) {
	live := runs[:0:0]
	for _, r := range runs {
		if r != nil && r.Len() > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	arity := live[0].arity
	packed := true
	for _, r := range live {
		if !r.sealed {
			r.Seal()
		}
		if !r.packed || r.arity != arity {
			packed = false
		}
	}
	if !packed {
		var all []relation.Tuple
		for _, r := range live {
			all = r.AppendTuples(all)
		}
		for _, t := range relation.DedupSort(all) {
			yield(t)
		}
		return
	}
	words := MergeWords(live)
	shift := live[0].shift
	mask := relation.PackedMask(shift)
	row := make(relation.Tuple, arity)
	for _, key := range words {
		for j := arity - 1; j >= 0; j-- {
			row[j] = int(key & mask)
			key >>= shift
		}
		yield(row)
	}
}

// mergeParallelThreshold is the total tuple count above which
// MergeDedupTuples packs its groups concurrently.
const mergeParallelThreshold = 1 << 14

// MergeDedupTuples deduplicates and sorts the union of the groups
// (typically per-worker local join outputs) by packing each group into
// a sorted columnar run — in parallel when the input is large — and
// k-way merging the runs.
func MergeDedupTuples(groups [][]relation.Tuple, arity int) []relation.Tuple {
	runs := make([]*Buffer, 0, len(groups))
	total := 0
	for _, g := range groups {
		if len(g) > 0 {
			total += len(g)
		}
	}
	if total == 0 {
		return nil
	}
	build := func(g []relation.Tuple) *Buffer {
		b := NewBuffer(arity)
		for _, t := range g {
			b.Append(t)
		}
		b.Seal()
		return b
	}
	if total < mergeParallelThreshold {
		for _, g := range groups {
			if len(g) > 0 {
				runs = append(runs, build(g))
			}
		}
		return MergeRuns(runs)
	}
	runs = make([]*Buffer, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []relation.Tuple) {
			defer wg.Done()
			runs[i] = build(g)
		}(i, g)
	}
	wg.Wait()
	return MergeRuns(runs)
}
