package relation

import "slices"

// This file holds the packed-key arithmetic runs are built on and the
// word sort.

// PackedShift returns the per-value bit width for packing m values
// into one uint64 key, or 0 when m values cannot be packed.
func PackedShift(m int) uint {
	if m < 1 || m > 64 {
		return 0
	}
	return uint(64 / m)
}

// FitsPacked reports whether value v occupies at most shift bits.
// shift ≥ 63 admits every non-negative int.
func FitsPacked(v int, shift uint) bool {
	if v < 0 {
		return false
	}
	return shift >= 63 || v < 1<<shift
}

// PackedMask returns the mask extracting one shift-bit value.
func PackedMask(shift uint) uint64 {
	if shift >= 64 {
		return ^uint64(0)
	}
	return 1<<shift - 1
}

// SortWords sorts packed tuple words ascending with an LSD byte-radix
// sort: linear passes over machine words instead of a comparison sort,
// which is what keeps DedupSort's packed path linear on large join
// outputs and the local join's trie build linear on unsorted keys.
// Byte positions that are constant across ws (the common case for
// packed tuples over a small domain) are found by one XOR scan up
// front and cost no pass at all. Small inputs fall back to the
// comparison sort, whose constant is lower there.
func SortWords(ws []uint64) {
	if len(ws) < 256 {
		slices.Sort(ws)
		return
	}
	var varying uint64
	for _, w := range ws {
		varying |= w ^ ws[0]
	}
	if varying == 0 {
		return
	}
	buf := make([]uint64, len(ws))
	src, dst := ws, buf
	for shift := uint(0); shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue // byte constant across the slice
		}
		var counts [256]int
		for _, w := range src {
			counts[(w>>shift)&0xff]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, w := range src {
			i := (w >> shift) & 0xff
			dst[counts[i]] = w
			counts[i]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ws[0] {
		copy(ws, src)
	}
}

// DedupSort removes duplicates from ts in place and sorts the result
// lexicographically. Tuples of one arity are sealed into a Run and read
// back — a radix sort on packed words when they pack, the flat layout's
// row sort when they do not — over one fresh backing array. Mixed
// arities (a shorter tuple sorts before the longer ones it prefixes) and
// arity zero are sorted by comparison and compacted.
func DedupSort(ts []Tuple) []Tuple {
	if len(ts) == 0 {
		return ts
	}
	m := len(ts[0])
	if m > 0 && !slices.ContainsFunc(ts, func(t Tuple) bool { return len(t) != m }) {
		return RunOf(m, ts).Dedup().AppendTuples(ts[:0])
	}
	slices.SortFunc(ts, Tuple.Compare)
	return slices.CompactFunc(ts, Tuple.Equal)
}
