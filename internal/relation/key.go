package relation

import "slices"

// This file holds the row sort runs are built on.

// sortRows sorts rows of stride words each — a run's payload, or a trie
// index's keys — ascending in uint64-lexicographic order, with an LSD
// byte-radix sort: linear passes over machine words instead of a
// comparison sort, which is what keeps DedupSort linear on large join
// outputs and the local join's trie build linear on unsorted keys. The
// passes run from the last word's lowest byte to the first word's
// highest; byte positions that are constant across the rows (the common
// case for packed tuples over a small domain) are found by one XOR scan
// per word and cost no pass at all. Small inputs fall back to a
// comparison sort, whose constant is lower there.
func sortRows(ws []uint64, stride int) {
	n := len(ws) / max(stride, 1)
	if n < 256 {
		if stride == 1 {
			slices.Sort(ws)
			return
		}
		for i := 1; i < n; i++ { // insertion sort, row by row
			for j := i; j > 0 && compareRows(ws[(j-1)*stride:j*stride], ws[j*stride:(j+1)*stride]) > 0; j-- {
				for k := range stride {
					ws[(j-1)*stride+k], ws[j*stride+k] = ws[j*stride+k], ws[(j-1)*stride+k]
				}
			}
		}
		return
	}
	buf := make([]uint64, len(ws))
	src, dst := ws, buf
	for word := stride - 1; word >= 0; word-- {
		var varying uint64
		for r := word; r < len(src); r += stride {
			varying |= src[r] ^ src[word]
		}
		for shift := uint(0); shift < 64; shift += 8 {
			if (varying>>shift)&0xff == 0 {
				continue // byte constant across the rows
			}
			var counts [256]int
			for r := word; r < len(src); r += stride {
				counts[(src[r]>>shift)&0xff]++
			}
			sum := 0
			for i := range counts {
				c := counts[i]
				counts[i] = sum
				sum += c * stride
			}
			if stride == 1 {
				for _, w := range src {
					i := (w >> shift) & 0xff
					dst[counts[i]] = w
					counts[i]++
				}
			} else {
				for r := 0; r < len(src); r += stride {
					i := (src[r+word] >> shift) & 0xff
					copy(dst[counts[i]:counts[i]+stride], src[r:r+stride])
					counts[i] += stride
				}
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &ws[0] {
		copy(ws, src)
	}
}

// rowsSorted reports whether rows of stride words are in ascending
// order.
func rowsSorted(ws []uint64, stride int) bool {
	if stride == 1 {
		return slices.IsSorted(ws)
	}
	for r := stride; r < len(ws); r += stride {
		if compareRows(ws[r-stride:r], ws[r:r+stride]) > 0 {
			return false
		}
	}
	return true
}

// compareRows orders two equal-length rows of words lexicographically.
func compareRows(a, b []uint64) int {
	for i, v := range a {
		if v != b[i] {
			if v < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// DedupSort removes duplicates from ts in place and sorts the result
// lexicographically. Tuples of one arity are sealed into a Run and read
// back — a radix sort on its rows — over one fresh backing array. Mixed
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
