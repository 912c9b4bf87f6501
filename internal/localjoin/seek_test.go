package localjoin

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/relation"
)

// fieldBound is the search the word seek replaced, kept as its reference:
// the first row in (i, hi] of keys whose shift/mask field is ≥ v, given
// that row i's field is below v — a gallop and a bisection that extract
// the field from every row they look at.
func fieldBound(keys []uint64, shift uint, mask uint64, i, hi, v int) int {
	at := func(i int) int { return int(keys[i] >> shift & mask) }
	step := 1
	for i+step < hi && at(i+step) < v {
		i += step
		step <<= 1
	}
	lo, up := i+1, min(hi, i+step)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if at(mid) < v {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo
}

// wordTrie returns the m-level packed trie over sorted keys read in their
// own order, with the level-0 directory the sealed run of those words
// remembers (relation.Run.Index), or without one: every seek a gallop.
func wordTrie(t *testing.T, m int, keys []uint64, directory bool) *trieRel {
	t.Helper()
	shift := relation.PackedShift(m)
	tr := &trieRel{levels: make([]trieLevel, m), keys: keys, mask: relation.PackedMask(shift)}
	if directory {
		run, err := relation.NewRunFromWords(m, keys)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, m)
		for d := range cols {
			cols[d] = d
		}
		ix := run.Index(cols, nil)
		tr.keys, tr.starts, tr.top = ix.Keys, ix.Starts, ix.Shift
	}
	for d := range tr.levels {
		tr.levels[d].shift = uint(m-1-d) * shift
	}
	tr.levels[0].hi = len(keys)
	return tr
}

// TestWordSeekMatchesFieldSeek walks random sorted packed tries the way
// the leapfrog does — reset, non-decreasing seeks from math.MinInt, open,
// descend — and holds every cursor, value and range the word-comparing
// seek and open produce, with the level-0 directory and without it, to the
// field-extracting reference. Field values crowd both ends of the field
// (0, the mask), sought values stray below 0, past the last bucket and
// above the mask, and arity 1 runs on full 64-bit words up to
// math.MaxInt. Three trials in four have 64 rows or more, so a directory:
// one heavy level-0 value filling its bucket among values spread over the
// field, a few level-0 values far apart with empty buckets between them,
// or the small domain.
func TestWordSeekMatchesFieldSeek(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eec))
		kind := trial % 4
		m := 1 + rng.IntN(3)
		shift := relation.PackedShift(m)
		mask := relation.PackedMask(shift)
		top := mask
		if m == 1 {
			top = math.MaxInt // what fits an int: a word above it takes the tuple trie
		}
		field := func(d int) uint64 {
			switch {
			case d == 0 && kind == 1 && rng.IntN(2) == 0:
				return 5 // the heavy value
			case d == 0 && kind == 1:
				return rng.Uint64N(top)
			case d == 0 && kind == 2:
				return rng.Uint64N(6) * (top / 8)
			}
			switch rng.IntN(4) {
			case 0:
				return uint64(rng.IntN(3))
			case 1:
				return top - uint64(rng.IntN(3))
			default:
				return uint64(rng.IntN(12))
			}
		}
		n := rng.IntN(200)
		if kind > 0 {
			n = 64 + rng.IntN(1000)
		}
		keys := make([]uint64, n)
		for i := range keys {
			for d := 0; d < m; d++ {
				keys[i] = keys[i]<<shift | field(d)
			}
		}
		slices.Sort(keys)
		tries := []*trieRel{wordTrie(t, m, keys, false), wordTrie(t, m, keys, true)}
		if (tries[1].starts != nil) != (n >= 64) {
			t.Fatalf("trial %d: %d rows have a directory of %d buckets", trial, n, len(tries[1].starts))
		}

		var walk func(d int)
		walk = func(d int) {
			lo, hi, fs := tries[0].levels[d].lo, tries[0].levels[d].hi, tries[0].levels[d].shift
			at := func(i int) int { return int(keys[i] >> fs & mask) }
			for _, tr := range tries {
				tr.reset(d)
			}
			cur, v := lo, math.MinInt
			for {
				if cur < hi && at(cur) < v {
					cur = fieldBound(keys, fs, mask, cur, hi, v)
				}
				for k, tr := range tries {
					got, ok := tr.seek(d, v)
					if ok != (cur < hi) {
						t.Fatalf("trial %d trie %d level %d: seek(%d) ok=%v, reference cursor %d of [%d,%d)", trial, k, d, v, ok, cur, lo, hi)
					}
					if ok && (tr.levels[d].cur != cur || got != at(cur)) {
						t.Fatalf("trial %d trie %d level %d: seek(%d) = %d at row %d, reference %d at row %d", trial, k, d, v, got, tr.levels[d].cur, at(cur), cur)
					}
				}
				if cur == hi {
					return
				}
				got := at(cur)
				if d+1 < m && rng.IntN(2) == 0 {
					end := fieldBound(keys, fs, mask, cur, hi, got+1)
					for k, tr := range tries {
						tr.open(d, got)
						if next := tr.levels[d+1]; next.lo != cur || next.hi != end {
							t.Fatalf("trial %d trie %d level %d: open(%d) = [%d,%d), reference [%d,%d)", trial, k, d, got, next.lo, next.hi, cur, end)
						}
					}
					walk(d + 1)
				}
				if got == math.MaxInt {
					return
				}
				v = got + 1
				switch rng.IntN(7) {
				case 0:
					v = got // the leapfrog re-seeks the value another atom proposed
				case 1:
					v += rng.IntN(5)
				case 2:
					if uint64(v) <= top-2 {
						v = int(top - 2) // towards the mask, past the last bucket
					}
				case 3:
					if mask < math.MaxInt && rng.IntN(4) == 0 {
						v = int(mask) + 1 + rng.IntN(3) // wider than the field
					}
				case 4:
					if uint64(v) < top {
						v += int(rng.Uint64N(top - uint64(v) + 1)) // anywhere up to the top
					}
				}
			}
		}
		walk(0)
	}
}
