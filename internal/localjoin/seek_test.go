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

// TestWordSeekMatchesFieldSeek walks random sorted packed tries the way
// the leapfrog does — reset, non-decreasing seeks from math.MinInt, open,
// descend — and holds every cursor, value and range the word-comparing
// seek and open produce to the field-extracting reference. Field values
// crowd both ends of the field (0, the mask), sought values stray below 0
// and above the mask, and arity 1 runs on full 64-bit words up to
// math.MaxInt.
func TestWordSeekMatchesFieldSeek(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eec))
		m := 1 + rng.IntN(3)
		shift := relation.PackedShift(m)
		mask := relation.PackedMask(shift)
		top := mask
		if m == 1 {
			top = math.MaxInt // what fits an int: a word above it takes the tuple trie
		}
		field := func() uint64 {
			switch rng.IntN(4) {
			case 0:
				return uint64(rng.IntN(3))
			case 1:
				return top - uint64(rng.IntN(3))
			default:
				return uint64(rng.IntN(12))
			}
		}
		keys := make([]uint64, rng.IntN(200))
		for i := range keys {
			for d := 0; d < m; d++ {
				keys[i] = keys[i]<<shift | field()
			}
		}
		slices.Sort(keys)
		tr := &trieRel{levels: make([]trieLevel, m), keys: keys, mask: mask}
		for d := range tr.levels {
			tr.levels[d].shift = uint(m-1-d) * shift
		}
		tr.levels[0].hi = len(keys)

		var walk func(d int)
		walk = func(d int) {
			l := &tr.levels[d]
			at := func(i int) int { return int(keys[i] >> l.shift & mask) }
			tr.reset(d)
			cur, v := l.lo, math.MinInt
			for {
				got, ok := tr.seek(d, v)
				if cur < l.hi && at(cur) < v {
					cur = fieldBound(keys, l.shift, mask, cur, l.hi, v)
				}
				if ok != (cur < l.hi) {
					t.Fatalf("trial %d level %d: seek(%d) ok=%v, reference cursor %d of [%d,%d)", trial, d, v, ok, cur, l.lo, l.hi)
				}
				if !ok {
					return
				}
				if l.cur != cur || got != at(cur) {
					t.Fatalf("trial %d level %d: seek(%d) = %d at row %d, reference %d at row %d", trial, d, v, got, l.cur, at(cur), cur)
				}
				if d+1 < m && rng.IntN(2) == 0 {
					tr.open(d, got)
					next := tr.levels[d+1]
					if end := fieldBound(keys, l.shift, mask, cur, l.hi, got+1); next.lo != cur || next.hi != end {
						t.Fatalf("trial %d level %d: open(%d) = [%d,%d), reference [%d,%d)", trial, d, got, next.lo, next.hi, cur, end)
					}
					walk(d + 1)
				}
				if got == math.MaxInt {
					return
				}
				v = got + 1
				switch rng.IntN(6) {
				case 0:
					v = got // the leapfrog re-seeks the value another atom proposed
				case 1:
					v += rng.IntN(5)
				case 2:
					if uint64(v) <= top-2 {
						v = int(top - 2) // towards the mask
					}
				case 3:
					if mask < math.MaxInt && rng.IntN(4) == 0 {
						v = int(mask) + 1 + rng.IntN(3) // wider than the field
					}
				}
			}
		}
		walk(0)
	}
}
