package localjoin

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/relation"
)

// tupleBound is the search the word seek replaced, kept as its
// reference: the first row in (i, hi] of rows whose level-d value is ≥
// v, given that row i's is below v — a gallop and a bisection over
// decoded tuples.
func tupleBound(rows []relation.Tuple, d, i, hi, v int) int {
	step := 1
	for i+step < hi && rows[i+step][d] < v {
		i += step
		step <<= 1
	}
	lo, up := i+1, min(hi, i+step)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if rows[mid][d] < v {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo
}

// ownTrie returns the trie over a sealed run read in its own order, with
// the level-0 directory the run remembers (relation.Run.Index), or
// without one: every seek a gallop.
func ownTrie(run *relation.Run, directory bool) *trieRel {
	cols := make([]int, run.Arity())
	for d := range cols {
		cols[d] = d
	}
	ix := run.Index(cols, nil)
	if !directory {
		ix.Starts = nil
	}
	return newTrie(ix, len(cols))
}

// TestWordSeekMatchesFieldSeek walks random sorted tries the way the
// leapfrog does — reset, non-decreasing seeks from math.MinInt, open,
// descend — and holds every cursor, value and range the word-comparing
// seek and open produce, with the level-0 directory and without it, to
// the tuple reference. A trial's values are bounded so that its run is
// one word a row, or wider: a level then reads a later word, narrowed by
// the words before it. Field values crowd both ends of the field (its
// lowest value, the mask), a 64-bit field holds negative values and
// values up to math.MaxInt, and sought values stray below the lowest,
// past the last bucket and above the mask. Three trials in four have 64
// rows or more, so a directory: one heavy level-0 value filling its
// bucket among values spread over the field, a few level-0 values far
// apart with empty buckets between them, or the small domain.
func TestWordSeekMatchesFieldSeek(t *testing.T) {
	for trial := 0; trial < 800; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eec))
		kind := trial % 4
		m := 1 + rng.IntN(3)
		// low and top bound the values: the fields of one word a row, of
		// the next wider layout, non-negative 64-bit fields, or any int.
		low, top := 0, 1<<(64/m)-1
		switch trial / 4 % 4 {
		case 1:
			if m == 3 {
				top = 1<<32 - 1
			} else {
				top = math.MaxInt
			}
		case 2:
			top = math.MaxInt
		case 3:
			low, top = math.MinInt, math.MaxInt
		}
		if m == 1 {
			top = math.MaxInt
		}
		span := uint64(top - low)
		field := func(d int) int {
			switch {
			case d == 0 && kind == 1 && rng.IntN(2) == 0:
				return 5 // the heavy value
			case d == 0 && kind == 1:
				return low + int(rng.Uint64N(span))
			case d == 0 && kind == 2:
				return low + int(rng.Uint64N(6)*(span/8))
			}
			switch rng.IntN(4) {
			case 0:
				return low + rng.IntN(3)
			case 1:
				return top - rng.IntN(3)
			default:
				return rng.IntN(12)
			}
		}
		n := rng.IntN(200)
		if kind > 0 {
			n = 64 + rng.IntN(1000)
		}
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = make(relation.Tuple, m)
			for d := range tuples[i] {
				tuples[i][d] = field(d)
			}
		}
		run := relation.RunOf(m, tuples)
		rows := run.Tuples()
		tries := []*trieRel{ownTrie(run, false), ownTrie(run, true)}
		if (tries[1].starts != nil) != (n >= 64) {
			t.Fatalf("trial %d: %d rows have a directory of %d buckets", trial, n, len(tries[1].starts))
		}
		mask := int(min(tries[0].mask, math.MaxInt))

		var walk func(d int)
		walk = func(d int) {
			lo, hi := tries[0].levels[d].lo, tries[0].levels[d].hi
			for _, tr := range tries {
				tr.reset(d)
			}
			cur, v := lo, math.MinInt
			for {
				if cur < hi && rows[cur][d] < v {
					cur = tupleBound(rows, d, cur, hi, v)
				}
				for k, tr := range tries {
					got, ok := tr.seek(d, v)
					if ok != (cur < hi) {
						t.Fatalf("trial %d (stride %d) trie %d level %d: seek(%d) ok=%v, reference cursor %d of [%d,%d)", trial, run.Stride(), k, d, v, ok, cur, lo, hi)
					}
					if ok && (tr.levels[d].cur != cur || got != rows[cur][d]) {
						t.Fatalf("trial %d (stride %d) trie %d level %d: seek(%d) = %d at row %d, reference %d at row %d", trial, run.Stride(), k, d, v, got, tr.levels[d].cur, rows[cur][d], cur)
					}
				}
				if cur == hi {
					return
				}
				got := rows[cur][d]
				if d+1 < m && rng.IntN(2) == 0 {
					end := hi
					if got < math.MaxInt {
						end = tupleBound(rows, d, cur, hi, got+1)
					}
					for k, tr := range tries {
						tr.open(d, got)
						if next := tr.levels[d+1]; next.lo != cur || next.hi != end {
							t.Fatalf("trial %d (stride %d) trie %d level %d: open(%d) = [%d,%d), reference [%d,%d)", trial, run.Stride(), k, d, got, next.lo, next.hi, cur, end)
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
					if v <= top-2 {
						v = top - 2 // towards the mask, past the last bucket
					}
				case 3:
					if mask < math.MaxInt && rng.IntN(4) == 0 {
						v = mask + 1 + rng.IntN(3) // wider than the field
					}
				case 4:
					if v < top {
						v += int(rng.Uint64N(uint64(top-v) + 1)) // anywhere up to the top
					}
				}
			}
		}
		walk(0)
	}
}
