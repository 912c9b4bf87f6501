package relation

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// projectTuples is Project through tuples: every row decoded and appended
// to a fresh run, which widens itself as values arrive. It is the oracle
// TestProjectMatchesTuplePath holds Project to.
func projectTuples(run *Run, cols []int) *Run {
	out := NewRun(len(cols))
	row := make(Tuple, run.arity)
	sel := make(Tuple, len(cols))
	for i := 0; i < run.Len(); i++ {
		run.Row(i, row)
		for j, c := range cols {
			sel[j] = row[c]
		}
		out.Append(sel)
	}
	return out.Dedup()
}

// TestProjectMatchesTuplePath: Project, which moves field codes between
// layouts, returns the run the tuple path builds — the same stride and the
// same words — over runs of one, two and three words a row, with negative
// values in 64-bit fields and wide values in columns the projection drops,
// onto prefixes, permutations and repeats of the columns.
func TestProjectMatchesTuplePath(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 47))
	draws := map[string]func(col int) int{
		"21-bit":   func(int) int { return rng.IntN(1 << 21) },
		"32-bit":   func(int) int { return rng.IntN(1 << 32) },
		"small":    func(int) int { return rng.IntN(50) },
		"negative": func(int) int { return rng.IntN(200) - 100 },
		"extremes": func(int) int { return []int{math.MinInt, -1, 0, 1, math.MaxInt}[rng.IntN(5)] },
		// Wide only in column 2: projections without it narrow.
		"wide-last": func(col int) int {
			if col == 2 {
				return rng.IntN(1<<40) - 1<<39
			}
			return rng.IntN(1 << 10)
		},
		// Mostly narrow, now and then a value that widens the run.
		"mixed": func(int) int {
			if rng.IntN(50) == 0 {
				return 1 << (22 + rng.IntN(30))
			}
			return rng.IntN(1 << 12)
		},
	}
	colSets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 1, 2}, {2, 0}, {1, 2, 0}, {2, 1, 0}, {2, 2}, {0, 0, 0}, {1, 1, 2, 0}, {0, 1, 2, 0, 1, 2}}
	strides := map[int]bool{}
	for name, draw := range draws {
		for _, rows := range []int{0, 1, 2, 300} {
			tuples := make([]Tuple, rows)
			for i := range tuples {
				tuples[i] = Tuple{draw(0), draw(1), draw(2)}
				if i > 0 && rng.IntN(4) == 0 {
					tuples[i] = slices.Clone(tuples[rng.IntN(i)]) // repeats, for Dedup
				}
			}
			run := RunOf(3, tuples)
			strides[run.Stride()] = true
			for _, cols := range colSets {
				got, want := Project(run, cols), projectTuples(run, cols)
				if got.Arity() != want.Arity() || got.Stride() != want.Stride() || !got.Sealed() || !slices.Equal(got.Words(), want.Words()) {
					t.Fatalf("%s, %d rows at stride %d, cols %v: arity %d stride %d sealed %v words %x, want arity %d stride %d words %x",
						name, rows, run.Stride(), cols, got.Arity(), got.Stride(), got.Sealed(), got.Words(), want.Arity(), want.Stride(), want.Words())
				}
			}
		}
	}
	for s := 1; s <= 3; s++ {
		if !strides[s] {
			t.Errorf("no input run took %d words a row", s)
		}
	}
	if Project(nil, []int{0}) != nil {
		t.Error("Project(nil) is not nil")
	}
}
