package exchange

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// foldRuns is the gather-phase fold: the merged run streamed into yield
// one reused tuple at a time (Run.Each), never materialized as tuples.
func foldRuns(runs []*Buffer, yield func(relation.Tuple)) {
	relation.Merge(runs).Each(yield)
}

// foldCollect drains the fold into a materialized slice, cloning each
// yielded tuple (Each reuses the row).
func foldCollect(runs []*Buffer) []relation.Tuple {
	var out []relation.Tuple
	foldRuns(runs, func(t relation.Tuple) { out = append(out, t.Clone()) })
	return out
}

// TestFoldRunsMatchesMergeRuns checks the streaming fold yields
// exactly the MergeRuns output on random packed runs, including
// cross-run duplicates, and on the unpacked fallback path.
func TestFoldRunsMatchesMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	var runs []*Buffer
	for r := 0; r < 6; r++ {
		b := NewBuffer(3)
		for i := 0; i < 200; i++ {
			b.Append(relation.Tuple{rng.IntN(20) + 1, rng.IntN(20) + 1, rng.IntN(20) + 1})
		}
		b.Seal()
		runs = append(runs, b)
	}
	want := MergeRuns(runs)
	got := foldCollect(runs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed fold: %d tuples, merge: %d", len(got), len(want))
	}

	// Force the fallback with a huge-arity (unpackable) run.
	wide := NewBuffer(65)
	row := make(relation.Tuple, 65)
	for i := range row {
		row[i] = i + 1
	}
	wide.Append(row)
	wide.Append(row)
	wide.Seal()
	fw := foldCollect([]*Buffer{wide, wide})
	mw := MergeRuns([]*Buffer{wide, wide})
	if !reflect.DeepEqual(fw, mw) || len(fw) != 1 {
		t.Fatalf("fallback fold = %v, merge = %v", fw, mw)
	}
}

func TestFoldRunsEmpty(t *testing.T) {
	calls := 0
	foldRuns(nil, func(relation.Tuple) { calls++ })
	empty := NewBuffer(2)
	foldRuns([]*Buffer{nil, empty}, func(relation.Tuple) { calls++ })
	if calls != 0 {
		t.Errorf("yield called %d times on empty input", calls)
	}
}

// TestFoldRunsAggregate is the gather-phase fold end to end at the
// exchange layer: folding runs through a relation.Accumulator equals
// aggregating the merged materialized answer.
func TestFoldRunsAggregate(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var runs []*Buffer
	for r := 0; r < 4; r++ {
		b := NewBuffer(2)
		for i := 0; i < 300; i++ {
			b.Append(relation.Tuple{rng.IntN(7) + 1, rng.IntN(100) + 1})
		}
		b.Seal()
		runs = append(runs, b)
	}
	spec := relation.GroupSpec{
		GroupBy: []int{0},
		Aggs:    []relation.Aggregate{{Func: relation.AggCount, Col: 1}, {Func: relation.AggSum, Col: 1}},
	}
	acc := relation.NewAccumulator(spec)
	foldRuns(runs, acc.Add)
	got := acc.Result().Tuples()
	want := relation.GroupAggregate(MergeRuns(runs), spec)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed fold %v != reference %v", got, want)
	}
}
