package relation

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestGroupSpecValidate(t *testing.T) {
	good := GroupSpec{GroupBy: []int{0}, Aggs: []Aggregate{{Func: AggCount, Col: 1}}}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		spec GroupSpec
	}{
		{"no aggregates", GroupSpec{GroupBy: []int{0}}},
		{"group col out of range", GroupSpec{GroupBy: []int{2}, Aggs: []Aggregate{{Func: AggSum, Col: 1}}}},
		{"duplicate group col", GroupSpec{GroupBy: []int{0, 0}, Aggs: []Aggregate{{Func: AggSum, Col: 1}}}},
		{"agg col out of range", GroupSpec{Aggs: []Aggregate{{Func: AggSum, Col: 5}}}},
		{"unknown func", GroupSpec{Aggs: []Aggregate{{Func: AggFunc(99), Col: 0}}}},
	}
	for _, c := range bad {
		if err := c.spec.Validate(2); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.spec)
		}
	}
}

func TestGroupAggregateBasic(t *testing.T) {
	// (g, v) rows; group by g, all four functions over v.
	in := []Tuple{{1, 5}, {1, 3}, {2, 7}, {1, 5}, {2, 2}} // {1,5} duplicated: set semantics
	spec := GroupSpec{
		GroupBy: []int{0},
		Aggs: []Aggregate{
			{Func: AggCount, Col: 1},
			{Func: AggSum, Col: 1},
			{Func: AggMin, Col: 1},
			{Func: AggMax, Col: 1},
		},
	}
	got := GroupAggregate(in, spec)
	want := []Tuple{
		{1, 2, 8, 3, 5},
		{2, 2, 9, 2, 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupAggregate = %v, want %v", got, want)
	}
}

func TestGroupAggregateGlobal(t *testing.T) {
	in := []Tuple{{4}, {9}, {1}}
	got := GroupAggregate(in, GroupSpec{Aggs: []Aggregate{{Func: AggSum, Col: 0}, {Func: AggCount, Col: 0}}})
	want := []Tuple{{14, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("global aggregate = %v, want %v", got, want)
	}
	if out := GroupAggregate(nil, GroupSpec{Aggs: []Aggregate{{Func: AggCount, Col: 0}}}); out != nil {
		t.Errorf("empty input aggregate = %v, want nil", out)
	}
}

// TestAccumulatorMatchesNaive cross-checks the streaming accumulator
// against a map-built reference on random multi-column data, and
// checks Add does not retain its argument (tuple reuse).
func TestAccumulatorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	var in []Tuple
	for i := 0; i < 500; i++ {
		in = append(in, Tuple{rng.IntN(5) + 1, rng.IntN(4) + 1, rng.IntN(50) + 1})
	}
	spec := GroupSpec{
		GroupBy: []int{1, 0},
		Aggs:    []Aggregate{{Func: AggMax, Col: 2}, {Func: AggCount, Col: 2}, {Func: AggSum, Col: 2}},
	}
	dedup := DedupSort(in)

	// Streaming fold through one reused scratch tuple.
	acc := NewAccumulator(spec)
	scratch := make(Tuple, 3)
	for _, t := range dedup {
		copy(scratch, t)
		acc.Add(scratch)
	}
	got := acc.Result().Tuples()

	type ref struct{ max, count, sum int }
	refs := map[[2]int]*ref{}
	for _, tu := range dedup {
		k := [2]int{tu[1], tu[0]}
		r, ok := refs[k]
		if !ok {
			refs[k] = &ref{max: tu[2], count: 1, sum: tu[2]}
			continue
		}
		if tu[2] > r.max {
			r.max = tu[2]
		}
		r.count++
		r.sum += tu[2]
	}
	if len(got) != len(refs) {
		t.Fatalf("groups = %d, want %d", len(got), len(refs))
	}
	for _, row := range got {
		r := refs[[2]int{row[0], row[1]}]
		if r == nil {
			t.Fatalf("unexpected group %v", row[:2])
		}
		if row[2] != r.max || row[3] != r.count || row[4] != r.sum {
			t.Errorf("group %v: got (max=%d,count=%d,sum=%d), want (%d,%d,%d)",
				row[:2], row[2], row[3], row[4], r.max, r.count, r.sum)
		}
	}
}

func TestParseAggFunc(t *testing.T) {
	for _, f := range []AggFunc{AggCount, AggSum, AggMin, AggMax} {
		got, ok := ParseAggFunc(f.String())
		if !ok || got != f {
			t.Errorf("ParseAggFunc(%q) = %v, %v", f.String(), got, ok)
		}
	}
	if _, ok := ParseAggFunc("avg"); ok {
		t.Error("ParseAggFunc accepted avg")
	}
}
