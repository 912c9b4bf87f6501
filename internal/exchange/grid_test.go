package exchange

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestGridCanonicalCells: on a 2×3×2 grid an atom bound on the middle
// dimension replicates each tuple to the 4 points sharing its middle
// coordinate, and exactly one of them — coordinate 0 on both unbound
// dimensions — is canonical: the canonical cells hold every tuple once.
// A grid drops tuples only where two positions fix one dimension of
// several points.
func TestGridCanonicalCells(t *testing.T) {
	g, err := NewGrid([]int{2, 3, 2}, []uint64{1, 2, 3}, []GridBind{{Pos: 0, Dim: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Canonical(); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("canonical cells %v, want the points with coordinate 0 on dimensions 0 and 2", got)
	}
	canonical := map[int]bool{0: true, 2: true, 4: true}
	for v := 0; v < 50; v++ {
		dests := g.Route(0, relation.Tuple{v}, nil)
		held := 0
		for _, d := range dests {
			if canonical[d] {
				held++
			}
		}
		if len(dests) != g.Fanout() || held != 1 {
			t.Fatalf("value %d goes to %v: %d points, %d canonical; want %d and 1", v, dests, len(dests), held, g.Fanout())
		}
	}
	if !g.Total() {
		t.Error("a grid binding each dimension once drops tuples")
	}
	twice, _ := NewGrid([]int{4}, []uint64{9}, []GridBind{{Pos: 0, Dim: 0}, {Pos: 1, Dim: 0}})
	unary, _ := NewGrid([]int{1, 4}, []uint64{9, 9}, []GridBind{{Pos: 0, Dim: 0}, {Pos: 1, Dim: 0}})
	if twice.Total() || !unary.Total() {
		t.Errorf("total: two positions on a 4-point dimension %v, on a 1-point one %v; want false, true", twice.Total(), unary.Total())
	}
}

// TestNewGridRefusesBadSpecs: what a route frame carries comes from a
// peer, and a spec that cannot route is refused where the grid is built.
func TestNewGridRefusesBadSpecs(t *testing.T) {
	for _, c := range []struct {
		name  string
		dims  []int
		seeds []uint64
		binds []GridBind
		want  string
	}{
		{"no dimensions", nil, nil, nil, "0 dimensions"},
		{"a seed short", []int{2, 2}, []uint64{1}, nil, "1 seeds"},
		{"a share of 0", []int{2, 0}, []uint64{1, 2}, nil, "exceed"},
		{"too many points", []int{1 << 16, 1 << 16}, []uint64{1, 2}, nil, "exceed"},
		{"a bind past the dimensions", []int{2}, []uint64{1}, []GridBind{{Pos: 0, Dim: 1}}, "outside"},
		{"a negative position", []int{2}, []uint64{1}, []GridBind{{Pos: -1, Dim: 0}}, "outside"},
	} {
		if _, err := NewGrid(c.dims, c.seeds, c.binds); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
