package relation

import (
	"math/rand/v2"
	"testing"
)

func rel(name string, attrs []string, rows ...Tuple) *Relation {
	r := New(name, attrs...)
	for _, row := range rows {
		r.MustAdd(row)
	}
	return r
}

func TestNaturalJoinShared(t *testing.T) {
	r := rel("R", []string{"x", "y"}, Tuple{1, 2}, Tuple{2, 3})
	s := rel("S", []string{"y", "z"}, Tuple{2, 10}, Tuple{2, 11}, Tuple{9, 9})
	j := NaturalJoin(r, s)
	if len(j.Attrs) != 3 || j.Attrs[0] != "x" || j.Attrs[1] != "y" || j.Attrs[2] != "z" {
		t.Fatalf("schema = %v", j.Attrs)
	}
	got := j.Run().Tuples()
	want := []Tuple{{1, 2, 10}, {1, 2, 11}}
	if len(got) != len(want) {
		t.Fatalf("tuples = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNaturalJoinCartesian(t *testing.T) {
	r := rel("R", []string{"x"}, Tuple{1}, Tuple{2})
	s := rel("S", []string{"y"}, Tuple{10}, Tuple{20})
	j := NaturalJoin(r, s)
	if len(j.Tuples) != 4 {
		t.Errorf("cartesian size = %d, want 4", len(j.Tuples))
	}
}

func TestNaturalJoinMultiAttr(t *testing.T) {
	r := rel("R", []string{"x", "y"}, Tuple{1, 2}, Tuple{3, 4})
	s := rel("S", []string{"x", "y", "z"}, Tuple{1, 2, 7}, Tuple{1, 9, 8})
	j := NaturalJoin(r, s)
	if len(j.Tuples) != 1 || !j.Tuples[0].Equal(Tuple{1, 2, 7}) {
		t.Errorf("join = %v", j.Tuples)
	}
}

// TestJoinOfMatchingsIsMatching: the join of two binary matchings on a
// shared attribute is again a (2-column-keyed) relation of exactly n
// tuples — the composition of two permutations.
func TestJoinOfMatchingsIsMatching(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	n := 64
	r := Matching(rng, "R", []string{"x", "y"}, n)
	s := Matching(rng, "S", []string{"y", "z"}, n)
	j := NaturalJoin(r, s)
	if len(j.Tuples) != n {
		t.Fatalf("|R⋈S| = %d, want %d", len(j.Tuples), n)
	}
	p := New("π(R⋈S)", "x", "z")
	for _, t := range j.Tuples {
		p.MustAdd(Tuple{t[j.AttrIndex("x")], t[j.AttrIndex("z")]})
	}
	if !p.IsMatching(n) {
		t.Error("projection of composed matchings should be a matching")
	}
}
