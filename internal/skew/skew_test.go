package skew

import (
	"math/rand/v2"
	"testing"

	"repro/internal/relation"
)

func assertSameAnswers(t *testing.T, got, want []relation.Tuple, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", context, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d = %v, want %v", context, i, got[i], want[i])
		}
	}
}

func TestFrequencies(t *testing.T) {
	r := relation.New("R", "x", "y")
	r.MustAdd(relation.Tuple{1, 5})
	r.MustAdd(relation.Tuple{2, 5})
	r.MustAdd(relation.Tuple{3, 7})
	f, err := Frequencies(r, "y")
	if err != nil {
		t.Fatal(err)
	}
	if f[5] != 2 || f[7] != 1 {
		t.Errorf("frequencies = %v", f)
	}
	if _, err := Frequencies(r, "nope"); err == nil {
		t.Error("want error for unknown attribute")
	}
}

func TestHeavyHitters(t *testing.T) {
	fr := map[int]int{1: 100, 2: 5, 3: 40}
	fs := map[int]int{1: 50, 3: 10, 4: 3}
	hh := HeavyHitters(fr, fs, 45)
	// combined: 1→150, 3→50, 2→5, 4→3; threshold 45 → {1, 3} by count.
	if len(hh) != 2 || hh[0] != 1 || hh[1] != 3 {
		t.Errorf("heavy hitters = %v, want [1 3]", hh)
	}
	if got := HeavyHitters(fr, fs, 1000); len(got) != 0 {
		t.Errorf("no heavy hitters expected, got %v", got)
	}
}

func TestZipfJoinInputShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	r, s := ZipfJoinInput(rng, 500, 1.0)
	if r.Size() != 500 || s.Size() != 500 {
		t.Fatalf("sizes %d, %d", r.Size(), s.Size())
	}
	if r.Attrs[0] != "x" || r.Attrs[1] != "y" || s.Attrs[0] != "y" || s.Attrs[1] != "z" {
		t.Errorf("schemas %v, %v", r.Attrs, s.Attrs)
	}
	fr, err := Frequencies(r, "y")
	if err != nil {
		t.Fatal(err)
	}
	if fr[1] < 20 {
		t.Errorf("value 1 frequency %d; expected heavy skew", fr[1])
	}
}

func TestStandardJoinCorrectOnMatching(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	r, s := MatchingJoinInput(rng, 200)
	truth, err := GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 200 {
		t.Fatalf("matching join should have n answers, got %d", len(truth))
	}
	res, _, err := RunJoin(r, s, 16, Standard, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, res.Run.Tuples(), truth, "standard/matching")
}

func TestResilientJoinCorrectOnMatching(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	r, s := MatchingJoinInput(rng, 150)
	truth, err := GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	res, heavyRt, err := RunJoin(r, s, 8, Resilient, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, res.Run.Tuples(), truth, "resilient/matching")
	if len(heavyRt.Heavy) != 0 {
		t.Errorf("matching input should have no heavy hitters, got %v", heavyRt.Heavy)
	}
}

func TestBothModesCorrectOnZipf(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	r, s := ZipfJoinInput(rng, 400, 1.0)
	truth, err := GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Standard, Resilient} {
		res, _, err := RunJoin(r, s, 16, mode, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, res.Run.Tuples(), truth, mode.String()+"/zipf")
	}
}

// TestResilientBeatsStandardOnSkew: the headline experiment — on Zipf
// inputs the resilient discipline's max load is strictly (and
// substantially) below standard hashing's, while on matchings they are
// comparable.
func TestResilientBeatsStandardOnSkew(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	n := 2000
	p := 32
	r, s := ZipfJoinInput(rng, n, 1.1)
	std, _, err := RunJoin(r, s, p, Standard, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, heavyRt, err := RunJoin(r, s, p, Resilient, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(heavyRt.Heavy) == 0 {
		t.Fatal("expected heavy hitters on Zipf(1.1) input")
	}
	if !(res.Stats.MaxLoadTuples() < std.Stats.MaxLoadTuples()) {
		t.Errorf("resilient max load %d not below standard %d", res.Stats.MaxLoadTuples(), std.Stats.MaxLoadTuples())
	}
	// Control: on matchings both disciplines are within a small factor.
	rm, sm := MatchingJoinInput(rng, n)
	stdM, _, err := RunJoin(rm, sm, p, Standard, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	resM, _, err := RunJoin(rm, sm, p, Resilient, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := stdM.Stats.MaxLoadTuples(), resM.Stats.MaxLoadTuples()
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("matching control diverged: standard %d vs resilient %d",
			stdM.Stats.MaxLoadTuples(), resM.Stats.MaxLoadTuples())
	}
}

func TestRunJoinValidation(t *testing.T) {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	if _, _, err := RunJoin(r, s, 0, Standard, Options{}); err == nil {
		t.Error("want error for p=0")
	}
	bad := relation.New("R", "a", "b")
	if _, _, err := RunJoin(bad, s, 4, Standard, Options{}); err == nil {
		t.Error("want error for missing join attribute")
	}
	if Standard.String() != "standard" || Resilient.String() != "resilient" || Mode(7).String() == "" {
		t.Error("Mode.String")
	}
}

func TestJoinQueryShape(t *testing.T) {
	q := JoinQuery()
	if q.NumAtoms() != 2 || q.NumVars() != 3 || !q.TreeLike() {
		t.Errorf("join query shape: %s", q)
	}
}
