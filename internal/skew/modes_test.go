package skew

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/relation"
)

// TestAllModesMatchGroundTruth is the mode-equivalence property: every
// routing discipline (including ModeWCOJ, which swaps in the
// worst-case-optimal local evaluator) must produce exactly the
// single-node join on both skew-free matching inputs and Zipf inputs.
func TestAllModesMatchGroundTruth(t *testing.T) {
	allModes := []Mode{Standard, Resilient, ModeWCOJ}
	inputs := []struct {
		name string
		r, s *relation.Relation
	}{}
	rng := rand.New(rand.NewPCG(21, 42))
	r1, s1 := MatchingJoinInput(rng, 80)
	inputs = append(inputs, struct {
		name string
		r, s *relation.Relation
	}{"matching", r1, s1})
	r2, s2 := ZipfJoinInput(rng, 300, 1.2)
	inputs = append(inputs, struct {
		name string
		r, s *relation.Relation
	}{"zipf", r2, s2})

	for _, in := range inputs {
		truth, err := GroundTruth(in.r, in.s)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes {
			for _, p := range []int{1, 7, 16} {
				t.Run(fmt.Sprintf("%s/%v/p=%d", in.name, mode, p), func(t *testing.T) {
					res, _, err := RunJoin(in.r, in.s, p, mode, Options{Seed: 99})
					if err != nil {
						t.Fatal(err)
					}
					if res.Run.Len() != len(truth) {
						t.Fatalf("%d answers, ground truth %d", res.Run.Len(), len(truth))
					}
					for i, got := range res.Run.Tuples() {
						if !got.Equal(truth[i]) {
							t.Fatalf("answer[%d] = %v, want %v", i, got, truth[i])
						}
					}
				})
			}
		}
	}
}

// TestModeWCOJString pins the new mode's name.
func TestModeWCOJString(t *testing.T) {
	if ModeWCOJ.String() != "wcoj" {
		t.Errorf("ModeWCOJ.String() = %q", ModeWCOJ.String())
	}
}
