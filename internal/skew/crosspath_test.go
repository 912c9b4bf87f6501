package skew

import (
	"math/rand/v2"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// TestStandardBitsMatchPerTupleAccounting: under Standard hashing the
// columnar exchange must account exactly the bits the historic
// per-tuple path charged — every tuple of R and S lands at
// HashDest(y), costing arity·⌈log2(n+1)⌉ bits — on both matching and
// Zipf inputs.
func TestStandardBitsMatchPerTupleAccounting(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(41, 42))
		var r, s *relation.Relation
		n := 600
		if skewed {
			r, s = ZipfJoinInput(rng, n, 1.1)
		} else {
			r, s = MatchingJoinInput(rng, n)
		}
		p := 8
		seed := uint64(7)
		res, _, err := RunJoin(r, s, p, Standard, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		domain := 1
		for _, rel := range []*relation.Relation{r, s} {
			for _, tu := range rel.Tuples {
				for _, v := range tu {
					if v > domain {
						domain = v
					}
				}
			}
		}
		tupleBits := int64(2 * relation.BitsPerValue(domain))
		refBits := make([]int64, p)
		yR, yS := r.AttrIndex("y"), s.AttrIndex("y")
		for _, tu := range r.Tuples {
			refBits[exchange.HashDest(tu[yR], seed, p)] += tupleBits
		}
		for _, tu := range s.Tuples {
			refBits[exchange.HashDest(tu[yS], seed, p)] += tupleBits
		}
		var refTotal, refMax int64
		for _, b := range refBits {
			refTotal += b
			if b > refMax {
				refMax = b
			}
		}
		round := res.Stats.Rounds[0]
		if round.TotalBits != refTotal || round.MaxReceivedBits != refMax {
			t.Errorf("skewed=%v: totals (%d,%d), want (%d,%d)",
				skewed, round.TotalBits, round.MaxReceivedBits, refTotal, refMax)
		}
		for w := range refBits {
			if round.PerWorkerBits[w] != refBits[w] {
				t.Errorf("skewed=%v: worker %d got %d bits, want %d", skewed, w, round.PerWorkerBits[w], refBits[w])
			}
		}
		// And the exchange path answers must equal the one-node join.
		truth, err := GroundTruth(r, s)
		if err != nil {
			t.Fatal(err)
		}
		truth = relation.DedupSort(truth)
		if res.Run.Len() != len(truth) {
			t.Fatalf("skewed=%v: %d answers, want %d", skewed, res.Run.Len(), len(truth))
		}
		for i, got := range res.Run.Tuples() {
			if !got.Equal(truth[i]) {
				t.Fatalf("skewed=%v: answer %d = %v, want %v", skewed, i, got, truth[i])
			}
		}
	}
}

// TestResilientSplitSpreadsPeriodicHeavyValue: a heavy join value
// whose occurrences are periodic in the source relation (every even
// index) must still spread evenly over its server block. Guards
// against index-modulo splitting, which sends every copy of such a
// value to one server.
func TestResilientSplitSpreadsPeriodicHeavyValue(t *testing.T) {
	n, p := 400, 8
	r := relation.New("R", "x", "y")
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			r.MustAdd(relation.Tuple{i + 1, 1}) // heavy value at even indices
		} else {
			r.MustAdd(relation.Tuple{i + 1, 1000 + i}) // distinct light values
		}
	}
	s := relation.New("S", "y", "z")
	for i := 0; i < n; i++ {
		if i < 4 {
			s.MustAdd(relation.Tuple{1, i + 1})
		} else {
			s.MustAdd(relation.Tuple{2000 + i, i + 1})
		}
	}
	res, heavyRt, err := RunJoin(r, s, p, Resilient, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(heavyRt.Heavy) == 0 {
		t.Fatal("expected value 1 to be detected heavy")
	}
	// 200 heavy R-tuples split over a block of 2 servers plus ~75
	// hashed light tuples → max load ≈ 195. Index-modulo routing puts
	// all 200 heavy copies on one server (max load ≈ 280).
	if res.Stats.MaxLoadTuples() > 240 {
		t.Errorf("max load %d: heavy value not split across its block", res.Stats.MaxLoadTuples())
	}
	truth, err := GroundTruth(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Len() != len(truth) {
		t.Errorf("answers %d, want %d", res.Run.Len(), len(truth))
	}
}
