package exchange

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// sortTuples orders a tuple slice lexicographically (multiset compare
// helper).
func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

// TestPartitionRoundTripIdentity: for random tuple sets (arities that
// pack, arities that don't, and values wide enough to force the flat
// fallback), pack → partition → unpack is the identity: the union of
// materialized destination buffers equals the multiset of routed
// tuples, and every tuple appears exactly at the destinations its
// partitioner chose.
func TestPartitionRoundTripIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xfab))
		arity := 1 + rng.IntN(9)
		p := 1 + rng.IntN(16)
		n := rng.IntN(5000)
		wide := rng.IntN(3) == 0 // sprinkle values that break packing
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tu := make(relation.Tuple, arity)
			for j := range tu {
				tu[j] = rng.IntN(1 << 10)
				if wide && rng.IntN(50) == 0 {
					tu[j] = 1 << 40
				}
			}
			tuples[i] = tu
		}
		part := HashPartitioner{Col: rng.IntN(arity), P: p, Seed: seed}
		ds, err := Partition("R", tuples, arity, p, part)
		if err != nil {
			return false
		}
		// Union across destinations == input multiset.
		var union []relation.Tuple
		perDest := make([][]relation.Tuple, p)
		for _, d := range ds {
			got := d.Buf.AppendTuples(nil)
			union = append(union, got...)
			perDest[d.To] = append(perDest[d.To], got...)
		}
		if len(union) != n {
			return false
		}
		inCopy := make([]relation.Tuple, n)
		copy(inCopy, tuples)
		sortTuples(inCopy)
		sortTuples(union)
		for i := range inCopy {
			if !union[i].Equal(inCopy[i]) {
				return false
			}
		}
		// Every tuple sits exactly where Route said.
		want := make([][]relation.Tuple, p)
		for i, tu := range tuples {
			for _, d := range part.Route(i, tu, nil) {
				want[d] = append(want[d], tu)
			}
		}
		for d := 0; d < p; d++ {
			if len(want[d]) != len(perDest[d]) {
				return false
			}
			sortTuples(want[d])
			sortTuples(perDest[d])
			for i := range want[d] {
				if !want[d][i].Equal(perDest[d][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionBitsMatchPerTupleAccounting: the buffer-size bit
// accounting (the columnar path) equals the historic per-tuple
// accounting: Σ over (tuple, destination) of arity·bitsPerValue.
func TestPartitionBitsMatchPerTupleAccounting(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xb175))
		arity := 1 + rng.IntN(4)
		p := 2 + rng.IntN(12)
		n := rng.IntN(4000)
		bitsPerValue := 1 + rng.IntN(20)
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tu := make(relation.Tuple, arity)
			for j := range tu {
				tu[j] = rng.IntN(1000)
			}
			tuples[i] = tu
		}
		// Replicating partitioner: route to 1–3 pseudo-random workers.
		part := RouteFunc(func(tu relation.Tuple) []int {
			h := HashDest(tu[0], seed, p)
			out := []int{h}
			for k := 1; k <= tu[0]%3; k++ {
				out = append(out, (h+k)%p)
			}
			return out
		})
		ds, err := Partition("R", tuples, arity, p, part)
		if err != nil {
			return false
		}
		perWorker := make([]int64, p)
		var total int64
		for _, d := range ds {
			b := d.Buf.Bits(bitsPerValue)
			perWorker[d.To] += b
			total += b
		}
		// Per-tuple reference.
		refWorker := make([]int64, p)
		var refTotal int64
		for _, tu := range tuples {
			for _, d := range part.Route(0, tu, nil) {
				bits := int64(arity) * int64(bitsPerValue)
				refWorker[d] += bits
				refTotal += bits
			}
		}
		if total != refTotal {
			return false
		}
		for i := range perWorker {
			if perWorker[i] != refWorker[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDedupEquivalence: the k-way merge over packed sorted runs
// agrees with the reference concat-then-DedupSort on random groups,
// including Zipf-skewed duplicates.
func TestMergeDedupEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x4ead))
		arity := 1 + rng.IntN(5)
		groups := make([][]relation.Tuple, rng.IntN(8))
		var all []relation.Tuple
		for gi := range groups {
			n := rng.IntN(1200)
			g := make([]relation.Tuple, n)
			for i := range g {
				tu := make(relation.Tuple, arity)
				for j := range tu {
					// Skewed small domain → many duplicates.
					tu[j] = int(rng.ExpFloat64()*10) % 50
					if tu[j] < 0 {
						tu[j] = 0
					}
				}
				g[i] = tu
			}
			groups[gi] = g
			all = append(all, g...)
		}
		runs := make([]*Buffer, len(groups))
		for gi, g := range groups {
			runs[gi] = relation.RunOf(arity, g)
		}
		got := MergeRuns(runs)
		ref := make([]relation.Tuple, len(all))
		for i, tu := range all {
			ref[i] = tu.Clone()
		}
		ref = relation.DedupSort(ref)
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if !got[i].Equal(ref[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
