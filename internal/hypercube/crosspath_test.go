package hypercube

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
)

// crossPathReference replays the historic per-tuple routing path —
// destinations per tuple, per-worker append stores, per-message bit
// accounting — and returns the per-worker received bits plus the
// deduplicated sorted answers computed from the per-worker stores.
func crossPathReference(t *testing.T, q *query.Query, db *relation.Database, p int, shares *Shares, hasher *Hasher) ([]int64, []relation.Tuple) {
	t.Helper()
	bitsPerTuple := func(arity int) int64 {
		return int64(arity) * int64(relation.BitsPerValue(db.N))
	}
	perWorkerBits := make([]int64, p)
	stores := make([]map[string][]relation.Tuple, p)
	for i := range stores {
		stores[i] = make(map[string][]relation.Tuple)
	}
	for _, a := range q.Atoms {
		rel, ok := db.Relation(a.Name)
		if !ok {
			t.Fatalf("missing relation %s", a.Name)
		}
		part := NewGridPartitioner(shares, hasher, a)
		for _, tu := range rel.Tuples {
			for _, dst := range part.Route(0, tu, nil) {
				stores[dst][a.Name] = append(stores[dst][a.Name], tu)
				perWorkerBits[dst] += bitsPerTuple(len(tu))
			}
		}
	}
	var all []relation.Tuple
	for i := 0; i < p; i++ {
		b := localjoin.Bindings{}
		for _, a := range q.Atoms {
			b[a.Name] = stores[i][a.Name]
		}
		rows, err := localjoin.Evaluate(q, b, localjoin.Default)
		if err != nil {
			t.Fatalf("reference join: %v", err)
		}
		all = append(all, rows...)
	}
	return perWorkerBits, relation.DedupSort(all)
}

// zipfDatabase builds a database whose relations all have a
// Zipf-skewed first column — the adversarial regime the matching
// databases of the paper exclude.
func zipfDatabase(rng *rand.Rand, q *query.Query, n int, s float64) *relation.Database {
	db := relation.NewDatabase(n)
	for _, a := range q.Atoms {
		z := relation.SkewedZipf(rng, a.Name, []string{"a", "b"}, n, s)
		r := relation.New(a.Name, a.Vars...)
		r.Tuples = z.Tuples
		db.AddRelation(r)
	}
	return db
}

// TestCrossPathEquivalence: on randomized connected binary queries
// over both matching and Zipf-skewed databases, the columnar exchange
// path produces exactly the answers and exactly the per-worker/total
// bit accounting of the per-tuple reference path.
func TestCrossPathEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xc805))
		q := randomConnectedBinaryQuery(rng)
		n := 50 + rng.IntN(250)
		p := []int{4, 8, 16, 27}[rng.IntN(4)]
		var db *relation.Database
		if rng.IntN(2) == 0 {
			db = relation.MatchingDatabase(rng, q, n)
		} else {
			db = zipfDatabase(rng, q, n, 1.1)
		}
		shares, err := SharesForQuery(q, p, GreedyRounding)
		if err != nil {
			t.Logf("shares: %v", err)
			return false
		}
		hasher := NewHasher(shares, seed)
		refBits, refAnswers := crossPathReference(t, q, db, p, shares, hasher)

		res, err := Run(q, db, p, Options{Epsilon: 1, Seed: seed})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		// Identical answers.
		if res.Run.Len() != len(refAnswers) {
			t.Logf("answers: got %d want %d", res.Run.Len(), len(refAnswers))
			return false
		}
		for i, got := range res.Run.Tuples() {
			if !got.Equal(refAnswers[i]) {
				return false
			}
		}
		// Identical bit accounting, per worker and in total.
		round := res.Stats.Rounds[0]
		var refTotal, refMax int64
		for w, bits := range refBits {
			refTotal += bits
			if bits > refMax {
				refMax = bits
			}
			if round.PerWorkerBits[w] != bits {
				t.Logf("worker %d: got %d bits want %d", w, round.PerWorkerBits[w], bits)
				return false
			}
		}
		if round.TotalBits != refTotal || round.MaxReceivedBits != refMax {
			t.Logf("totals: got (%d,%d) want (%d,%d)", round.TotalBits, round.MaxReceivedBits, refTotal, refMax)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// gridPoint is the reference mixed-radix encoding of grid coordinates
// into a point id, written independently of GridPartitioner's strides.
func gridPoint(s *Shares, coords []int) int {
	id := 0
	for i, c := range coords {
		id = id*s.Dims[i] + c
	}
	return id
}

// recursiveDestinations is the historic recursive enumeration, kept as
// the reference implementation for the iterative rewrite.
func recursiveDestinations(s *Shares, h *Hasher, atom query.Atom, t relation.Tuple) []int {
	k := len(s.Dims)
	fixed := make([]int, k)
	isFixed := make([]bool, k)
	for pos, v := range atom.Vars {
		d := s.DimOf(v)
		if d < 0 {
			continue
		}
		c := h.Coord(d, t[pos])
		if isFixed[d] && fixed[d] != c {
			return nil
		}
		fixed[d] = c
		isFixed[d] = true
	}
	var free []int
	for d := 0; d < k; d++ {
		if !isFixed[d] {
			free = append(free, d)
		}
	}
	coords := make([]int, k)
	copy(coords, fixed)
	var out []int
	var rec func(i int)
	rec = func(i int) {
		if i == len(free) {
			out = append(out, gridPoint(s, coords))
			return
		}
		d := free[i]
		for c := 0; c < s.Dims[d]; c++ {
			coords[d] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestDestinationsIterativeMatchesRecursive: the iterative
// buffer-reusing enumeration returns exactly the historic recursive
// destination lists — same points, same order — across random grids
// and atoms, including repeated variables.
func TestDestinationsIterativeMatchesRecursive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x9a1d))
		k := 1 + rng.IntN(4)
		vars := make([]string, k)
		dims := make([]int, k)
		grid := 1
		for i := range vars {
			vars[i] = string(rune('a' + i))
			dims[i] = 1 + rng.IntN(4)
			grid *= dims[i]
		}
		s := &Shares{Vars: vars, Dims: dims}
		h := NewHasher(s, seed)
		arity := 1 + rng.IntN(3)
		atomVars := make([]string, arity)
		for i := range atomVars {
			atomVars[i] = vars[rng.IntN(k)] // repeats allowed
		}
		atom := query.Atom{Name: "A", Vars: atomVars}
		part := NewGridPartitioner(s, h, atom)
		buf := make([]int, 0, 64)
		for trial := 0; trial < 20; trial++ {
			tu := make(relation.Tuple, arity)
			for i := range tu {
				tu[i] = rng.IntN(100)
			}
			want := recursiveDestinations(s, h, atom, tu)
			buf = part.Route(0, tu, buf[:0])
			if len(buf) != len(want) {
				return false
			}
			for i := range want {
				if buf[i] != want[i] {
					return false
				}
			}
			if fan := part.Fanout(); len(want) != 0 && len(want) != fan {
				t.Logf("fanout %d but %d destinations", fan, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
