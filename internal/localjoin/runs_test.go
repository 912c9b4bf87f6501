package localjoin

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestRepeatedVariableTable pins repeated-variable semantics — S(x,x)
// drops (1,2) — for every strategy, on atoms where the repeat is the
// whole atom, sits around another variable, and meets a permuted atom;
// and the edges of a seek that compares whole words: a value wider than
// the other atom's field, the largest value a field holds above the last
// level, full-width words, and a pass that starts below every value.
func TestRepeatedVariableTable(t *testing.T) {
	cases := []struct {
		query string
		b     Bindings
		want  []relation.Tuple
	}{
		{
			"q(x) = S(x,x)",
			Bindings{"S": {{1, 2}, {3, 3}, {2, 1}, {5, 5}}},
			[]relation.Tuple{{3}, {5}},
		},
		{
			"q(x,y) = R(x,y,x)",
			Bindings{"R": {{1, 7, 1}, {1, 7, 2}, {2, 7, 1}, {4, 4, 4}}},
			[]relation.Tuple{{1, 7}, {4, 4}},
		},
		{
			"q(x,y) = R(x,x,y), T(y,x)",
			Bindings{
				"R": {{1, 1, 5}, {1, 2, 5}, {3, 3, 7}, {4, 4, 4}},
				"T": {{5, 1}, {7, 3}, {7, 4}, {4, 4}},
			},
			[]relation.Tuple{{1, 5}, {3, 7}, {4, 4}},
		},
		{
			"q(x) = R(x,x,x), S(x)",
			Bindings{"R": {{2, 2, 2}, {2, 2, 3}, {3, 2, 2}, {6, 6, 6}}, "S": {{2}, {3}, {6}}},
			[]relation.Tuple{{2}, {6}},
		},
		{
			// x and y meet 21-bit fields in T: R's wider values must
			// exhaust T's range, not wrap into it — 1<<21|5 is not 5, and
			// 1<<22 shifted to T's top field is not 0.
			"q(x,y,z) = R(x,y), T(x,y,z)",
			Bindings{
				"R": {{1<<21 | 5, 1}, {5, 1<<21 | 1}, {5, 1}, {1 << 22, 1 << 22}, {0, 0}, {1<<32 - 1, 7}},
				"T": {{5, 1, 9}, {0, 0, 0}, {1<<21 - 1, 1<<21 - 1, 3}},
			},
			[]relation.Tuple{{0, 0, 0}, {5, 1, 9}},
		},
		{
			// The field mask itself at T's first and second level.
			"q(x,y,z) = R(x,y), T(x,y,z)",
			Bindings{
				"R": {{1<<21 - 1, 1<<21 - 1}, {1<<21 - 1, 2}, {1<<21 - 2, 1<<21 - 1}},
				"T": {{1<<21 - 1, 1<<21 - 1, 3}, {1<<21 - 1, 1<<21 - 1, 1<<21 - 1}, {1<<21 - 2, 1<<21 - 1, 4}, {1<<21 - 1, 0, 5}},
			},
			[]relation.Tuple{{1<<21 - 2, 1<<21 - 1, 4}, {1<<21 - 1, 1<<21 - 1, 3}, {1<<21 - 1, 1<<21 - 1, 1<<21 - 1}},
		},
		{
			// …and at the top level of a word with no spare bits.
			"q(x,y,z) = R(x,y), S(y,z)",
			Bindings{
				"R": {{1<<32 - 1, 1<<32 - 1}, {1<<32 - 1, 4}, {3, 1<<32 - 1}},
				"S": {{1<<32 - 1, 7}, {1<<32 - 1, 1<<32 - 1}, {4, 0}},
			},
			[]relation.Tuple{{3, 1<<32 - 1, 7}, {3, 1<<32 - 1, 1<<32 - 1}, {1<<32 - 1, 4, 0}, {1<<32 - 1, 1<<32 - 1, 7}, {1<<32 - 1, 1<<32 - 1, 1<<32 - 1}},
		},
		{
			// Arity 1 is a 64-bit field: every pass starts at math.MinInt,
			// which seeks 0, and math.MaxInt ends it.
			"q(x) = A(x), B(x)",
			Bindings{"A": {{math.MaxInt}, {0}, {7}, {math.MaxInt - 1}}, "B": {{0}, {math.MaxInt}, {8}}},
			[]relation.Tuple{{0}, {math.MaxInt}},
		},
	}
	for _, c := range cases {
		q := query.MustParse(c.query)
		for _, ev := range evaluators {
			strat := ev.name
			got, err := ev.eval(q, c.b)
			if err != nil {
				t.Fatalf("%s: %v: %v", c.query, strat, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %v = %v, want %v", c.query, strat, got, c.want)
			}
		}
	}
}

// runsOf splits every relation of b into 1–3 sealed runs.
func runsOf(rng *rand.Rand, q *query.Query, b Bindings) Runs {
	runs := make(Runs, len(b))
	for _, a := range q.Atoms {
		tuples, ok := b[a.Name]
		if !ok {
			continue
		}
		parts := make([]*relation.Run, 1+rng.IntN(3))
		for i := range parts {
			parts[i] = relation.NewRun(a.Arity())
		}
		for _, tu := range tuples {
			parts[rng.IntN(len(parts))].Append(tu)
		}
		for _, p := range parts {
			p.Seal()
		}
		runs[a.Name] = parts
	}
	return runs
}

// TestEvaluateRunsAgreesWithEvaluate: over random instances the
// run-input entry point returns exactly the hash-join oracle's answers,
// as one sealed deduplicated run.
func TestEvaluateRunsAgreesWithEvaluate(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xE7))
		q := randomQuery(rng)
		b := randomBindings(rng, q, 2+rng.IntN(8))
		want, err := Evaluate(q, b, HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		runs := runsOf(rng, q, b)
		out, err := EvaluateRuns(q, runs)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, q, err)
		}
		if out == nil {
			if len(want) != 0 {
				t.Fatalf("trial %d: %s: no run, want %d answers", trial, q, len(want))
			}
			continue
		}
		if !out.Sealed() || out.Arity() != q.NumVars() {
			t.Fatalf("trial %d: %s: run sealed=%v arity=%d", trial, q, out.Sealed(), out.Arity())
		}
		if got := out.AppendTuples(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %s = %v, want %v", trial, q, got, want)
		}
	}
}

// TestEvaluateRunsEdges covers what a worker store can hand over that
// Bindings cannot express the same way.
func TestEvaluateRunsEdges(t *testing.T) {
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	run := func(arity int, tuples ...relation.Tuple) *relation.Run {
		b := relation.NewRun(arity)
		for _, tu := range tuples {
			b.Append(tu)
		}
		b.Seal()
		return b
	}
	r := run(2, relation.Tuple{1, 2}, relation.Tuple{1, 2}, relation.Tuple{4, 5})
	// A relation without runs, and one with only empty runs.
	for _, runs := range []Runs{{"R": {r}}, {"R": {r}, "S": {run(2)}}} {
		if out, err := EvaluateRuns(q, runs); out != nil || err != nil {
			t.Errorf("empty S: got %v, %v", out, err)
		}
	}
	// Duplicates across and within runs do not duplicate answers.
	out, err := EvaluateRuns(q, Runs{"R": {r, r}, "S": {run(2, relation.Tuple{2, 9}), run(2, relation.Tuple{2, 9})}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.AppendTuples(nil); !reflect.DeepEqual(got, []relation.Tuple{{1, 2, 9}}) {
		t.Errorf("duplicates: %v", got)
	}
	// A store mixing a one-word run and a two-word one is read at two
	// words a row, under a permuted atom too.
	wide := run(2, relation.Tuple{1 << 33, 2}, relation.Tuple{4, 1 << 33})
	if wide.Stride() != 2 {
		t.Fatalf("a value of 2³³ at arity 2 takes %d words a row, want 2", wide.Stride())
	}
	for text, want := range map[string][]relation.Tuple{
		"q(x,y,z) = R(x,y), S(y,z)": {{1, 2, 9}, {1 << 33, 2, 9}},
		"q(y,z,x) = S(y,z), R(x,y)": {{2, 9, 1}, {2, 9, 1 << 33}},
	} {
		out, err := EvaluateRuns(query.MustParse(text), Runs{"R": {r, wide}, "S": {run(2, relation.Tuple{2, 9})}})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Tuples(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s over a one-word and a two-word run: %v, want %v", text, got, want)
		}
	}
	// A wrong-arity run is an error, an empty one of wrong arity is not.
	if _, err := EvaluateRuns(q, Runs{"R": {r}, "S": {run(1, relation.Tuple{2})}}); err == nil {
		t.Error("want arity error")
	}
	if _, err := EvaluateRuns(q, Runs{"R": {r, run(3)}, "S": {run(2, relation.Tuple{2, 9})}}); err != nil {
		t.Errorf("empty wrong-arity run: %v", err)
	}
}

// TestEvaluateRunsAnswersOwnTheirMemory: eight goroutines join the same
// sealed runs over and over — answers of one word a row and of two, in
// and out of the level order — while the scratch the answers are built in passes from
// join to join. Every answer equals the hash-join oracle, its payload is
// exactly its rows' size, and it is still equal once every later join
// has run: no answer shares memory with a scratch.
func TestEvaluateRunsAnswersOwnTheirMemory(t *testing.T) {
	const goroutines, calls = 8, 24
	rng := rand.New(rand.NewPCG(42, 42))
	draw := func(arity, rows, domain, col, keys int) []relation.Tuple {
		out := make([]relation.Tuple, rows)
		for i := range out {
			out[i] = make(relation.Tuple, arity)
			for j := range out[i] {
				out[i][j] = rng.IntN(domain)
			}
			out[i][col] = rng.IntN(keys)
		}
		return out
	}
	type joinCase struct {
		q    *query.Query
		runs Runs
		want []relation.Tuple
	}
	var cases []joinCase
	for _, c := range []struct {
		text string
		b    Bindings
	}{
		// 5 × 16-bit values do not fit a word: the answer takes two.
		{"q(a,b,c,d,e) = A(a,b,c), B(c,d,e)", Bindings{"A": draw(3, 300, 1<<16, 2, 40), "B": draw(3, 300, 1<<16, 0, 40)}},
		{"q(a,b,c) = A(a,b), B(b,c)", Bindings{"A": draw(2, 400, 1000, 1, 60), "B": draw(2, 400, 1000, 0, 60)}},
		{"q(c,a,b) = A(a,b), B(b,c)", Bindings{"A": draw(2, 400, 1000, 1, 60), "B": draw(2, 400, 1000, 0, 60)}},
		{"q(x,y,z) = A(x,y), B(y,z), C(z,x)", Bindings{"A": draw(2, 500, 30, 0, 30), "B": draw(2, 500, 30, 0, 30), "C": draw(2, 500, 30, 0, 30)}},
	} {
		q := query.MustParse(c.text)
		want, err := Evaluate(q, c.b, HashJoin)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: oracle: %d answers, %v", q, len(want), err)
		}
		cases = append(cases, joinCase{q, runsOf(rng, q, c.b), want})
	}
	type kept struct {
		c   int
		out *relation.Run
	}
	answers := make([][]kept, goroutines)
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				c := (g + i) % len(cases)
				out, err := EvaluateRuns(cases[c].q, cases[c].runs)
				if err != nil {
					t.Errorf("%s: %v", cases[c].q, err)
					return
				}
				if got := out.Tuples(); !out.Sealed() || !reflect.DeepEqual(got, cases[c].want) {
					t.Errorf("%s: sealed=%v, %d answers, want %d", cases[c].q, out.Sealed(), len(got), len(cases[c].want))
					return
				}
				if words := out.Words(); cap(words) != len(words) {
					t.Errorf("%s: the answer's payload is not its rows' size", cases[c].q)
					return
				}
				answers[g] = append(answers[g], kept{c, out})
			}
		}()
	}
	wg.Wait()
	strided := 0
	for _, ks := range answers {
		for _, k := range ks {
			if got := k.out.Tuples(); !reflect.DeepEqual(got, cases[k.c].want) {
				t.Fatalf("%s: an answer changed after later joins", cases[k.c].q)
			}
			if k.out.Stride() > 1 {
				strided++
			}
		}
	}
	if strided == 0 {
		t.Fatal("no answer took more than one word a row")
	}
}

// fuzzQueries are the shapes FuzzEvaluateRuns draws from: word runs at
// arity 1 (one 64-bit field, sign bit flipped), 2 and 3, in and out of
// level order, with and without repeats, and chains whose outer variables
// one atom alone binds (the walk in place). New shapes go at the end, so
// the seeds keep theirs.
var fuzzQueries = []string{
	"q(x,y,z) = A(x,y), B(y,z), C(z,x)",
	"q(x) = A(x), B(x)",
	"q(x,y) = A(x,x), B(y,x)",
	"q(x,y,z) = A(z,y,x), B(x,z)",
	"q(x,y) = A(x,y,x), B(y)",
	"q(a,b,c) = A(a,b), B(b,c)",
	"q(a,b,c,d,e) = A(a,b,c), B(c,d,e)",
}

// fuzzRuns deals words to the atoms of q as a foreign peer could put them
// on the wire: round-robin to the atoms; each atom's share in rows of its
// stride — 1 + (split>>2) mod its arity, taken to the fewest words that
// many fields a word allow — into 1 + split%3 runs, with the bits outside
// a row's fields cleared and each run's rows sorted, as the wire decoder
// would reject the rest. A run whose 64-bit fields hold a negative value,
// which the wire refuses, is built from its tuples instead, as one is in
// process. It returns the runs and a copy of each one's words.
func fuzzRuns(t *testing.T, q *query.Query, split uint8, ws []uint64) (Runs, [][]uint64) {
	runs := make(Runs, len(q.Atoms))
	var before [][]uint64
	for ai, a := range q.Atoms {
		arity, k := a.Arity(), 1+int(split)%3
		per := (arity + int(split>>2)%arity) / (1 + int(split>>2)%arity)
		stride := (arity + per - 1) / per
		width := uint(64 / per)
		var share []uint64
		for i := ai; i < len(ws); i += len(q.Atoms) {
			share = append(share, ws[i])
		}
		parts := make([][][]uint64, k)
		for r := 0; r+stride <= len(share); r += stride {
			row := slices.Clone(share[r : r+stride])
			for w := range row {
				if used := uint(min(per, arity-w*per)) * width; used < 64 {
					row[w] &= 1<<used - 1
				}
			}
			parts[r/stride%k] = append(parts[r/stride%k], row)
		}
		for _, p := range parts {
			slices.SortFunc(p, slices.Compare)
			words := slices.Concat(p...)
			buf, err := relation.NewRunFromWords(arity, stride, slices.Clone(words))
			if err != nil && width == 64 && strings.Contains(err.Error(), "negative") {
				tuples := make([]relation.Tuple, len(p))
				for i, row := range p {
					tuples[i] = make(relation.Tuple, arity)
					for j, x := range row {
						tuples[i][j] = int(x ^ 1<<63)
					}
				}
				buf, err = relation.RunOf(arity, tuples), nil
			}
			if err != nil {
				t.Fatalf("atom %s: %v", a.Name, err)
			}
			runs[a.Name] = append(runs[a.Name], buf)
			before = append(before, slices.Clone(buf.Words()))
		}
	}
	return runs, before
}

// FuzzEvaluateRuns feeds arbitrary word runs (fuzzRuns) to the trie
// builder. Whatever the words, the evaluator must not panic, must leave
// the runs untouched, and must return exactly what the hash join computes
// from the same runs read back as tuples.
func FuzzEvaluateRuns(f *testing.F) {
	words := func(ws ...uint64) []byte {
		out := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return out
	}
	f.Add(uint8(0), uint8(2), words(1<<32|2, 2<<32|3, 3<<32|1, 1<<32|2, 5<<32|5, 7))
	f.Add(uint8(1), uint8(1), words(0, 1<<63, ^uint64(0), 7, 7, 1<<63))
	f.Add(uint8(1), uint8(3), words(3, 1, 2, 3, 1<<62, 2))
	f.Add(uint8(1), uint8(0), words(5, 5, ^uint64(0), ^uint64(0))) // both hold a negative value and math.MaxInt
	f.Add(uint8(2), uint8(2), words(4<<32|4, 4<<32|5, 9<<32|4, 0xffffffff<<32|0xffffffff, 0xffffffff<<32|4))
	f.Add(uint8(3), uint8(1), words(1<<42|2<<21|3, 3<<42|2<<21|1, 3<<32|1, 1<<32|3))
	f.Add(uint8(4), uint8(2), words(5<<42|6<<21|5, 5<<42|6<<21|4, 6, 0x1fffff<<42|0x1fffff))
	f.Add(uint8(3), uint8(0), words(5<<42|6<<21|7, (1<<21|7)<<32|5, 5<<42|6<<21|7, 7<<32|5, 0, 1<<22<<32, 0x1fffff<<42|0x1fffff, 0x1fffff<<32|0x1fffff)) // wider than A's field
	f.Add(uint8(1), uint8(0), words(math.MaxInt, math.MaxInt, 0, 0, 1<<62, 1<<62))
	f.Add(uint8(2), uint8(1), words(0xffffffff<<32|0xffffffff, 0xffffffff<<32|0xffffffff, 0, 0, 0xffffffff<<32, 0xffffffff)) // the mask above the last level
	f.Add(uint8(0), uint8(0), []byte{})
	// The chains, dealt A, B, A, B, …: repeated rows inside one run and
	// across runs, and a lone atom's field at the mask — a first level
	// whose last value open leaves unbounded, a last level ending on a
	// word with every bit set.
	f.Add(uint8(5), uint8(0), words(1<<32|2, 2<<32|3, 1<<32|2, 2<<32|3, 1<<32|2, 2<<32|9, 4<<32|2, 2<<32|3))
	f.Add(uint8(5), uint8(2), words(1<<32|2, 2<<32|3, 1<<32|2, 2<<32|3, 1<<32|2, 2<<32|3, 4<<32|2, 2<<32|9))
	f.Add(uint8(5), uint8(0), words(0xffffffff<<32|2, 2<<32|0xffffffff, 0xffffffff<<32|5, 5<<32|1, 0xffffffff<<32|0xffffffff, 0xffffffff<<32|0xffffffff, 0xffffffff<<32|0xffffffff, 0xffffffff<<32|0xffffffff))
	f.Add(uint8(6), uint8(0), words(0x1fffff<<42|0x1fffff<<21|7, 7<<42|0x1fffff<<21|0x1fffff, 0x1fffff<<42|0x1fffff<<21|7, 7<<42|0x1fffff<<21|0x1fffff, 3<<42|0x1fffff<<21|7, 7<<42|1<<21|2))
	f.Add(uint8(6), uint8(1), words(1<<42|2<<21|3, 3<<42|4<<21|5, 1<<42|2<<21|3, 3<<42|4<<21|5, 1<<42|2<<21|3, 3<<42|4<<21|6, 0x1fffff<<42|0x1fffff<<21|0x1fffff, 0x1fffff<<42|0x1fffff<<21|0x1fffff))
	// Rows wider than a word. Stride 2 at arity 2 and 3 (split 4), 3 at
	// arity 3 (split 8): a level in the second word, bound under the first.
	const s = 1 << 63 // a 64-bit field's zero
	f.Add(uint8(5), uint8(4), words(s|1, s|2, s|2, s|3, s|1, s|2, s|2, s|9, s|1<<40, s|2, s|2, s|1<<40))
	f.Add(uint8(6), uint8(4), words(1<<32|2, 3, 3<<32|4, 5, 1<<32|2, 3, 3<<32|4, 6, 0xffffffff<<32|0xffffffff, 0xffffffff, 3<<32|0xffffffff, 0xffffffff))
	f.Add(uint8(6), uint8(8), words(s|1, s|2, s|3, s|3, s|4, s|5, s|1, s|2, s|3, s|3, s|4, s|6, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)))
	f.Add(uint8(0), uint8(5), words(s|1, s|2, s|2, s|3, s|3, s|1, s|1, s|2, s|2, s|3, s|3, s|1))
	// 64-bit fields holding negative values: below every non-negative one,
	// in order, and joined with them.
	f.Add(uint8(5), uint8(4), words(1, 2, 2, 3, 1, s|2, s|2, 3, 2, 2, s|5, s|5))
	f.Add(uint8(1), uint8(2), words(1, 1, s, s, ^uint64(0)>>1, ^uint64(0)>>1, 7, s|7))
	// A row repeated across the runs of a wide atom, and a narrow one's.
	f.Add(uint8(6), uint8(5), words(1<<32|2, 3, 3<<32|4, 5, 1<<32|2, 3, 3<<32|4, 5, 1<<32|2, 3, 3<<32|4, 5))
	// Levels where B starts its trie below depth 0 (at y, b and c): a
	// planted triangle among decoys; a value repeated across the runs of
	// both atoms and offered under several bindings, beside one B lacks; a
	// heavy value offered under most bindings, with many rows below it in B.
	f.Add(uint8(0), uint8(0), words(1<<32|2, 2<<32|3, 3<<32|1, 4<<32|5, 5<<32|6, 6<<32|4, 1<<32|5, 5<<32|3, 7<<32|1, 8<<32|2, 2<<32|8, 8<<32|9))
	f.Add(uint8(5), uint8(2), words(1<<32|7, 7<<32|3, 2<<32|7, 7<<32|3, 3<<32|7, 7<<32|4, 1<<32|7, 7<<32|3, 4<<32|8, 9<<32|1, 2<<32|7, 7<<32|4))
	f.Add(uint8(5), uint8(0), words(1<<32|7, 7<<32|1, 2<<32|7, 7<<32|2, 3<<32|7, 7<<32|3, 4<<32|7, 7<<32|4, 5<<32|8, 8<<32|5, 6<<32|7, 7<<32|6, 0xffffffff<<32|7, 7<<32|0xffffffff))
	f.Add(uint8(6), uint8(1), words(1<<42|2<<21|7, 7<<42|1<<21|1, 3<<42|4<<21|7, 7<<42|2<<21|2, 5<<42|6<<21|7, 7<<42|3<<21|3, 1<<42|2<<21|9, 8<<42|1<<21|1))
	f.Fuzz(func(t *testing.T, shape, split uint8, data []byte) {
		q := query.MustParse(fuzzQueries[int(shape)%len(fuzzQueries)])
		var ws []uint64
		for ; len(data) >= 8; data = data[8:] {
			ws = append(ws, binary.LittleEndian.Uint64(data))
		}
		runs, before := fuzzRuns(t, q, split, ws)
		b := make(Bindings, len(q.Atoms))
		for _, a := range q.Atoms {
			for _, run := range runs[a.Name] {
				b[a.Name] = run.AppendTuples(b[a.Name])
			}
		}
		want, err := Evaluate(q, b, HashJoin)
		if err != nil {
			t.Fatalf("hash join: %v", err)
		}
		got, err := EvaluateRuns(q, runs)
		if err != nil {
			t.Fatalf("wcoj: %v", err)
		}
		if len(got.Tuples()) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.Tuples(), want) {
			t.Fatalf("%s: wcoj and hash join disagree", q)
		}
		i := 0
		for _, a := range q.Atoms {
			for _, buf := range runs[a.Name] {
				if !slices.Equal(buf.Words(), before[i]) {
					t.Fatalf("atom %s: run modified", a.Name)
				}
				i++
			}
		}
	})
}

// TestStartingTrieBelowDepthZero: in R(x,y), S(y,z) and the triangle
// with T(z,x), S starts its trie at y, under every x R binds — the level
// whose level-0 seeks restart under each binding above. R offers one or
// two values under each of up to 66 000 x, a few x offer 20, and one heavy
// value is offered under many x and has many rows in S; S lacks every
// tenth value; T closes a third of R's rows into triangles. The answers
// equal the hash join's. After a first join, a join allocates its answer's
// bytes and a constant more, at 2¹⁵ bindings as at 1.3·10⁵: nothing it
// keeps grows with the bindings.
func TestStartingTrieBelowDepthZero(t *testing.T) {
	const overhead = 16 << 10
	// One P, as in TestWarmJoinWritesItsAnswerOnce: the answers' scratch
	// pool keeps a run per P, so every join finds the one the join before
	// handed back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const heavy = 7
	for _, n := range []int{1 << 15, 2<<16 + 1000} {
		rng := rand.New(rand.NewPCG(uint64(n), 47))
		r := make([]relation.Tuple, n)
		for i := range r {
			var y int
			switch {
			case i%2 == 1 && i%50 == 1:
				y = heavy
			case i%2 == 1:
				y = 10 + rng.IntN(n/8)
			default:
				y = 10 + n/8 + rng.IntN(n/8)
			}
			r[i] = relation.Tuple{(i + 1) / 2, y}
		}
		for _, x := range []int{1000, 20000, 40000, 1<<16 + 5} {
			for k := range 20 {
				r = append(r, relation.Tuple{x, 10 + 13*k})
			}
		}
		var s, tt []relation.Tuple
		for y := 0; y < 10+n/4; y++ {
			if y%10 == 3 {
				continue
			}
			for z := range 1 + y%3 {
				s = append(s, relation.Tuple{y, z})
			}
		}
		for z := range 40 {
			s = append(s, relation.Tuple{heavy, 100 + z})
		}
		for i, row := range r {
			if i%3 == 0 {
				tt = append(tt, relation.Tuple{row[1] % 3, row[0]}, relation.Tuple{100 + i%40, row[0]}, relation.Tuple{50, row[0]})
			}
		}
		b := Bindings{"R": r, "S": s, "T": tt}
		runs := Runs{"R": {relation.RunOf(2, r)}, "S": {relation.RunOf(2, s)}, "T": {relation.RunOf(2, tt)}}
		for _, text := range []string{"q(x,y,z) = R(x,y), S(y,z)", "q(x,y,z) = R(x,y), S(y,z), T(z,x)"} {
			q := query.MustParse(text)
			want, err := Evaluate(q, b, HashJoin)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvaluateRuns(q, runs)
			if err != nil {
				t.Fatal(err)
			}
			if tuples := got.Tuples(); len(want) == 0 || !reflect.DeepEqual(tuples, want) {
				t.Fatalf("%s, %d bindings: %d answers, want %d", q, n, len(tuples), len(want))
			}
			// The least of several joins, as under the race detector a
			// pool drops a quarter of what is handed back.
			least := uint64(math.MaxUint64)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := EvaluateRuns(q, runs); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if answer := uint64(8 * len(got.Words())); least > answer+overhead {
				t.Errorf("%s, %d bindings: a join allocated %d bytes, want at most the answer's %d and %d more", q, n, least, answer, overhead)
			}
		}
	}
}
