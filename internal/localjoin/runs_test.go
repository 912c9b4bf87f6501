package localjoin

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
	// A store mixing a packed and a flat run reads as the tuple trie, under
	// a permuted atom too.
	wide := run(2, relation.Tuple{1 << 33, 2}, relation.Tuple{4, 1 << 33})
	if _, packed := wide.Words(); packed {
		t.Fatal("a value of 2³³ must not pack at arity 2")
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
			t.Errorf("%s over a packed and a flat run: %v, want %v", text, got, want)
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
// sealed runs over and over — answers packed and flat, in and out of the
// level order — while the scratch the answers are built in passes from
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
		// 5 × 16-bit values do not fit a word: the answer is flat.
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
				if words, packed := out.Words(); packed && cap(words) != len(words) || !packed && cap(out.Flat()) != len(out.Flat()) {
					t.Errorf("%s: the answer's payload is not its rows' size", cases[c].q)
					return
				}
				answers[g] = append(answers[g], kept{c, out})
			}
		}()
	}
	wg.Wait()
	flat := 0
	for _, ks := range answers {
		for _, k := range ks {
			if got := k.out.Tuples(); !reflect.DeepEqual(got, cases[k.c].want) {
				t.Fatalf("%s: an answer changed after later joins", cases[k.c].q)
			}
			if _, packed := k.out.Words(); !packed {
				flat++
			}
		}
	}
	if flat == 0 {
		t.Fatal("no answer was on the flat layout")
	}
}

// fuzzQueries are the shapes FuzzEvaluateRuns draws from: word runs at
// arity 1 (full 64-bit words, top bit included), 2 and 3, in and out of
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

// FuzzEvaluateRuns feeds arbitrary word runs — as a foreign peer could
// put them on the wire — to the trie builder. Whatever the words, the
// evaluator must not panic, must leave the runs untouched, and must
// return exactly what the hash join computes from the same runs read
// back as tuples.
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
	f.Add(uint8(1), uint8(0), words(5, 5, ^uint64(0), ^uint64(0))) // both hold 5 and "-1"
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
	f.Fuzz(func(t *testing.T, shape, split uint8, data []byte) {
		q := query.MustParse(fuzzQueries[int(shape)%len(fuzzQueries)])
		var ws []uint64
		for ; len(data) >= 8; data = data[8:] {
			ws = append(ws, binary.LittleEndian.Uint64(data))
		}
		// Deal the words round-robin to the atoms, each atom's share into
		// 1 + split%3 runs; bits above the atom's packed width are cleared
		// and each run is sorted, as the wire decoder would reject the rest.
		runs := make(Runs, len(q.Atoms))
		var before [][]uint64
		for ai, a := range q.Atoms {
			k := 1 + int(split)%3
			parts := make([][]uint64, k)
			for i := ai; i < len(ws); i += len(q.Atoms) {
				w := ws[i]
				if used := uint(a.Arity()) * relation.PackedShift(a.Arity()); used < 64 {
					w &= 1<<used - 1
				}
				parts[i%k] = append(parts[i%k], w)
			}
			for _, p := range parts {
				slices.Sort(p)
				buf, err := relation.NewRunFromWords(a.Arity(), p)
				if err != nil {
					t.Fatalf("atom %s: %v", a.Name, err)
				}
				runs[a.Name] = append(runs[a.Name], buf)
				before = append(before, append([]uint64(nil), p...))
			}
		}
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
				if now, _ := buf.Words(); !reflect.DeepEqual(append([]uint64(nil), now...), before[i]) {
					t.Fatalf("atom %s: run modified", a.Name)
				}
				i++
			}
		}
	})
}
