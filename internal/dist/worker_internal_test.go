package dist

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/wire"
)

// TestSessionParsesJoinQueryOnce: a worker session remembers what the
// last join frame's query text parsed into, so the frames of a fixpoint
// — same rule body, a new view every iteration — parse once; a frame
// with a different text is parsed afresh and evaluated as what it says,
// and so is the first text when it comes back.
func TestSessionParsesJoinQueryOnce(t *testing.T) {
	s := &session{store: newWorkerStore(residentHome{})}
	s.store.add("R", relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}}))
	s.store.add("S", relation.RunOf(2, []relation.Tuple{{2, 5}, {4, 6}}))
	join := func(text, view string) {
		t.Helper()
		if _, _, err := s.handle(&wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: text, View: view}}); err != nil {
			t.Fatal(err)
		}
	}
	arity := func(view string) int {
		t.Helper()
		runs := s.store.runs(view)
		if len(runs) != 1 || runs[0].Len() != 2 {
			t.Fatalf("view %s holds %d runs, want one of two answers", view, len(runs))
		}
		return runs[0].Arity()
	}
	const chain, single = "q(x,y,z) = R(x,y), S(y,z)", "q(x,y) = R(x,y)"

	join(chain, "v1")
	first := s.joinQuery
	join(chain, "v2")
	if first == nil || s.joinQuery != first {
		t.Error("the second join frame with the same text was parsed again")
	}
	if arity("v1") != 3 || arity("v2") != 3 {
		t.Errorf("chain views have arity %d and %d, want 3", arity("v1"), arity("v2"))
	}
	join(single, "v3")
	if s.joinQuery == first || s.joinText != single {
		t.Error("a different query text was served the remembered query")
	}
	if arity("v3") != 2 {
		t.Errorf("single-atom view has arity %d, want 2", arity("v3"))
	}
	join(chain, "v4")
	if arity("v4") != 3 {
		t.Errorf("chain view after the switch has arity %d, want 3", arity("v4"))
	}
	if _, _, err := s.handle(&wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: "R(x,", View: "v5"}}); err == nil {
		t.Error("malformed query text accepted")
	}
	join(chain, "v6") // a failed parse leaves the memo usable
	if arity("v6") != 3 {
		t.Errorf("chain view after a parse error has arity %d, want 3", arity("v6"))
	}
}

// TestTombstonedReadBuildsNoTuples: a store with live tombstones is read
// as Diff(Merge(runs), dead) over words, so what the read allocates does
// not grow with the rows it reads. Until tombstones were a run it decoded
// every stored row to a tuple and probed a set with it: thousands of
// allocations over this store of two 2 000-row runs with 50 tombstones.
func TestTombstonedReadBuildsNoTuples(t *testing.T) {
	w := newWorkerStore(residentHome{})
	var dead []relation.Tuple
	for r := 0; r < 2; r++ {
		rows := make([]relation.Tuple, 2000)
		for i := range rows {
			rows[i] = relation.Tuple{2*i + r, i % 97}
		}
		if err := w.add("R", relation.RunOf(2, rows)); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, rows[:25]...)
	}
	if err := w.receive(&wire.Data{Rel: "R", Del: true, Buf: relation.RunOf(2, dead)}); err != nil {
		t.Fatal(err)
	}
	var live []*relation.Run
	allocs := testing.AllocsPerRun(20, func() { live = w.runs("R") })
	if len(live) != 1 || live[0].Len() != 4000-len(dead) {
		t.Fatalf("read %d runs, want one of the %d live rows", len(live), 4000-len(dead))
	}
	if allocs > 12 { // 9 when written: the merge's arenas, the diff's output, their headers
		t.Errorf("a tombstoned read allocated %.0f times, want a small constant", allocs)
	}
}

// TestAbsorbKeepsEachRowOnce: an absorbing delta keeps only what its
// store lacks and registers that as the Δ view — whether the rows repeat
// within a run (a sealed run from a peer may), arrive in two runs of one
// round, or were held already — and a store absorbed into is counted
// and cut under a gather limit without being merged, so each row must be
// in one of its runs: the count is the distinct rows, the prefix theirs.
func TestAbsorbKeepsEachRowOnce(t *testing.T) {
	w := newWorkerStore(residentHome{})
	pack := func(rows ...relation.Tuple) []uint64 {
		return relation.RunOf(2, rows).Words()
	}
	if err := w.add("R", relation.RunOf(2, []relation.Tuple{{1, 1}, {3, 3}})); err != nil {
		t.Fatal(err)
	}
	repeats, err := relation.NewRunFromWords(2, 1, append(pack(relation.Tuple{2, 2}), pack(relation.Tuple{2, 2}, relation.Tuple{3, 3})...))
	if err != nil {
		t.Fatal(err)
	}
	for i, round := range []struct {
		runs []*relation.Run
		want []relation.Tuple
	}{
		{[]*relation.Run{repeats}, []relation.Tuple{{2, 2}}},
		{[]*relation.Run{relation.RunOf(2, []relation.Tuple{{2, 2}, {5, 5}}), relation.RunOf(2, []relation.Tuple{{4, 4}, {5, 5}})}, []relation.Tuple{{4, 4}, {5, 5}}},
	} {
		view := fmt.Sprint("d", i)
		for _, run := range round.runs {
			if err := w.receive(&wire.Data{Rel: "R", View: view, Absorb: true, Buf: run}); err != nil {
				t.Fatal(err)
			}
		}
		if d := w.runs(view); len(d) != 1 || !reflect.DeepEqual(d[0].Tuples(), round.want) {
			t.Fatalf("round %d: the Δ view holds %v, want the rows the store lacked, %v", i, d, round.want)
		}
	}
	for _, limit := range []int64{1, 3, -1} {
		runs, rows := w.gather("R", limit)
		want := []relation.Tuple{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}[:max(limit, 0)]
		var got []relation.Tuple
		if len(runs) == 1 {
			got = runs[0].Tuples()
		}
		if rows != 5 || len(runs) > 1 || !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Errorf("gather under limit %d: %d rows counted, %v; want 5 and %v", limit, rows, got, want)
		}
	}
}
