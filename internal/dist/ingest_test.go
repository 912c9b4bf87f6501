package dist_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/relation"
)

// TestAppendClearsTombstone: a row appended after a retraction hid it
// reads live whichever step carried it — a plain delivery, or an
// extension that also registers a Δ view — and a later retraction hides
// it again; on both links. (Until version 14 only the extension cleared
// the tombstone.)
func TestAppendClearsTombstone(t *testing.T) {
	row := relation.RunOf(2, []relation.Tuple{{1, 2}})
	for _, link := range []struct {
		name string
		dial func(*testing.T) dist.Transport
	}{
		{"loopback", func(*testing.T) dist.Transport { return dist.NewLoopback(1) }},
		{"tcp", func(t *testing.T) dist.Transport { return dialPool(t, startPool(t, 1)) }},
	} {
		for _, mode := range []struct{ name, view string }{{"delivery", ""}, {"extension", "d"}} {
			t.Run(link.name+"/"+mode.name, func(t *testing.T) {
				ctx := context.Background()
				tr := link.dial(t)
				round := 0
				step := func(del bool, view string, run *relation.Run) {
					t.Helper()
					round++
					op := dist.Op{Kind: dist.OpDeliver, Round: round, View: view, Del: del,
						Deliveries: []exchange.Delivery{{Rel: "R", Buf: run}}}
					if _, err := tr.Run(ctx, []dist.Op{op, {Kind: dist.OpBarrier, Round: round}}); err != nil {
						t.Fatal(err)
					}
				}
				reads := func(when string, want ...relation.Tuple) {
					t.Helper()
					runs, err := gather(ctx, tr, "R")
					if got := relation.Merge(runs).Tuples(); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: R reads %v (%v), want %v", when, got, err, want)
					}
				}
				step(false, "", relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}}))
				step(true, "", row)
				reads("after the retraction", relation.Tuple{3, 4})
				step(false, mode.view, row)
				reads("after the append", relation.Tuple{1, 2}, relation.Tuple{3, 4})
				step(true, "", row)
				reads("after the second retraction", relation.Tuple{3, 4})
			})
		}
	}
}
