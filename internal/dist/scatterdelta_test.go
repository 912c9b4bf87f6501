package dist_test

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// deltaCapture is a loopback pool that also notes, per destination, the
// tuples every delivery carried.
type deltaCapture struct {
	*dist.Loopback
	got [][]relation.Tuple
}

func (c *deltaCapture) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		for _, d := range op.Deliveries {
			c.got[d.To] = d.Buf.AppendTuples(c.got[d.To])
		}
	}
	return c.Loopback.Run(ctx, ops)
}

// sortOccurrences orders tuples lexicographically, repeats kept.
func sortOccurrences(ts []relation.Tuple) {
	slices.SortFunc(ts, func(a, b relation.Tuple) int { return slices.Compare(a, b) })
}

// TestScatterDeltaRunNative: a Δ scattered as the sealed run it was
// gathered as is received exactly as the tuple-taking ScatterDelta of
// PR 22's tree received the same tuples in any order — that one ran
// exchange.Partition over the slice, which is the reference here: equal
// per-worker tuple and bit counts in the round's record, equal tuples at
// every destination, a tuple the caller repeats counted and delivered
// once per occurrence. Packed and flat runs, a batch large enough to
// split into sender shards, grid replication.
func TestScatterDeltaRunNative(t *testing.T) {
	const p, n = 8, 3*2048 + 77
	ctx := context.Background()
	q := query.Triangle()
	shares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	part := hypercube.NewGridPartitioner(shares, hypercube.NewHasher(shares, 11), q.Atoms[0])
	if part.Fanout() < 2 {
		t.Fatalf("fanout %d: the test wants replication", part.Fanout())
	}
	for _, offset := range []int{0, 1 << 33} {
		rng := rand.New(rand.NewPCG(61, uint64(offset)))
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{offset + rng.IntN(500), offset + rng.IntN(500)}
		}
		tuples = append(tuples, tuples[0], tuples[1], tuples[0]) // repeated occurrences
		domain := offset + 500

		scatter := func(order []relation.Tuple) (mpc.RoundStats, [][]relation.Tuple) {
			t.Helper()
			run := relation.NewRun(2)
			for _, tu := range order {
				run.Append(tu)
			}
			run.Seal()
			if (run.Stride() == 1) != (offset == 0) {
				t.Fatalf("offset %d: %d words a row", offset, run.Stride())
			}
			tr := &deltaCapture{Loopback: dist.NewLoopback(p), got: make([][]relation.Tuple, p)}
			cl, err := dist.NewCluster(mpc.Config{Workers: p, DomainN: domain}, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.ScatterDelta(ctx, run, "S1", "delta", false, part); err != nil {
				t.Fatal(err)
			}
			for _, got := range tr.got {
				sortOccurrences(got)
			}
			return cl.Stats().Rounds[0], tr.got
		}

		// The reference: Partition over the tuples in a shuffled order.
		shuffled := append([]relation.Tuple(nil), tuples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		ds, err := exchange.Partition("S1", shuffled, 2, p, part)
		if err != nil {
			t.Fatal(err)
		}
		want := mpc.RoundStats{Round: 1, PerWorkerBits: make([]int64, p), PerWorkerTuples: make([]int64, p)}
		wantAt := make([][]relation.Tuple, p)
		for _, d := range ds {
			want.Account(d.To, int64(d.Buf.Len()), d.Buf.Bits(relation.BitsPerValue(domain)))
			wantAt[d.To] = d.Buf.AppendTuples(wantAt[d.To])
		}
		for _, at := range wantAt {
			sortOccurrences(at)
		}
		if want.TotalTuples != int64(len(tuples)*part.Fanout()) {
			t.Fatalf("reference routed %d receipts, want %d × fanout %d", want.TotalTuples, len(tuples), part.Fanout())
		}

		for name, order := range map[string][]relation.Tuple{"as drawn": tuples, "shuffled": shuffled} {
			got, gotAt := scatter(order)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("offset %d, %s: round record\n got %+v\nwant %+v", offset, name, got, want)
			}
			if !reflect.DeepEqual(gotAt, wantAt) {
				t.Errorf("offset %d, %s: some destination received other tuples than Partition sends it", offset, name)
			}
		}
	}
}
