package mpc_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestConfigValidation(t *testing.T) {
	bad := []mpc.Config{
		{Workers: 0, DomainN: 1},
		{Workers: 1, Epsilon: -0.1, DomainN: 1},
		{Workers: 1, Epsilon: 1.5, DomainN: 1},
		{Workers: 1, DomainN: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
	if err := (mpc.Config{Workers: 1, Epsilon: 1, DomainN: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestReceiveCap(t *testing.T) {
	cfg := mpc.Config{Workers: 16, Epsilon: 0, InputBits: 1 << 20, CapConstant: 1, DomainN: 10}
	// c·N/p^{1-0} = 2^20/16 = 65536.
	if got := cfg.ReceiveCap(); got != 65536 {
		t.Errorf("ReceiveCap = %d, want 65536", got)
	}
	cfg.Epsilon = 1
	// p^{1-1} = 1: the whole input.
	if got := cfg.ReceiveCap(); got != 1<<20 {
		t.Errorf("ReceiveCap(ε=1) = %d, want %d", got, 1<<20)
	}
	cfg.CapConstant = 0
	if got := cfg.ReceiveCap(); got != 0 {
		t.Errorf("disabled cap = %d, want 0", got)
	}
}

// newRound returns the record of round r on a p-worker cluster, sized
// the way Account requires.
func newRound(r, p int) mpc.RoundStats {
	return mpc.RoundStats{Round: r, PerWorkerBits: make([]int64, p), PerWorkerTuples: make([]int64, p)}
}

func TestRunRoundStats(t *testing.T) {
	// Worker 1 receives two runs of one 2-ary tuple each at 7 bits per
	// value: 28 bits.
	rs := newRound(1, 2)
	rs.Account(1, 1, 14)
	rs.Account(1, 1, 14)
	if rs.TotalBits != 28 || rs.MaxReceivedBits != 28 || rs.TotalTuples != 2 || rs.MaxReceivedTuples != 2 {
		t.Errorf("stats = %+v", rs)
	}
	if rs.PerWorkerBits[0] != 0 || rs.PerWorkerBits[1] != 28 || rs.PerWorkerTuples[1] != 2 {
		t.Errorf("per-worker = %v / %v", rs.PerWorkerBits, rs.PerWorkerTuples)
	}
	s := mpc.Stats{Rounds: []mpc.RoundStats{rs}}
	if s.TotalBits() != 28 || s.MaxLoadBits() != 28 || s.MaxLoadTuples() != 2 || s.NumRounds() != 1 {
		t.Error("aggregate stats mismatch")
	}
	if got := s.Replication(28); got != 1.0 {
		t.Errorf("replication = %v", got)
	}
	if got := s.Replication(0); got != 0 {
		t.Errorf("replication with zero input = %v", got)
	}
}

func TestCapEnforcement(t *testing.T) {
	// Budget 16 bits; worker 1 received 3 tuples of 14 bits = 42 > 16.
	rs := newRound(3, 4)
	rs.Account(1, 3, 42)
	err := rs.CheckCap(16)
	if !errors.Is(err, mpc.ErrCapExceeded) {
		t.Fatalf("err = %v, want ErrCapExceeded", err)
	}
	if err := rs.CheckCap(42); err != nil {
		t.Errorf("load equal to the budget rejected: %v", err)
	}
	if err := rs.CheckCap(0); err != nil {
		t.Errorf("budget 0 must disable enforcement: %v", err)
	}
}

// The tests below hold the cluster (internal/dist, on its in-process
// loopback) to the model's rules: what a round is, where tuples land
// and what they cost.

// routeFunc routes each tuple to the workers a function names.
type routeFunc func(t relation.Tuple) []int

func (f routeFunc) Route(_ int, t relation.Tuple, buf []int) []int { return append(buf, f(t)...) }

// recorder is a loopback pool that also notes what each worker was
// sent.
type recorder struct {
	*dist.Loopback
	got map[int]map[string][]relation.Tuple
}

func (r *recorder) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		for _, d := range op.Deliveries {
			if r.got[d.To] == nil {
				r.got[d.To] = map[string][]relation.Tuple{}
			}
			r.got[d.To][d.Rel] = d.Buf.AppendTuples(r.got[d.To][d.Rel])
		}
	}
	return r.Loopback.Run(ctx, ops)
}

func newTestCluster(t *testing.T, p int, eps float64, inputBits int64, capC float64) (*dist.Cluster, *recorder) {
	t.Helper()
	rec := &recorder{Loopback: dist.NewLoopback(p), got: map[int]map[string][]relation.Tuple{}}
	// Stepped: the tests look at what was delivered before any fence.
	c, err := dist.NewCluster(mpc.Config{
		Workers:     p,
		Epsilon:     eps,
		InputBits:   inputBits,
		CapConstant: capC,
		DomainN:     100,
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	return c, rec
}

func unary(name string, vals ...int) *relation.Relation {
	r := relation.New(name, "x")
	for _, v := range vals {
		r.MustAdd(relation.Tuple{v})
	}
	return r
}

var ctx = context.Background()

func TestRunRoundDelivery(t *testing.T) {
	// A scatter outside BeginRound/EndRound is a round of its own.
	c, rec := newTestCluster(t, 4, 0, 1<<20, 0)
	next := routeFunc(func(t relation.Tuple) []int { return []int{t[0] % 4} })
	for round := 1; round <= 2; round++ {
		if err := c.Scatter(ctx, unary("R", 1, 2, 3, 4), "", next); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().NumRounds(); got != round {
			t.Fatalf("rounds = %d after %d lone scatters", got, round)
		}
	}
	for w := 0; w < 4; w++ {
		got := rec.got[w]["R"]
		if len(got) != 2 || got[0][0]%4 != w || got[1][0]%4 != w {
			t.Errorf("worker %d received %v", w, got)
		}
	}
	if rs := c.Stats().Rounds[1]; rs.Round != 2 || rs.TotalTuples != 4 {
		t.Errorf("round 2 = %+v", rs)
	}
}

func TestScatterRoutesByFunction(t *testing.T) {
	c, rec := newTestCluster(t, 4, 0, 1<<20, 0)
	if err := c.Scatter(ctx, unary("S", 1, 2, 3, 4, 5, 6, 7, 8), "", routeFunc(func(t relation.Tuple) []int {
		return []int{t[0] % 4}
	})); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		got := rec.got[w]["S"]
		if len(got) != 2 {
			t.Errorf("worker %d holds %d tuples, want 2", w, len(got))
		}
		for _, tp := range got {
			if tp[0]%4 != w {
				t.Errorf("worker %d received %v", w, tp)
			}
		}
	}
}

func TestScatterBadDestination(t *testing.T) {
	c, _ := newTestCluster(t, 2, 0, 1<<20, 0)
	if err := c.Scatter(ctx, unary("S", 1), "", routeFunc(func(relation.Tuple) []int { return []int{5} })); err == nil {
		t.Fatal("want error")
	}
}

func TestRunRoundBadDestination(t *testing.T) {
	// Inside an open round too, and the round can still be closed.
	c, _ := newTestCluster(t, 2, 0, 1<<20, 0)
	c.BeginRound()
	if err := c.Scatter(ctx, unary("R", 1), "", routeFunc(func(relation.Tuple) []int { return []int{99} })); err == nil {
		t.Fatal("want error for out-of-range destination")
	}
	if err := c.EndRound(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Stats().NumRounds() != 1 || c.Stats().TotalBits() != 0 {
		t.Errorf("misrouted scatter was accounted: %+v", c.Stats().Rounds)
	}
}

func TestBroadcast(t *testing.T) {
	c, rec := newTestCluster(t, 3, 1, 1<<20, 1)
	if err := c.Scatter(ctx, unary("T", 42), "", exchange.Broadcast{P: 3}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if got := rec.got[w]["T"]; len(got) != 1 || got[0][0] != 42 {
			t.Errorf("worker %d: %v", w, got)
		}
	}
}

func TestBeginEndRoundGroupsScatters(t *testing.T) {
	c, _ := newTestCluster(t, 2, 0, 1<<20, 0)
	toZero := exchange.HashPartitioner{P: 1}
	c.BeginRound()
	if err := c.Scatter(ctx, unary("A", 1), "", toZero); err != nil {
		t.Fatal(err)
	}
	if err := c.Scatter(ctx, unary("B", 2), "", toZero); err != nil {
		t.Fatal(err)
	}
	if err := c.EndRound(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Stats().NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1 (grouped)", c.Stats().NumRounds())
	}
	if c.Stats().Rounds[0].TotalTuples != 2 {
		t.Errorf("round tuples = %d, want 2", c.Stats().Rounds[0].TotalTuples)
	}
}

func TestEndRoundWithoutBegin(t *testing.T) {
	c, _ := newTestCluster(t, 2, 0, 1<<20, 0)
	if err := c.EndRound(ctx); err == nil {
		t.Fatal("want error")
	}
}

func TestBeginEndRoundCapViolation(t *testing.T) {
	// Budget 1·32/2 = 16 bits; two scatters of 7-bit singletons to the
	// same worker are fine (14), three trip it (21). The tuples are
	// delivered and the round recorded all the same, so experiments can
	// report an over-budget load.
	for n, wantErr := range map[int]bool{2: false, 3: true} {
		c, rec := newTestCluster(t, 2, 0, 32, 1)
		c.BeginRound()
		for _, name := range []string{"A", "B", "C"}[:n] {
			if err := c.Scatter(ctx, unary(name, 1), "", exchange.HashPartitioner{P: 1}); err != nil {
				t.Fatal(err)
			}
		}
		err := c.EndRound(ctx)
		if wantErr != errors.Is(err, mpc.ErrCapExceeded) {
			t.Fatalf("%d scatters: err = %v, want cap violation %v", n, err, wantErr)
		}
		if len(rec.got[0]) != n || c.Stats().Rounds[0].PerWorkerBits[0] != int64(7*n) {
			t.Errorf("%d scatters: delivered %d, recorded %+v", n, len(rec.got[0]), c.Stats().Rounds[0])
		}
	}
}

func TestWorkerAccessors(t *testing.T) {
	c, rec := newTestCluster(t, 1, 0, 1<<20, 0)
	if err := c.Scatter(ctx, unary("R", 1), "", exchange.Broadcast{P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Scatter(ctx, unary("A", 2), "", exchange.Broadcast{P: 1}); err != nil {
		t.Fatal(err)
	}
	if len(rec.got[0]["R"]) != 1 || len(rec.got[0]["A"]) != 1 {
		t.Errorf("received: R = %v, A = %v", rec.got[0]["R"], rec.got[0]["A"])
	}
	if c.Workers() != 1 {
		t.Error("Workers")
	}
}

func TestTupleBits(t *testing.T) {
	c, _ := newTestCluster(t, 1, 0, 1<<20, 0)
	// DomainN = 100 → 7 bits/value, so one received 3-ary tuple is
	// charged 21 bits.
	r := relation.New("T", "x", "y", "z")
	r.MustAdd(relation.Tuple{1, 2, 3})
	if err := c.Scatter(ctx, r, "", exchange.Broadcast{P: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().TotalBits(); got != 21 {
		t.Errorf("one 3-ary tuple cost %d bits, want 21", got)
	}
}

func TestEmptyRoundCostsNothing(t *testing.T) {
	c, _ := newTestCluster(t, 2, 0, 1<<20, 0)
	if err := c.Scatter(ctx, unary("R"), "", exchange.Broadcast{P: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TotalBits() != 0 {
		t.Error("silent rounds should not cost bits")
	}
	if c.Stats().NumRounds() != 1 {
		t.Error("silent rounds still count as rounds")
	}
}

// TestReceivedViewsIsolated: the tuples of a gathered view are the
// caller's own. One consumer overwriting, truncating and appending
// through them must not corrupt what the workers hold or what the next
// gather returns.
func TestReceivedViewsIsolated(t *testing.T) {
	c, _ := newTestCluster(t, 1, 0, 1<<20, 0)
	r := relation.New("R", "x", "y")
	r.MustAdd(relation.Tuple{1, 2})
	r.MustAdd(relation.Tuple{3, 4})
	if err := c.Scatter(ctx, r, "", exchange.Broadcast{P: 1}); err != nil {
		t.Fatal(err)
	}
	run, err := c.Gather(ctx, "R")
	if err != nil {
		t.Fatal(err)
	}
	first := run.Tuples()
	first[0][0] = 999
	first[0][1] = 999
	_ = append(first[:1], relation.Tuple{7, 7})

	second, err := c.Gather(ctx, "R")
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{{1, 2}, {3, 4}}
	if second.Len() != len(want) {
		t.Fatalf("second view has %d tuples, want 2", second.Len())
	}
	for i, tu := range second.Tuples() {
		if !tu.Equal(want[i]) {
			t.Errorf("second view[%d] = %v, want %v (corrupted by first consumer)", i, tu, want[i])
		}
	}
}
