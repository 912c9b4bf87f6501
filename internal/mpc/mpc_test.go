package mpc

import (
	"errors"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

func newTestCluster(t *testing.T, p int, eps float64, inputBits int64, capC float64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Workers:     p,
		Epsilon:     eps,
		InputBits:   inputBits,
		CapConstant: capC,
		DomainN:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, DomainN: 1},
		{Workers: 1, Epsilon: -0.1, DomainN: 1},
		{Workers: 1, Epsilon: 1.5, DomainN: 1},
		{Workers: 1, DomainN: 0},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestReceiveCap(t *testing.T) {
	cfg := Config{Workers: 16, Epsilon: 0, InputBits: 1 << 20, CapConstant: 1, DomainN: 10}
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

func TestRunRoundDelivery(t *testing.T) {
	c := newTestCluster(t, 4, 0, 1<<20, 0)
	// Every worker sends its id to worker (id+1) mod 4.
	err := c.RunRound(func(round int, w *Worker, out *exchange.Outbox) {
		out.Send((w.ID+1)%4, "R", relation.Tuple{w.ID + 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got := c.Worker(i).Received("R")
		if len(got) != 1 {
			t.Fatalf("worker %d: %v", i, got)
		}
		want := (i+3)%4 + 1
		if got[0][0] != want {
			t.Errorf("worker %d received %d, want %d", i, got[0][0], want)
		}
	}
	if c.Round() != 1 || c.Stats().NumRounds() != 1 {
		t.Errorf("rounds = %d / %d", c.Round(), c.Stats().NumRounds())
	}
}

func TestRunRoundStats(t *testing.T) {
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	err := c.RunRound(func(round int, w *Worker, out *exchange.Outbox) {
		if w.ID != 0 {
			return
		}
		out.Send(1, "R", relation.Tuple{1, 2})
		out.Send(1, "R", relation.Tuple{3, 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := c.Stats().Rounds[0]
	// DomainN=100 → 7 bits per value, arity 2, 2 tuples → 28 bits.
	if rs.TotalBits != 28 || rs.MaxReceivedBits != 28 || rs.TotalTuples != 2 || rs.MaxReceivedTuples != 2 {
		t.Errorf("stats = %+v", rs)
	}
	if c.Stats().TotalBits() != 28 || c.Stats().MaxLoadBits() != 28 || c.Stats().MaxLoadTuples() != 2 {
		t.Error("aggregate stats mismatch")
	}
	if got := c.Stats().Replication(28); got != 1.0 {
		t.Errorf("replication = %v", got)
	}
	if got := c.Stats().Replication(0); got != 0 {
		t.Errorf("replication with zero input = %v", got)
	}
}

func TestCapEnforcement(t *testing.T) {
	// Budget: 1·64/4 = 16 bits; sending 3 tuples of 14 bits = 42 > 16.
	c := newTestCluster(t, 4, 0, 64, 1)
	err := c.RunRound(func(round int, w *Worker, out *exchange.Outbox) {
		if w.ID != 0 {
			return
		}
		for _, t := range []relation.Tuple{{1, 1}, {2, 2}, {3, 3}} {
			out.Send(1, "R", t)
		}
	})
	if !errors.Is(err, ErrCapExceeded) {
		t.Fatalf("err = %v, want ErrCapExceeded", err)
	}
	// Data still delivered (stats recorded) so experiments can report.
	if len(c.Worker(1).Received("R")) != 3 {
		t.Error("tuples should be delivered even when cap trips")
	}
}

func TestRunRoundBadDestination(t *testing.T) {
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	err := c.RunRound(func(round int, w *Worker, out *exchange.Outbox) {
		out.Send(99, "R", relation.Tuple{1})
	})
	if err == nil {
		t.Fatal("want error for out-of-range destination")
	}
}

func TestScatterRoutesByFunction(t *testing.T) {
	c := newTestCluster(t, 4, 0, 1<<20, 0)
	r := relation.New("S", "x")
	for i := 1; i <= 8; i++ {
		r.MustAdd(relation.Tuple{i})
	}
	if err := c.Scatter(r, func(t relation.Tuple) []int {
		return []int{t[0] % 4}
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		got := c.Worker(w).Received("S")
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
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	r := relation.New("S", "x")
	r.MustAdd(relation.Tuple{1})
	if err := c.Scatter(r, func(relation.Tuple) []int { return []int{5} }); err == nil {
		t.Fatal("want error")
	}
}

func TestBroadcast(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1<<20, 1)
	r := relation.New("T", "x")
	r.MustAdd(relation.Tuple{42})
	if err := c.Broadcast(r); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if got := c.Worker(w).Received("T"); len(got) != 1 || got[0][0] != 42 {
			t.Errorf("worker %d: %v", w, got)
		}
	}
}

func TestBeginEndRoundGroupsScatters(t *testing.T) {
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	r1 := relation.New("A", "x")
	r1.MustAdd(relation.Tuple{1})
	r2 := relation.New("B", "x")
	r2.MustAdd(relation.Tuple{2})
	c.BeginRound()
	if err := c.Scatter(r1, func(relation.Tuple) []int { return []int{0} }); err != nil {
		t.Fatal(err)
	}
	if err := c.Scatter(r2, func(relation.Tuple) []int { return []int{0} }); err != nil {
		t.Fatal(err)
	}
	if err := c.EndRound(); err != nil {
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
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	if err := c.EndRound(); err == nil {
		t.Fatal("want error")
	}
}

func TestBeginEndRoundCapViolation(t *testing.T) {
	// Budget 1·32/2 = 16 bits; two scatters of 7-bit singletons to the
	// same worker are fine (14), three trip it (21).
	c := newTestCluster(t, 2, 0, 32, 1)
	mk := func(name string) *relation.Relation {
		r := relation.New(name, "x")
		r.MustAdd(relation.Tuple{1})
		return r
	}
	c.BeginRound()
	for _, name := range []string{"A", "B", "C"} {
		if err := c.Scatter(mk(name), func(relation.Tuple) []int { return []int{0} }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EndRound(); !errors.Is(err, ErrCapExceeded) {
		t.Fatalf("err = %v, want ErrCapExceeded", err)
	}
}

func TestWorkerAccessors(t *testing.T) {
	c := newTestCluster(t, 1, 0, 1<<20, 0)
	w := c.Worker(0)
	w.add("R", []relation.Tuple{{1}})
	w.add("A", []relation.Tuple{{2}})
	if len(w.Received("R")) != 1 || len(w.Received("A")) != 1 {
		t.Errorf("Received: R = %v, A = %v", w.Received("R"), w.Received("A"))
	}
	if len(c.Workers()) != 1 {
		t.Error("Workers length")
	}
	if c.Config().Workers != 1 {
		t.Error("Config accessor")
	}
}

func TestTupleBits(t *testing.T) {
	c := newTestCluster(t, 1, 0, 1<<20, 0)
	// DomainN = 100 → 7 bits/value, so one received 3-ary tuple is
	// charged 21 bits.
	r := relation.New("T", "x", "y", "z")
	r.MustAdd(relation.Tuple{1, 2, 3})
	if err := c.Broadcast(r); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().TotalBits(); got != 21 {
		t.Errorf("one 3-ary tuple cost %d bits, want 21", got)
	}
}

func TestEmptyRoundCostsNothing(t *testing.T) {
	c := newTestCluster(t, 2, 0, 1<<20, 0)
	err := c.RunRound(func(round int, w *Worker, out *exchange.Outbox) {})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().TotalBits() != 0 {
		t.Error("silent rounds should not cost bits")
	}
	if c.Stats().NumRounds() != 1 {
		t.Error("silent rounds still count as rounds")
	}
}

// TestReceivedViewsIsolated is the regression test for the historic
// slice-aliasing footgun: Received handed out the worker's
// internal slices, so one consumer's mutation could corrupt another's
// view. Under the columnar store every call materializes fresh backing.
func TestReceivedViewsIsolated(t *testing.T) {
	c := newTestCluster(t, 1, 0, 1<<20, 0)
	w := c.Worker(0)
	w.add("R", []relation.Tuple{{1, 2}, {3, 4}})

	first := w.Received("R")
	// Consumer one vandalizes its view: overwrites values, truncates,
	// and appends through the original header.
	first[0][0] = 999
	first[0][1] = 999
	_ = append(first[:1], relation.Tuple{7, 7})

	second := w.Received("R")
	if len(second) != 2 {
		t.Fatalf("second view has %d tuples, want 2", len(second))
	}
	want := []relation.Tuple{{1, 2}, {3, 4}}
	for i, tu := range second {
		if !tu.Equal(want[i]) {
			t.Errorf("second view[%d] = %v, want %v (corrupted by first consumer)", i, tu, want[i])
		}
	}
	// Incremental views see only the suffix and are fresh too.
	tail := w.ReceivedFrom("R", 1)
	if len(tail) != 1 || !tail[0].Equal(relation.Tuple{3, 4}) {
		t.Errorf("ReceivedFrom(1) = %v", tail)
	}
	tail[0][0] = 42
	if got := w.ReceivedFrom("R", 1); !got[0].Equal(relation.Tuple{3, 4}) {
		t.Errorf("ReceivedFrom views alias: %v", got[0])
	}
}
