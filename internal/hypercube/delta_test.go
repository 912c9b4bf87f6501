package hypercube

import (
	"context"
	"math/rand/v2"
	"net"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// startDeltaPool spins up n in-process TCP worker listeners (the
// exact code cmd/mpcworker runs) and returns their addresses.
func startDeltaPool(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go dist.Serve(ctx, ln)
	}
	return addrs
}

// dialDeltaPool dials a fresh session against the pool.
func dialDeltaPool(t *testing.T, addrs []string) *dist.TCP {
	t.Helper()
	tr, err := dist.DialTCP(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// randomMaintDelta draws one delta batch over db: deletes sampled
// from present tuples (distinct positions, so multiplicities always
// validate) and appends drawn fresh from the domain.
func randomMaintDelta(rng *rand.Rand, db *relation.Database) relation.Delta {
	d := relation.Delta{
		Appends: map[string][]relation.Tuple{},
		Deletes: map[string][]relation.Tuple{},
	}
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		rows := r.Rows()
		nDel := min(rng.IntN(3), len(rows))
		for _, i := range rng.Perm(len(rows))[:nDel] {
			d.Deletes[name] = append(d.Deletes[name], rows[i].Clone())
		}
		for i := 0; i < rng.IntN(3); i++ {
			tup := make(relation.Tuple, r.Arity())
			for j := range tup {
				tup[j] = 1 + rng.IntN(db.N)
			}
			d.Appends[name] = append(d.Appends[name], tup)
		}
	}
	return d
}

// answersEqual compares two answer sets element-wise (nil and empty
// are the same empty answer).
func answersEqual(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// dbEffect computes the set-level difference between two database
// states per relation — the one-batch delta equivalent to any
// sequence of batches leading from before to after.
func dbEffect(before, after *relation.Database) map[string]relation.Effect {
	out := make(map[string]relation.Effect)
	for _, name := range before.Names() {
		b, _ := before.Relation(name)
		a, _ := after.Relation(name)
		bRows, aRows := b.Rows(), a.Rows()
		bset, aset := keySet(bRows), keySet(aRows)
		var eff relation.Effect
		seenAdd := map[string]bool{}
		for _, t := range aRows {
			if k := t.Key(); !bset[k] && !seenAdd[k] {
				seenAdd[k] = true
				eff.Added = append(eff.Added, t)
			}
		}
		seenDel := map[string]bool{}
		for _, t := range bRows {
			if k := t.Key(); !aset[k] && !seenDel[k] {
				seenDel[k] = true
				eff.Removed = append(eff.Removed, t)
			}
		}
		out[name] = eff
	}
	return out
}

// keySet is the tuples' membership set, keyed by Tuple.Key.
func keySet(tuples []relation.Tuple) map[string]bool {
	set := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		set[t.Key()] = true
	}
	return set
}

// maintScenario is one precomputed delta scenario: the initial
// database, the per-batch effects, the database state after each
// batch, and the final state.
type maintScenario struct {
	q     *query.Query
	db0   *relation.Database
	effs  []map[string]relation.Effect
	dbs   []*relation.Database // dbs[i] is the state after batch i
	final *relation.Database
}

// buildScenario generates batches random delta batches over db0.
func buildScenario(t *testing.T, rng *rand.Rand, q *query.Query, db0 *relation.Database, batches int) *maintScenario {
	t.Helper()
	sc := &maintScenario{q: q, db0: db0}
	db := db0
	for b := 0; b < batches; b++ {
		d := randomMaintDelta(rng, db)
		next, eff, err := relation.ApplyDelta(db, d)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		sc.effs = append(sc.effs, eff)
		sc.dbs = append(sc.dbs, next)
		db = next
	}
	sc.final = db
	return sc
}

// shifted returns the scenario relabelled by +offset on every value —
// the same batches over a domain wide enough to push every run,
// binary relations included, onto the flat layout.
func (sc *maintScenario) shifted(offset int) *maintScenario {
	tuples := func(ts []relation.Tuple) []relation.Tuple {
		out := make([]relation.Tuple, len(ts))
		for i, t := range ts {
			out[i] = make(relation.Tuple, len(t))
			for j, v := range t {
				out[i][j] = v + offset
			}
		}
		return out
	}
	database := func(db *relation.Database) *relation.Database {
		out := relation.NewDatabase(db.N + offset)
		for _, name := range db.Names() {
			r, _ := db.Relation(name)
			w := relation.New(r.Name, r.Attrs...)
			w.Tuples = tuples(r.Rows())
			out.AddRelation(w)
		}
		return out
	}
	out := &maintScenario{q: sc.q, db0: database(sc.db0)}
	for b, eff := range sc.effs {
		wide := make(map[string]relation.Effect, len(eff))
		for name, e := range eff {
			wide[name] = relation.Effect{Added: tuples(e.Added), Removed: tuples(e.Removed)}
		}
		out.effs = append(out.effs, wide)
		out.dbs = append(out.dbs, database(sc.dbs[b]))
	}
	out.final = out.dbs[len(out.dbs)-1]
	return out
}

// runMaintainer replays the scenario's batches on one transport and
// returns the maintainer for inspection. When check is set, answers
// are compared against ground truth after every batch, not only at
// the end.
func runMaintainer(t *testing.T, sc *maintScenario, p int, opts Options, check bool) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(sc.q, sc.db0, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for b, eff := range sc.effs {
		if _, err := m.ApplyDelta(eff); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if check {
			want := groundTruth(t, sc.q, sc.dbs[b])
			if !answersEqual(m.Answers().Tuples(), want) {
				t.Fatalf("batch %d: maintained answers diverge from ground truth: %d vs %d tuples",
					b, m.Answers().Len(), len(want))
			}
		}
	}
	return m
}

// distributeByHand is Distribute and every batch of sc through
// Distribution.apply on a cluster the test made: a bare dist.NewCluster
// when stepped — every step sent before its call returns — else
// dist.Open's, which fuses a batch into one script. It returns the cold
// answer and each batch's gathered Δ-join as tuples, and the record.
func distributeByHand(t *testing.T, sc *maintScenario, p int, seed uint64, tr dist.Transport, stepped bool) ([][]relation.Tuple, *mpc.Stats) {
	t.Helper()
	cfg := mpc.Config{Workers: p, InputBits: sc.db0.InputBits(), DomainN: sc.db0.N}
	cluster, ctx, err := dist.Open(dist.Options{Transport: tr}, cfg)
	if stepped {
		cluster, err = dist.NewCluster(cfg, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	shares, err := SharesForQuery(sc.q, p, GreedyRounding)
	if err != nil {
		t.Fatal(err)
	}
	d := &Distribution{q: sc.q, cluster: cluster, ctx: ctx, parts: make(map[string]*GridPartitioner)}
	hasher := NewHasher(shares, seed)
	for _, a := range sc.q.Atoms {
		d.parts[a.Name] = NewGridPartitioner(shares, hasher, a)
	}
	if err := Round(ctx, cluster, sc.q, sc.db0, func(a query.Atom) exchange.Partitioner { return d.parts[a.Name] }); err != nil {
		t.Fatal(err)
	}
	cold, err := cluster.Gather(ctx, AnswersView)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]relation.Tuple{cold.Tuples()}
	for b, eff := range sc.effs {
		removed, added := make(map[string]*relation.Run), make(map[string]*relation.Run)
		for _, a := range sc.q.Atoms {
			removed[a.Name], added[a.Name] = relation.RunOf(a.Arity(), eff[a.Name].Removed), relation.RunOf(a.Arity(), eff[a.Name].Added)
		}
		fresh, err := d.apply(removed, added)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		out = append(out, fresh.Tuples())
	}
	return out, cluster.Stats()
}

// TestMaintainerMetamorphic is the metamorphic delta-equivalence net:
// across query families (triangle, star, chain) and data regimes
// (matching, Zipf-skewed, and Zipf-skewed relabelled past 2³³ so that
// the maintained answer run and every delta run are on the flat
// layout), a maintained view under any sequence of append/delete
// batches equals ground truth on the final state —
// byte-identically across loopback and TCP transports, with identical
// round statistics, stepped or fused — and collapsing the whole
// sequence into one batch changes nothing (granularity invariance).
func TestMaintainerMetamorphic(t *testing.T) {
	const (
		n       = 40
		p       = 4
		batches = 5
	)
	families := []struct {
		name string
		q    *query.Query
	}{
		{"triangle", query.Triangle()},
		{"star3", query.Star(3)},
		{"chain3", query.Chain(3)},
	}
	for _, fam := range families {
		for _, kind := range []string{"matching", "zipf", "wide"} {
			t.Run(fam.name+"/"+kind, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(0xd017a, uint64(len(fam.name)+len(kind))))
				var db0 *relation.Database
				if kind == "matching" {
					db0 = relation.MatchingDatabase(rng, fam.q, n)
				} else {
					db0 = zipfDatabase(rng, fam.q, n, 1.3)
				}
				sc := buildScenario(t, rng, fam.q, db0, batches)
				if kind == "wide" {
					sc = sc.shifted(1 << 33)
				}
				want := groundTruth(t, fam.q, sc.final)

				// Loopback, checked against ground truth after every batch.
				lb := runMaintainer(t, sc, p, Options{Seed: 42}, true)

				// TCP must be byte-identical to loopback: answers and the
				// full per-round communication record.
				tcp := runMaintainer(t, sc, p,
					Options{Seed: 42, Transport: dialDeltaPool(t, startDeltaPool(t, p))}, false)
				if !answersEqual(tcp.Answers().Tuples(), lb.Answers().Tuples()) {
					t.Fatalf("TCP answers diverge from loopback: %d vs %d tuples",
						tcp.Answers().Len(), lb.Answers().Len())
				}
				if !reflect.DeepEqual(tcp.Stats().Rounds, lb.Stats().Rounds) {
					t.Fatalf("TCP round stats diverge from loopback:\n tcp %+v\nloop %+v",
						tcp.Stats().Rounds, lb.Stats().Rounds)
				}

				// Stepped ≡ fused: the distribution driven by hand on a bare
				// NewCluster and on Open's cluster, over both transports —
				// every batch gathers the same Δ-join, and the record is
				// the maintainer's.
				fused, _ := distributeByHand(t, sc, p, 42, dist.NewLoopback(p), false)
				for _, stepped := range []bool{true, false} {
					for _, tr := range []dist.Transport{dist.NewLoopback(p), dialDeltaPool(t, startDeltaPool(t, p))} {
						got, stats := distributeByHand(t, sc, p, 42, tr, stepped)
						if !reflect.DeepEqual(got, fused) {
							t.Fatalf("%T stepped=%v: some batch gathered another Δ-join than the fused loopback run", tr, stepped)
						}
						if !reflect.DeepEqual(stats.Rounds, lb.Stats().Rounds) {
							t.Fatalf("%T stepped=%v: round stats diverge from the maintainer's", tr, stepped)
						}
					}
				}

				// Granularity invariance: the whole sequence as one batch.
				one := &maintScenario{
					q: fam.q, db0: sc.db0,
					effs:  []map[string]relation.Effect{dbEffect(sc.db0, sc.final)},
					dbs:   []*relation.Database{sc.final},
					final: sc.final,
				}
				big := runMaintainer(t, one, p, Options{Seed: 42}, true)
				if !answersEqual(big.Answers().Tuples(), want) {
					t.Fatalf("single-batch answers diverge from %d-batch answers", batches)
				}
			})
		}
	}
}

// TestMaintainerReplicationBound pins the paper-level cost claim of
// incremental maintenance: a single appended tuple is routed to
// exactly its replication set — Fanout(atom) grid points — never
// rescattered as O(N).
func TestMaintainerReplicationBound(t *testing.T) {
	q := query.Triangle()
	const n, p = 32, 8
	db := relation.IdentityDatabase(q, n)
	m, err := NewMaintainer(q, db, p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fanout := m.Fanout("S1")
	if fanout <= 0 || fanout >= p {
		t.Fatalf("triangle atom fanout %d, want in (0,%d)", fanout, p)
	}
	next, eff, err := relation.ApplyDelta(db, relation.Delta{
		Appends: map[string][]relation.Tuple{"S1": {{3, 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyDelta(eff)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoutedTuples != int64(fanout) {
		t.Errorf("single-tuple delta routed %d tuple receipts, want fanout %d", rep.RoutedTuples, fanout)
	}
	if rep.Bits <= 0 {
		t.Errorf("maintenance bits %d, want > 0", rep.Bits)
	}
	assertSameTuples(t, m.Answers().Tuples(), groundTruth(t, q, next))
}

// TestMaintainerTraced: a maintainer given Options.Trace records its
// cold distribution and every ApplyDelta round on it — one round span
// per round of Stats, p worker spans under each, carrying exactly the
// bits the statistics charge.
func TestMaintainerTraced(t *testing.T) {
	q := query.Triangle()
	const n, p = 32, 8
	db := relation.IdentityDatabase(q, n)
	tc := trace.New("maint", 1)
	m, err := NewMaintainer(q, db, p, Options{Seed: 7, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, tu := range []relation.Tuple{{3, 7}, {5, 9}} {
		var eff map[string]relation.Effect
		if db, eff, err = relation.ApplyDelta(db, relation.Delta{Appends: map[string][]relation.Tuple{"S1": {tu}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyDelta(eff); err != nil {
			t.Fatal(err)
		}
	}
	rounds := m.Stats().Rounds
	if len(rounds) != 3 {
		t.Fatalf("%d rounds recorded, want the cold round and two delta rounds", len(rounds))
	}
	snap := tc.Snapshot()
	roundSpan := map[uint64]int{} // round span id → round number
	for _, s := range snap.Spans {
		if s.Name == "round" {
			roundSpan[s.ID] = s.Round
		}
	}
	if len(roundSpan) != len(rounds) {
		t.Fatalf("%d round spans, want %d", len(roundSpan), len(rounds))
	}
	workers := map[int]int{} // round → worker spans
	bits := map[int]int64{}  // round → bits on worker spans
	for _, s := range snap.Spans {
		if s.Name != "worker" {
			continue
		}
		round, ok := roundSpan[s.Parent]
		if !ok || round != s.Round {
			t.Errorf("worker span %+v is not under its round's span", s)
		}
		workers[round]++
		bits[round] += s.LoadBits
	}
	for _, rs := range rounds {
		if workers[rs.Round] != p || bits[rs.Round] != rs.TotalBits {
			t.Errorf("round %d: %d worker spans carrying %d bits, want %d carrying %d",
				rs.Round, workers[rs.Round], bits[rs.Round], p, rs.TotalBits)
		}
	}
}

// TestMaintainerFaultInjection drives delta maintenance through a
// deterministic fault schedule at the delta phases: kills before and
// after the delta delivery and at the maintenance join trigger
// replace-and-replay with exact replacement counts, and the
// non-killing faults (delay-to-barrier, duplicate delivery) must not
// change anything at all.
func TestMaintainerFaultInjection(t *testing.T) {
	q := query.Triangle()
	const n, p = 30, 4
	// Worker w at the n-th step of kind op of the fault-free run: the
	// cold round's three scatters are deliveries 0 to 2, the batches' from
	// 3 on.
	type point struct {
		op   dist.OpKind
		n, w int
		kind disttest.FaultKind
	}
	cases := []struct {
		name   string
		points []point
		kills  int
	}{
		{"kill-before-delta", []point{{dist.OpDeliver, 3, 1, disttest.KillBefore}}, 1},
		{"kill-after-delta", []point{{dist.OpDeliver, 4, 2, disttest.KillAfter}}, 1},
		{"kill-at-maintenance-join", []point{{dist.OpJoin, 1, 0, disttest.KillBefore}}, 1},
		{"delay-delta-to-barrier", []point{{dist.OpDeliver, 3, 3, disttest.DelayToBarrier}}, 0},
		{"duplicate-delta", []point{{dist.OpDeliver, 3, 0, disttest.DuplicateDelivery}}, 0},
		{"double-kill", []point{{dist.OpDeliver, 3, 1, disttest.KillBefore}, {dist.OpJoin, 2, 2, disttest.KillAfter}}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xfa117, uint64(len(c.name))))
			db0 := relation.MatchingDatabase(rng, q, n)
			sc := buildScenario(t, rng, q, db0, 4)
			clean := disttest.NewSchedule()
			runMaintainer(t, sc, p, Options{Seed: 9, Transport: clean.Wrap(dist.NewLoopback(p))}, false)
			cold := 0
			for _, site := range clean.Trace() {
				if site.Kind == dist.OpBarrier {
					break
				}
				if site.Kind == dist.OpDeliver {
					cold++
				}
			}
			if cold != len(q.Atoms) {
				t.Fatalf("the cold round has %d deliveries, want one per atom", cold)
			}
			var faults []disttest.Fault
			for _, pt := range c.points {
				at := clean.Trace().At(pt.op, pt.n, pt.w, pt.kind)
				if at == nil {
					t.Fatalf("the fault-free run has no %s step %d", pt.op, pt.n)
				}
				faults = append(faults, at...)
			}
			ft := disttest.NewFaultTransport(dist.NewLoopback(p), faults...)
			m := runMaintainer(t, sc, p, Options{
				Seed:      9,
				Transport: ft,
				Recovery:  dist.RecoveryOptions{Enabled: true},
			}, false)
			want := groundTruth(t, q, sc.final)
			if !answersEqual(m.Answers().Tuples(), want) {
				t.Fatalf("answers after faults diverge from ground truth: %d vs %d tuples",
					m.Answers().Len(), len(want))
			}
			if got := ft.Kills(); got != c.kills {
				t.Errorf("fault schedule fired %d kills, want %d", got, c.kills)
			}
			if got := m.Outcome().Replacements; got != c.kills {
				t.Errorf("maintainer replaced %d workers, want exactly %d", got, c.kills)
			}
		})
	}
}

// TestMaintainerRejects covers the defensive surface: deltas naming
// unknown relations and self-join queries are refused.
func TestMaintainerRejects(t *testing.T) {
	q := query.Triangle()
	db := relation.IdentityDatabase(q, 10)
	m, err := NewMaintainer(q, db, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ApplyDelta(map[string]relation.Effect{
		"Q": {Added: []relation.Tuple{{1, 2}}},
	}); err == nil {
		t.Error("delta for unknown relation accepted")
	}

	self := query.MustNew("self", query.Atom{Name: "R", Vars: []string{"x", "y"}},
		query.Atom{Name: "S", Vars: []string{"y", "z"}})
	self.Atoms[1].Name = "R" // bypass query.New's own self-join check
	if _, err := NewMaintainer(self, db, 4, Options{}); err == nil {
		t.Error("self-join maintainer accepted")
	}
}
