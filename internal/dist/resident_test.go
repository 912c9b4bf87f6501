package dist_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
	"repro/internal/wire"
)

// The resident-scatter net. An execution is described by what the
// coordinator knows (a Residency and the snapshot identity it derives
// from it) and by where the workers are (a pool); the same plan runs
// fresh, retaining and resident, and every time the answers and the
// round statistics must be those of the fresh run.

// residentPool is a worker pool whose processes outlive sessions: over
// loopback one shared store, over TCP one dist.Serve listener per slot.
type residentPool interface {
	// session opens one execution's transport; a dial that fails panics.
	session() dist.Transport
	// restart makes slot lose everything it kept.
	restart(slot int)
	// close ends every session, then the pool.
	close()
}

type loopbackPool struct {
	p  int
	rs *dist.ResidentStore
}

func (l *loopbackPool) session() dist.Transport { return dist.NewLoopbackOn(l.p, l.rs) }
func (l *loopbackPool) restart(slot int)        { l.rs.ForgetSlot(slot) }
func (l *loopbackPool) close()                  {}

// tcpPool is used by one execution at a time, like the sessions it opens.
type tcpPool struct {
	addrs  []string
	closes []func()
}

func (p *tcpPool) session() dist.Transport {
	tr, err := dist.DialTCP(context.Background(), p.addrs)
	if err != nil {
		panic(err)
	}
	p.closes = append(p.closes, func() { tr.Close() })
	return tr
}

func (p *tcpPool) restart(slot int) {
	addrs, stop := servePool(1)
	p.addrs[slot], p.closes = addrs[0], append(p.closes, stop)
}

// close runs the closers newest first: sessions before their listeners.
func (p *tcpPool) close() {
	for i := len(p.closes) - 1; i >= 0; i-- {
		p.closes[i]()
	}
}

// newPool opens a pool of p workers of the given kind.
func newPool(kind string, p int) residentPool {
	if kind == "loopback" {
		return &loopbackPool{p: p, rs: dist.NewResidentStore()}
	}
	addrs, stop := servePool(p)
	return &tcpPool{addrs: addrs, closes: []func(){stop}}
}

// residentPools returns one pool of each kind, p workers each, closed
// with the test.
func residentPools(t *testing.T, p int) map[string]residentPool {
	pools := make(map[string]residentPool)
	for _, kind := range []string{"loopback", "tcp"} {
		pools[kind] = newPool(kind, p)
		t.Cleanup(pools[kind].close)
	}
	return pools
}

// residentCase is one query with its data and plan.
type residentCase struct {
	name     string
	q        *query.Query
	db       *relation.Database
	pl       *plan.Plan
	truth    []relation.Tuple
	scatters int // keyed scatters per execution
	// exchanges is what a resident execution costs a TCP session: one
	// per fence — the attach, then every gather, with the round's barrier
	// and the joins riding the gather they precede.
	exchanges int64
}

func residentCases(t *testing.T, p int) []residentCase {
	t.Helper()
	mk := func(name string, q *query.Query, db *relation.Database, eps *big.Rat, engine plan.Engine, scatters int, exchanges int64) residentCase {
		pl, err := plan.Build(q, db.Stats(), plan.Options{P: p, Epsilon: eps})
		if err == nil {
			pl, err = pl.WithEngine(engine)
		}
		if err != nil {
			t.Fatal(err)
		}
		truth, err := core.GroundTruth(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) == 0 {
			t.Fatalf("%s: empty ground truth checks nothing", name)
		}
		return residentCase{name, q, db, pl, truth, scatters, exchanges}
	}
	rng := rand.New(rand.NewPCG(41, 41))
	c3 := query.Cycle(3)
	l4 := query.Chain(4)
	// A repeated variable: R's first two columns must agree, so the grid
	// partitioner binds one dimension from two positions.
	rep, err := query.Parse("q(x,y,z) = R(x,x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	repDB := relation.NewDatabase(40)
	r, s := relation.New("R", "a", "b", "c"), relation.New("S", "y", "z")
	for i := 0; i < 6000; i++ {
		r.Tuples = append(r.Tuples, relation.Tuple{1 + rng.IntN(40), 1 + rng.IntN(40), 1 + rng.IntN(40)})
		s.Tuples = append(s.Tuples, relation.Tuple{1 + rng.IntN(40), 1 + rng.IntN(40)})
	}
	repDB.AddRelation(r)
	repDB.AddRelation(s)
	return []residentCase{
		mk("C3", c3, zipfDatabase(rng, c3, 4000, 1.05), nil, plan.OneRound, 3, 2),
		// Two rounds: two views of two base relations each, then their join;
		// three gathers.
		mk("L4-eps0", l4, relation.MatchingDatabase(rng, l4, 3000), new(big.Rat), plan.MultiRound, 4, 4),
		mk("repeated-variable", rep, repDB, nil, plan.OneRound, 2, 2),
		mk("skew", skewJoin(t), skewDatabase(rng), nil, plan.SkewJoin, 2, 2),
	}
}

// skewJoin is q(x,y,z) = R(x,y), S(y,z), the skew engine's shape.
func skewJoin(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.Parse("q(x,y,z) = R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// skewDatabase holds R(x,y) with y Zipf(2) over [1000] and S(y,z) with
// y uniform over [1, 10]: y = 1 holds more than half of all rows, so
// the compiled routing splits R's occurrences of it over a block of two
// of four workers and broadcasts S's to both.
func skewDatabase(rng *rand.Rand) *relation.Database {
	const n = 1000
	db := relation.NewDatabase(n)
	r, s := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for _, t := range relation.SkewedZipf(rng, "Ry", []string{"y", "x"}, n, 2).Tuples {
		r.Tuples = append(r.Tuples, relation.Tuple{t[1], t[0]})
	}
	for i := 0; i < n/10; i++ {
		s.Tuples = append(s.Tuples, relation.Tuple{1 + rng.IntN(10), 1 + rng.IntN(n)})
	}
	db.AddRelation(r)
	db.AddRelation(s)
	return db
}

// execute runs the case once on tr under snap and checks the answers.
func (c residentCase) execute(t *testing.T, tr dist.Transport, snap *dist.Snapshot, rec dist.RecoveryOptions) *plan.Result {
	t.Helper()
	res, err := c.pl.Execute(c.db, plan.ExecOptions{Seed: 23, Transport: tr, Snapshot: snap, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(res.Answers, c.truth) {
		t.Fatalf("%d answers, ground truth %d", len(res.Answers), len(c.truth))
	}
	return res
}

// exploration is the case's warm operation: in a pool that has seen the
// case fresh and retaining, bare, the third execution — the one that
// attaches — runs behind the schedule.
func (c residentCase) exploration() exploration {
	return exploration{name: "resident", truth: c.truth, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		res, err := dist.NewResidency()
		if err != nil {
			return outcome{}, err
		}
		for sighting := 0; sighting < 2; sighting++ {
			if _, err := c.pl.Execute(c.db, plan.ExecOptions{Seed: 23, Transport: dial(), Snapshot: res.Snapshot("d", 0)}); err != nil {
				return outcome{}, err
			}
		}
		snap := res.Snapshot("d", 0)
		got, err := c.pl.Execute(c.db, plan.ExecOptions{Seed: 23, Transport: behind(s, dial()), Snapshot: snap, Recovery: rec})
		if err != nil {
			return outcome{}, err
		}
		return outcome{answers: got.Answers, rounds: got.Stats.Rounds, repl: got.Replacements, snap: *snap}, nil
	}}
}

// warm runs the case fresh and retaining, and returns the fresh run's
// round statistics: what every later execution must record.
func (c residentCase) warm(t *testing.T, pool residentPool, res *dist.Residency) []mpc.RoundStats {
	t.Helper()
	fresh := res.Snapshot("d", 0)
	want := c.execute(t, pool.session(), fresh, dist.RecoveryOptions{}).Stats.Rounds
	if fresh.Hits != 0 || fresh.Misses != 0 || fresh.Retained != 0 {
		t.Fatalf("first sighting did more than scatter: %+v", fresh)
	}
	retaining := res.Snapshot("d", 0)
	if got := c.execute(t, pool.session(), retaining, dist.RecoveryOptions{}).Stats.Rounds; !reflect.DeepEqual(got, want) {
		t.Fatalf("retaining run's round stats differ:\n%+v\n%+v", got, want)
	}
	if retaining.Hits != 0 || retaining.Misses != 0 || retaining.Retained == 0 {
		t.Fatalf("second sighting: %+v, want only retained slices", retaining)
	}
	return want
}

func newResidency(t *testing.T) *dist.Residency {
	t.Helper()
	res, err := dist.NewResidency()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResidentDifferential: fresh, retaining, resident, and resident with
// one restarted worker return the same answers and the same Stats.Rounds
// on both transports; the third run partitions and sends nothing, the
// fourth re-sends exactly the restarted slot.
func TestResidentDifferential(t *testing.T) {
	const p = 4
	for _, c := range residentCases(t, p) {
		for name, pool := range residentPools(t, p) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				res := newResidency(t)
				want := c.warm(t, pool, res)

				hit := res.Snapshot("d", 0)
				tr := pool.session()
				if got := c.execute(t, tr, hit, dist.RecoveryOptions{}).Stats.Rounds; !reflect.DeepEqual(got, want) {
					t.Fatalf("resident run's round stats differ:\n%+v\n%+v", got, want)
				}
				if hit.Hits != c.scatters || hit.Misses != 0 || hit.Retained != 0 {
					t.Fatalf("third sighting: %+v, want %d hits and nothing sent", hit, c.scatters)
				}
				if tcp, ok := tr.(*dist.TCP); ok {
					// One attach exchange, however many scatters attach.
					if got := tcp.Exchanges(); got != c.exchanges {
						t.Errorf("%d exchanges, want %d", got, c.exchanges)
					}
				}

				pool.restart(1)
				partial := res.Snapshot("d", 0)
				tr = pool.session()
				if got := c.execute(t, tr, partial, dist.RecoveryOptions{}).Stats.Rounds; !reflect.DeepEqual(got, want) {
					t.Fatalf("partial-miss run's round stats differ:\n%+v\n%+v", got, want)
				}
				if tcp, ok := tr.(*dist.TCP); ok && tcp.Exchanges() != c.exchanges {
					// The re-sent slices ride the fence that follows the attach.
					t.Errorf("%d exchanges with one worker's slices re-sent, want %d", tcp.Exchanges(), c.exchanges)
				}
				if partial.Hits != 0 || partial.Misses != c.scatters || partial.Retained != c.scatters {
					t.Fatalf("after restarting one worker: %+v, want that slot's %d misses re-sent", partial, c.scatters)
				}
				again := res.Snapshot("d", 0)
				c.execute(t, pool.session(), again, dist.RecoveryOptions{})
				if again.Hits != c.scatters || again.Misses != 0 {
					t.Fatalf("after the repair: %+v, want %d hits", again, c.scatters)
				}
			})
		}
	}
}

// TestResidentFused: a resident round is a fused one. A resident C3 or
// skew execution leaves as two scripts — the attach, which is a fence
// because its answers decide what is sent, and everything else — and
// after one worker lost what it kept, the slices re-sent to it ride the
// second.
func TestResidentFused(t *testing.T) {
	const p = 4
	cases := residentCases(t, p)
	for _, c := range []residentCase{cases[0], cases[3]} {
		rs := dist.NewResidentStore()
		pool := &loopbackPool{p: p, rs: rs}
		res := newResidency(t)
		c.warm(t, pool, res)
		scripts := func() (int, []string) {
			rec := &recordingTransport{inner: dist.NewLoopbackOn(p, rs)}
			c.execute(t, rec, res.Snapshot("d", 0), dist.RecoveryOptions{})
			return rec.scripts, rec.calls
		}
		if n, calls := scripts(); n != 2 || !slices.Equal(calls, []string{"attach", "Barrier(1)", "Join", "Gather"}) {
			t.Fatalf("%s: resident round left as %d scripts of %v", c.name, n, calls)
		}
		pool.restart(2)
		want := []string{"attach"}
		for range c.scatters {
			want = append(want, "Deliver(1)")
		}
		want = append(want, "Barrier(1)", "Join", "Gather")
		if n, calls := scripts(); n != 2 || !slices.Equal(calls, want) {
			t.Fatalf("%s: round with one worker's slices re-sent left as %d scripts of %v", c.name, n, calls)
		}
	}
}

// TestResidentRecovery: a worker killed right after it attached is
// replaced mid-query; the replacement misses and is re-sent only its
// slot, and answers and round statistics equal the fault-free run.
func TestResidentRecovery(t *testing.T) {
	const p = 4
	for _, c := range residentCases(t, p) {
		x := c.exploration()
		for _, name := range []string{"loopback", "tcp"} {
			base, trace := x.baseline(t, name, p)
			for _, kind := range []disttest.FaultKind{disttest.KillBefore, disttest.KillAfter} {
				t.Run(c.name+"/"+name+"/"+kind.String(), func(t *testing.T) {
					got, err := x.holds(name, p, base, trace.At(dist.OpAttach, 0, 2, kind)...)
					if err != nil {
						t.Fatal(err)
					}
					// Only round 1 attaches, and only slot 2 was lost.
					if snap := got.snap; snap.Hits != 0 || snap.Misses != c.scatters || snap.Retained != c.scatters {
						t.Fatalf("healed run: %+v, want %d misses (one slot per scatter)", snap, c.scatters)
					}
				})
			}
		}
	}
}

// TestResidentRecoveryAfterAttach: a worker that dies after the round
// attached — at its join — is replaced and replay re-partitions its
// slice of the resident scatters, which were never partitioned here:
// under the skew routing, split ranks and all.
func TestResidentRecoveryAfterAttach(t *testing.T) {
	const p = 4
	cases := residentCases(t, p)
	for _, name := range []string{"loopback", "tcp"} {
		t.Run(name, func(t *testing.T) {
			for _, c := range []residentCase{cases[0], cases[3]} {
				t.Run(c.name, func(t *testing.T) {
					x := c.exploration()
					base, trace := x.baseline(t, name, p)
					got, err := x.holds(name, p, base, trace.At(dist.OpJoin, 0, 0, disttest.KillBefore)...)
					if err != nil {
						t.Fatal(err)
					}
					if got.snap.Hits != c.scatters {
						t.Fatalf("%+v; want %d hits", got.snap, c.scatters)
					}
				})
			}
		})
	}
}

// joinCluster opens a cluster for R(x,y) ⋈ S(y,z) on tr, scatters both
// relations through part under snap, and leaves the round closed: the
// caller joins and gathers.
func joinCluster(t *testing.T, q *query.Query, db *relation.Database, tr dist.Transport, snap *dist.Snapshot, part func(query.Atom) exchange.Partitioner) *dist.Cluster {
	t.Helper()
	cl, ctx, err := dist.Open(dist.Env{Transport: tr, Snapshot: snap}, mpc.Config{Workers: tr.Workers(), DomainN: db.N, InputBits: db.InputBits()})
	if err != nil {
		t.Fatal(err)
	}
	cl.BeginRound()
	for _, a := range q.Atoms {
		rel, _ := db.Relation(a.Name)
		if err := cl.Scatter(ctx, rel, a.Name, part(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.EndRound(ctx); err != nil {
		t.Fatal(err)
	}
	return cl
}

// joinAnswers joins and gathers on a cluster joinCluster prepared.
func joinAnswers(t *testing.T, cl *dist.Cluster, q *query.Query) []relation.Tuple {
	t.Helper()
	return joinInto(t, cl, q, "out")
}

// joinInto is joinAnswers under a view of the caller's: a view keeps
// every join stored under it, so a session that joins again after a
// retraction names a new one.
func joinInto(t *testing.T, cl *dist.Cluster, q *query.Query, view string) []relation.Tuple {
	t.Helper()
	ctx := context.Background()
	if err := cl.Join(ctx, q, nil, view, 0); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Gather(ctx, view)
	if err != nil {
		t.Fatal(err)
	}
	return out.Tuples()
}

// TestResidentIsolation: two sessions attach to the same resident runs;
// one then retracts from and extends that store, as a maintainer would.
// The other session's join never changes, a later session still attaches
// to the original runs, and -race sees no write to a published run. The
// maintaining session goes on to re-append some of what it retracted and
// to retract part of that again, and after every batch it joins to the
// ground truth of, and gathers exactly, the live set — with R packed, with
// R on the flat layout (an x value ≥ 2³² at arity 2), and with both
// relations scattered under the skew engine's routing.
func TestResidentIsolation(t *testing.T) {
	const p = 4
	q := skewJoin(t)
	for name, pool := range residentPools(t, p) {
		t.Run(name, func(t *testing.T) {
			for layout, v := range map[string]struct {
				offset int
				skew   bool
			}{"packed": {0, false}, "flat": {1 << 33, false}, "skew": {0, true}} {
				t.Run(layout, func(t *testing.T) { residentIsolation(t, q, pool, p, v.offset, v.skew) })
			}
		})
	}
}

// residentIsolation is TestResidentIsolation on one pool of p workers,
// every x value of R raised by offset, routed by the grid or, under
// skewed, by the skew routing.
func residentIsolation(t *testing.T, q *query.Query, pool residentPool, p, offset int, skewed bool) {
	rng := rand.New(rand.NewPCG(5, 5))
	db := zipfDatabase(rng, q, 2000, 1.1)
	relR, _ := db.Relation("R")
	relS, _ := db.Relation("S")
	for _, tu := range relR.Tuples {
		tu[0] += offset
	}
	db.N += offset
	// part routes the base scatters and maintain R's deltas: the grid's
	// own partitioner, or — the skew routing's split ranks number the base
	// run's rows, not a delta's — a broadcast.
	var part func(query.Atom) exchange.Partitioner
	var maintain exchange.Partitioner = exchange.Broadcast{P: p}
	if skewed {
		rt := skew.CompileFromData(relR, 1, relS, 0, p, 0.1)
		if len(rt.Heavy) == 0 {
			t.Fatal("no heavy value: the routing is plain hashing")
		}
		part = func(a query.Atom) exchange.Partitioner {
			if a.Name == "R" {
				return skew.NewPartitioner(rt, relR, 1, true, 9)
			}
			return skew.NewPartitioner(rt, relS, 0, false, 9)
		}
	} else {
		shares, err := hypercube.SharesForQuery(q, p, hypercube.GreedyRounding)
		if err != nil {
			t.Fatal(err)
		}
		hasher := hypercube.NewHasher(shares, 9)
		part = func(a query.Atom) exchange.Partitioner { return hypercube.NewGridPartitioner(shares, hasher, a) }
		maintain = part(q.Atoms[0])
	}
	// live is R as the maintaining session holds it; truthOf what the join
	// must then answer. A retraction removes a tuple however often the
	// relation lists it.
	live := make(map[string]relation.Tuple, len(relR.Tuples))
	apply := func(del bool, ts []relation.Tuple) {
		for _, tu := range ts {
			if delete(live, tu.Key()); !del {
				live[tu.Key()] = tu
			}
		}
	}
	truthOf := func() (r, answers []relation.Tuple) {
		t.Helper()
		for _, tu := range live {
			r = append(r, tu)
		}
		after := relation.NewDatabase(db.N)
		after.AddRelation(&relation.Relation{Name: "R", Attrs: relR.Attrs, Tuples: r})
		after.AddRelation(relS)
		answers, err := core.GroundTruth(q, after)
		if err != nil {
			t.Fatal(err)
		}
		return relation.DedupSort(r), answers
	}
	apply(false, relR.Tuples)
	_, truth := truthOf()
	gone := relR.Tuples[:len(relR.Tuples)/2]
	// The extension joins: a session that saw it would answer more.
	fresh := relation.Tuple{db.N, relS.Tuples[0][0]}
	back := gone[:len(gone)/2]
	// Every batch is one round: retractions, then extensions.
	batches := []struct{ del, add []relation.Tuple }{
		{del: gone, add: []relation.Tuple{fresh}},
		{add: back},
		{del: append([]relation.Tuple{fresh}, back[:len(back)/2]...)},
	}

	res := newResidency(t)
	for i := 0; i < 2; i++ {
		cl := joinCluster(t, q, db, pool.session(), res.Snapshot("d", 0), part)
		if got := joinAnswers(t, cl, q); !sameTuples(got, truth) {
			t.Fatalf("warm-up %d: %d answers, want %d", i, len(got), len(truth))
		}
	}
	snapA, snapB := res.Snapshot("d", 0), res.Snapshot("d", 0)
	a := joinCluster(t, q, db, pool.session(), snapA, part)
	b := joinCluster(t, q, db, pool.session(), snapB, part)
	if snapA.Hits != 2 || snapB.Hits != 2 {
		t.Fatalf("sessions did not attach: %+v %+v", snapA, snapB)
	}
	done := make(chan []relation.Tuple)
	go func() { done <- joinAnswers(t, b, q) }()
	ctx := context.Background()
	for i, batch := range batches {
		a.BeginRound()
		for _, side := range []struct {
			del bool
			ts  []relation.Tuple
		}{{true, batch.del}, {false, batch.add}} {
			if len(side.ts) == 0 {
				continue
			}
			run := relation.RunOf(2, side.ts)
			if (run.Stride() == 1) != (offset == 0) {
				t.Fatalf("batch %d: delta run %d words a row at offset %d", i, run.Stride(), offset)
			}
			if err := a.ScatterDelta(ctx, run, "R", "", side.del, maintain); err != nil {
				t.Fatal(err)
			}
			apply(side.del, side.ts)
		}
		if err := a.EndRound(ctx); err != nil {
			t.Fatal(err)
		}
		wantR, want := truthOf()
		if i == 0 && sameTuples(truth, want) {
			t.Fatal("the delta changes nothing: the test checks nothing")
		}
		if got := joinInto(t, a, q, fmt.Sprintf("out%d", i)); !sameTuples(got, want) {
			t.Fatalf("maintained session, batch %d: %d answers, want %d", i, len(got), len(want))
		}
		if got, err := a.Gather(ctx, "R"); err != nil || !sameTuples(got.Tuples(), wantR) {
			t.Fatalf("maintained session, batch %d: gathered %d tuples of R (%v), want the %d live ones", i, got.Len(), err, len(wantR))
		}
	}
	if got := <-done; !sameTuples(got, truth) {
		t.Fatalf("the other session saw the delta: %d answers, want %d", len(got), len(truth))
	}
	snapC := res.Snapshot("d", 0)
	c := joinCluster(t, q, db, pool.session(), snapC, part)
	if got := joinAnswers(t, c, q); snapC.Hits != 2 || !sameTuples(got, truth) {
		t.Fatalf("a later session: %+v, %d answers, want 2 hits and %d", snapC, len(got), len(truth))
	}
}

// firstSighting executes pl over c's data under snap and opts and fails
// unless the answers are c's and the execution was a first sighting that
// left rs holding the kept slices of the warm key.
func firstSighting(t *testing.T, c residentCase, rs *dist.ResidentStore, kept int, name string, snap *dist.Snapshot, opts plan.ExecOptions, pl *plan.Plan) {
	t.Helper()
	opts.Snapshot = snap
	got, err := pl.Execute(c.db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(got.Answers, c.truth) {
		t.Fatalf("%s: %d answers, ground truth %d", name, len(got.Answers), len(c.truth))
	}
	if snap.Hits != 0 || snap.Misses != 0 || snap.Retained != 0 {
		t.Errorf("%s: %+v, want a first sighting", name, snap)
	}
	if rs.Entries() != kept {
		t.Errorf("%s: %d resident slices, want the %d of the warm key", name, rs.Entries(), kept)
	}
}

// TestResidentIdentity: what makes a scatter a different scatter — a
// delta's version bump, another seed, other shares, another p; under the
// skew routing another seed, other blocks, the sides swapped — is never
// served from the old key's runs; a partitioner that cannot describe
// itself has no key at all.
//
// A skew key that leaves out HeavyValue.First and Size fails the row
// whose routing has the warm one's threshold and heavy values and only
// smaller blocks.
func TestResidentIdentity(t *testing.T) {
	const p = 4
	c := residentCases(t, p)[0]
	rs := dist.NewResidentStore()
	pool := &loopbackPool{p: p, rs: rs}
	res := newResidency(t)
	c.warm(t, pool, res)
	kept := rs.Entries()
	run := func(name string, snap *dist.Snapshot, opts plan.ExecOptions, pl *plan.Plan) {
		t.Helper()
		firstSighting(t, c, rs, kept, name, snap, opts, pl)
	}
	run("version bump", res.Snapshot("d", 1), plan.ExecOptions{Seed: 23, Transport: pool.session()}, c.pl)
	run("other dataset", res.Snapshot("e", 0), plan.ExecOptions{Seed: 23, Transport: pool.session()}, c.pl)
	run("other seed", res.Snapshot("d", 0), plan.ExecOptions{Seed: 24, Transport: pool.session()}, c.pl)
	shares := &hypercube.Shares{Vars: c.q.Vars(), Dims: []int{1, 2, 2}}
	other, err := c.pl.WithShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	run("other shares", res.Snapshot("d", 0), plan.ExecOptions{Seed: 23, Transport: pool.session()}, other)
	wide, err := plan.Build(c.q, c.db.Stats(), plan.Options{P: p + 1})
	if err != nil {
		t.Fatal(err)
	}
	run("other p", res.Snapshot("d", 0), plan.ExecOptions{Seed: 23, Transport: dist.NewLoopbackOn(p+1, rs)}, wide)
	run("other coordinator", newResidency(t).Snapshot("d", 0), plan.ExecOptions{Seed: 23, Transport: pool.session()}, c.pl)

	// The warm key itself is untouched by all of that.
	hit := res.Snapshot("d", 0)
	c.execute(t, pool.session(), hit, dist.RecoveryOptions{})
	if hit.Hits != c.scatters {
		t.Fatalf("the warm key stopped hitting: %+v", hit)
	}

	// Sampled routing cannot be described: no key, whatever is known.
	sampled := res.Snapshot("d", 0)
	for i := 0; i < 3; i++ {
		if _, err := hypercube.RunSampled(c.q, c.db, p, hypercube.Options{Seed: 3, Epsilon: 0.1, Transport: pool.session(), Snapshot: sampled}); err != nil {
			t.Fatal(err)
		}
	}
	if sampled.Hits != 0 || sampled.Misses != 0 || sampled.Retained != 0 {
		t.Fatalf("a sampled grid was keyed: %+v", sampled)
	}

	// The skew routing, warm in a pool of its own.
	sk := residentCases(t, p)[3]
	skRS := dist.NewResidentStore()
	skPool := &loopbackPool{p: p, rs: skRS}
	sk.warm(t, skPool, res)
	skKept := skRS.Entries()
	// Each row is held to its own query's ground truth: a query with its
	// atoms swapped answers in its own variable order.
	skRun := func(name string, opts plan.ExecOptions, pl *plan.Plan) {
		t.Helper()
		truth, err := core.GroundTruth(pl.Query, sk.db)
		if err != nil {
			t.Fatal(err)
		}
		c := sk
		c.truth, opts.Transport = truth, skPool.session()
		firstSighting(t, c, skRS, skKept, name, res.Snapshot("d", 0), opts, pl)
	}
	skRun("skew: other seed", plan.ExecOptions{Seed: 24}, sk.pl)
	// Twice the cardinalities at half the heavy factor: the threshold and
	// the heavy values stay, every block halves.
	warm := sk.pl.Routing
	r, _ := sk.db.Relation("R")
	s, _ := sk.db.Relation("S")
	halved := *sk.pl
	halved.Routing = skew.Compile(relation.ColumnHistogram(r, 1), relation.ColumnHistogram(s, 0), 2*r.Size(), 2*s.Size(), p, 0.5)
	unblocked := func(hv []skew.HeavyValue) []skew.HeavyValue {
		out := slices.Clone(hv)
		for i := range out {
			out[i].First, out[i].Size = 0, 0
		}
		return out
	}
	if halved.Routing.Threshold != warm.Threshold || !reflect.DeepEqual(unblocked(halved.Routing.Heavy), unblocked(warm.Heavy)) ||
		reflect.DeepEqual(halved.Routing.Heavy, warm.Heavy) {
		t.Fatalf("routings %+v and %+v must differ in their blocks only", halved.Routing, warm)
	}
	skRun("skew: other blocks", plan.ExecOptions{Seed: 23}, &halved)
	swapped, err := query.Parse("q(x,y,z) = S(y,z), R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	sides, err := plan.Build(swapped, sk.db.Stats(), plan.Options{P: p})
	if err == nil {
		sides, err = sides.WithEngine(plan.SkewJoin)
	}
	if err != nil {
		t.Fatal(err)
	}
	skRun("skew: sides swapped", plan.ExecOptions{Seed: 23}, sides)
	skHit := res.Snapshot("d", 0)
	sk.execute(t, skPool.session(), skHit, dist.RecoveryOptions{})
	if skHit.Hits != sk.scatters {
		t.Fatalf("the warm skew key stopped hitting: %+v", skHit)
	}
}

// TestResidentSecondSight: a key seen once leaves nothing on any worker;
// the second execution is the one that pays to keep it.
func TestResidentSecondSight(t *testing.T) {
	const p = 4
	c := residentCases(t, p)[0]
	rs := dist.NewResidentStore()
	pool := &loopbackPool{p: p, rs: rs}
	res := newResidency(t)
	for v := uint64(0); v < 5; v++ {
		c.execute(t, pool.session(), res.Snapshot("d", v), dist.RecoveryOptions{})
		if rs.Bytes() != 0 || rs.Entries() != 0 {
			t.Fatalf("version %d, seen once, left %d bytes in %d slices", v, rs.Bytes(), rs.Entries())
		}
	}
	c.execute(t, pool.session(), res.Snapshot("d", 4), dist.RecoveryOptions{})
	if rs.Bytes() == 0 {
		t.Fatal("a second sighting retained nothing")
	}
}

// TestResidentEviction: filling a worker past its byte budget evicts the
// least recently attached scatter first, and the evicted key's next
// attach is a transparent miss.
func TestResidentEviction(t *testing.T) {
	const p = 4
	c := residentCases(t, p)[0]
	rs := dist.NewResidentStore()
	pool := &loopbackPool{p: p, rs: rs}
	res := newResidency(t)
	c.warm(t, pool, res) // version 0
	// The unit is a version as it stands once joined: the retaining run's
	// join indexed the published runs, and an entry is measured again when
	// it is attached.
	c.execute(t, pool.session(), res.Snapshot("d", 0), dist.RecoveryOptions{})
	one := rs.Bytes()
	// Room for two versions' slices, not three.
	rs.SetBudget(2*one + one/2)
	for v := uint64(1); v <= 2; v++ {
		for i := 0; i < 2; i++ {
			c.execute(t, pool.session(), res.Snapshot("d", v), dist.RecoveryOptions{})
		}
		if v == 1 {
			// Touch version 0: version 1 is now the least recently attached.
			c.execute(t, pool.session(), res.Snapshot("d", 0), dist.RecoveryOptions{})
		}
	}
	if rs.Bytes() > 2*one+one/2 {
		t.Fatalf("%d bytes kept, budget %d", rs.Bytes(), 2*one+one/2)
	}
	for _, v := range []uint64{0, 2, 1} {
		snap := res.Snapshot("d", v)
		c.execute(t, pool.session(), snap, dist.RecoveryOptions{})
		if full := snap.Hits == c.scatters; full != (v != 1) {
			t.Errorf("version %d: %+v, want every scatter resident: %v", v, snap, v != 1)
		}
	}
}

// lyingPool makes worker 0 answer every attach with a miss holding one
// tuple too many — a reply that contradicts the coordinator's belief.
type lyingPool struct{ *dist.Loopback }

func (l lyingPool) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	reply, err := l.Loopback.Run(ctx, ops)
	for _, op := range ops {
		for i, a := range op.Attach {
			reply.Attached[0][i] = wire.Attach{Tuples: uint64(a.Tuples[0] + 1)}
		}
	}
	return reply, err
}

// TestResidentContradiction: a worker reporting a tuple count that
// differs from the table is a miss, and the belief is dropped — the next
// execution asks nobody and re-establishes it.
func TestResidentContradiction(t *testing.T) {
	const p = 4
	c := residentCases(t, p)[0]
	rs := dist.NewResidentStore()
	pool := &loopbackPool{p: p, rs: rs}
	res := newResidency(t)
	want := c.warm(t, pool, res)
	lied := res.Snapshot("d", 0)
	got := c.execute(t, lyingPool{dist.NewLoopbackOn(p, rs)}, lied, dist.RecoveryOptions{})
	if !reflect.DeepEqual(got.Stats.Rounds, want) {
		t.Fatalf("round stats differ under a contradicting worker")
	}
	if lied.Hits != 0 || lied.Misses != c.scatters {
		t.Fatalf("contradicted: %+v, want %d misses", lied, c.scatters)
	}
	asked := res.Snapshot("d", 0)
	c.execute(t, pool.session(), asked, dist.RecoveryOptions{})
	if asked.Hits != 0 || asked.Misses != 0 || asked.Retained == 0 {
		t.Fatalf("after the contradiction: %+v, want a retaining run that attaches to nothing", asked)
	}
	hit := res.Snapshot("d", 0)
	c.execute(t, pool.session(), hit, dist.RecoveryOptions{})
	if hit.Hits != c.scatters {
		t.Fatalf("belief not re-established: %+v", hit)
	}
}

// TestResidentStaleEntry: a worker holding the wrong number of tuples
// under a key answers miss, binds nothing, and drops the entry.
func TestResidentStaleEntry(t *testing.T) {
	rs := dist.NewResidentStore()
	lb := dist.NewLoopbackOn(2, rs)
	buf := relation.NewRun(1)
	buf.Append(relation.Tuple{7})
	buf.Seal()
	ctx := context.Background()
	if err := deliver(ctx, lb, 1, []exchange.Delivery{{To: 1, Rel: "R", Buf: buf, Retain: "k"}}); err != nil {
		t.Fatal(err)
	}
	if rs.Entries() != 0 {
		t.Fatal("a retained run was published before its round's barrier")
	}
	if err := barrier(ctx, lb, 1); err != nil {
		t.Fatal(err)
	}
	if rs.Entries() != 1 {
		t.Fatalf("%d slices after the barrier, want 1", rs.Entries())
	}
	fresh := dist.NewLoopbackOn(2, rs)
	replies, err := attach(ctx, fresh, []dist.Attachment{{Key: "k", Store: "R", Tuples: []int64{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !replies[0][0].Hit || replies[1][0].Hit || replies[1][0].Tuples != 1 {
		t.Fatalf("replies %+v: want slot 0 a trivial hit, slot 1 a miss holding 1", replies)
	}
	if runs, _ := gather(ctx, fresh, "R"); len(runs) != 0 || rs.Entries() != 0 {
		t.Fatalf("a stale entry was bound (%d runs) or kept (%d slices)", len(runs), rs.Entries())
	}
}

// TestServeSessionsShareOneStore: the sessions of one dist.Serve attach
// to what an earlier session retained; a session served alone does not.
func TestServeSessionsShareOneStore(t *testing.T) {
	addrs := startPool(t, 1)
	buf := relation.NewRun(1)
	buf.Append(relation.Tuple{7})
	buf.Seal()
	ctx := context.Background()
	first := dialPool(t, addrs)
	if err := deliver(ctx, first, 1, []exchange.Delivery{{To: 0, Rel: "R", Buf: buf, Retain: "k"}}); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, first, 1); err != nil {
		t.Fatal(err)
	}
	first.Close()
	att := []dist.Attachment{{Key: "k", Store: "R2", Tuples: []int64{1}}}
	second := dialPool(t, addrs)
	replies, err := attach(ctx, second, att)
	if err != nil || !replies[0][0].Hit || replies[0][0].Tuples != 1 {
		t.Fatalf("second session: %+v %v, want a hit holding 1 tuple", replies, err)
	}
	runs, err := gather(ctx, second, "R2")
	if err != nil || len(runs) != 1 || runs[0].Len() != 1 {
		t.Fatalf("the attached run is not in the session's store: %v %v", runs, err)
	}

	client, server := net.Pipe()
	defer client.Close()
	go dist.ServeConn(ctx, server)
	// ServeConn alone has no process to keep anything in.
	if err := wire.Encode(client, &wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{Version: wire.Version, P: 1}}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.Decode(client); err != nil || f.Type != wire.TypeAck {
		t.Fatalf("handshake: %v %v", f, err)
	}
	if err := wire.Encode(client, &wire.Frame{Type: wire.TypeAttach, Attach: wire.Attach{Key: "k", Store: "R", Tuples: 1}}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.Decode(client); err != nil || f.Type != wire.TypeAttach || f.Attach.Hit {
		t.Fatalf("lone session: %+v %v, want a miss", f, err)
	}
}

// deliveryLog records what a loopback session was sent.
type deliveryLog struct {
	*dist.Loopback
	sent []exchange.Delivery
}

func (l *deliveryLog) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		l.sent = append(l.sent, op.Deliveries...)
	}
	return l.Loopback.Run(ctx, ops)
}

// TestResidentHitSendsNothing: a resident execution delivers no run at
// all, and after one worker lost its store only that worker is sent
// anything — its own slices, flagged to be kept again.
func TestResidentHitSendsNothing(t *testing.T) {
	const p = 4
	c := residentCases(t, p)[0]
	rs := dist.NewResidentStore()
	pool := &loopbackPool{p: p, rs: rs}
	res := newResidency(t)
	c.warm(t, pool, res)
	hit := &deliveryLog{Loopback: dist.NewLoopbackOn(p, rs)}
	c.execute(t, hit, res.Snapshot("d", 0), dist.RecoveryOptions{})
	if len(hit.sent) != 0 {
		t.Fatalf("a resident execution delivered %d runs", len(hit.sent))
	}
	pool.restart(3)
	partial := &deliveryLog{Loopback: dist.NewLoopbackOn(p, rs)}
	c.execute(t, partial, res.Snapshot("d", 0), dist.RecoveryOptions{})
	if len(partial.sent) == 0 {
		t.Fatal("the restarted worker was sent nothing")
	}
	for _, d := range partial.sent {
		if d.To != 3 || d.Retain == "" {
			t.Fatalf("delivery to worker %d (retain %q) after only worker 3 restarted", d.To, d.Retain)
		}
	}
}
