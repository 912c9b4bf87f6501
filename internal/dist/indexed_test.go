package dist_test

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/query"
	"repro/internal/relation"
)

// The indexed ≡ fresh net. A worker store reads as one merged run that
// takes its pieces' place, and a sealed run remembers the trie index joins
// read of it — the last other level order asked for and the level-0
// directories — state that outlives a join, within a session and, on a
// resident entry, across sessions. Whatever happens to
// a store between two joins, a session that has joined before must
// answer exactly like one that never has.

// indexedCase is one of the worker-join nets' shapes: the query, a second
// query reading the same stores in another level order, the data, and the
// store the steps between the joins act on.
type indexedCase struct {
	name   string
	q, alt *query.Query
	db     *relation.Database
	store  string
}

func indexedCases() []indexedCase {
	c3 := query.MustParse("q(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
	// S3 is read permuted by the triangle and filtered on its diagonal by
	// this one.
	c3alt := query.MustParse("q(x,y) = S1(x,y), S3(y,y)")

	// The scatter-delta net's draw: pairs over a small domain, some
	// repeated.
	rng := rand.New(rand.NewPCG(61, 0))
	drawn := relation.NewDatabase(200)
	for _, a := range c3.Atoms {
		rel := relation.New(a.Name, a.Vars...)
		for i := 0; i < 2048+77; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{rng.IntN(200), rng.IntN(200)})
		}
		rel.Tuples = append(rel.Tuples, rel.Tuples[0], rel.Tuples[1], rel.Tuples[0])
		drawn.AddRelation(rel)
	}

	// Two atoms over one arity-3 store that ask for the same columns and
	// differ only in which pair must agree.
	rep := query.MustParse("q(x,y) = S1(x,y), S2(x,y,x)")
	repDB := relation.NewDatabase(12)
	s1, s2 := relation.New("S1", "a", "b"), relation.New("S2", "a", "b", "c")
	for i := 0; i < 100; i++ {
		s1.Tuples = append(s1.Tuples, relation.Tuple{rng.IntN(12), rng.IntN(12)})
	}
	for i := 0; i < 1200; i++ {
		s2.Tuples = append(s2.Tuples, relation.Tuple{rng.IntN(12), rng.IntN(12), rng.IntN(12)})
	}
	repDB.AddRelation(s1)
	repDB.AddRelation(s2)

	// S is read permuted by the first query and in its own order by the
	// second.
	skewed := query.MustParse("q(x,y,z) = R(y,x), S(z,y)")
	return []indexedCase{
		{"packed-join", c3, c3alt, widened(c3, 300, 0, 1), "S3"},
		{"wide", c3, c3alt, widened(c3, 300, 1<<33, 2), "S3"},
		{"skew-native", skewed, query.MustParse("q(z,y,x) = S(z,y), R(y,x)"), skewShapeDB(skewed, 1500, 0, false), "S"},
		{"scatter-delta", c3, c3alt, drawn, "S3"},
		{"repeated-variable", rep, query.MustParse("q(x,y) = S1(x,y), S2(x,y,y)"), repDB, "S2"},
	}
}

// cloneRun re-adopts a sealed run's payload as a run nobody has read.
func cloneRun(t *testing.T, run *relation.Run) *relation.Run {
	t.Helper()
	var err error
	if words, packed := run.Words(); packed {
		run, err = relation.NewRunFromWords(run.Arity(), slices.Clone(words))
	} else {
		run, err = relation.NewRunFromFlat(run.Arity(), slices.Clone(run.Flat()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// indexedPool is p = 2: worker 0 is sent every tuple, so the pool's
// answer is the ground truth of what was sent, and worker 1 the tuples
// whose first value is odd — another slot holding other runs.
const indexedP = 2

func routed(w int, tuples []relation.Tuple) []relation.Tuple {
	if w == 0 {
		return tuples
	}
	var odd []relation.Tuple
	for _, tu := range tuples {
		if tu[0]%2 == 1 {
			odd = append(odd, tu)
		}
	}
	return odd
}

// indexedSession is one session of the net: its transport, every data
// step it was sent (what a fresh session is sent to hold the same runs),
// and the tuples its stores hold now.
type indexedSession struct {
	t       *testing.T
	c       indexedCase
	tr      dist.Transport
	fresh   func() dist.Transport
	history []dist.Op
	live    map[string]map[string]relation.Tuple
	views   int
}

// base returns the deliveries of content — store name → tuples — routed,
// two runs per store and worker, as two sender shards produce, to be
// retained under retain+name when retain is not empty; and what each
// worker is sent per store.
func (c indexedCase) base(rng *rand.Rand, retain string, content map[string][]relation.Tuple) (ds []exchange.Delivery, counts map[string][]int64) {
	counts = make(map[string][]int64)
	for _, name := range c.db.Names() {
		rel, _ := c.db.Relation(name)
		counts[name] = make([]int64, indexedP)
		for w := 0; w < indexedP; w++ {
			slice := routed(w, content[name])
			counts[name][w] = int64(len(slice))
			for _, run := range sealedRuns(rng, rel.Arity(), 2, slice) {
				d := exchange.Delivery{To: w, Rel: name, Buf: run}
				if retain != "" {
					d.Retain = retain + name
				}
				ds = append(ds, d)
			}
		}
	}
	return ds, counts
}

// send runs one data step on the session and notes it.
func (s *indexedSession) send(op dist.Op) {
	s.t.Helper()
	if _, err := s.tr.Run(context.Background(), []dist.Op{op}); err != nil {
		s.t.Fatal(err)
	}
	s.history = append(s.history, op)
}

// deliver sends tuples to store, routed, as one more run per worker.
func (s *indexedSession) deliver(rng *rand.Rand, store string, arity int, tuples []relation.Tuple) {
	s.t.Helper()
	var ds []exchange.Delivery
	for w := 0; w < indexedP; w++ {
		ds = append(ds, exchange.Delivery{To: w, Rel: store, Buf: sealedRuns(rng, arity, 1, routed(w, tuples))[0]})
	}
	s.send(dist.Op{Kind: dist.OpDeliver, Round: 2, Deliveries: ds})
	for _, tu := range tuples {
		s.live[store][tu.Key()] = tu
	}
}

// delta retracts or re-appends tuples of store, routed.
func (s *indexedSession) delta(rng *rand.Rand, store string, arity int, del bool, tuples []relation.Tuple) {
	s.t.Helper()
	var ds []dist.DeltaDelivery
	for w := 0; w < indexedP; w++ {
		if slice := routed(w, tuples); len(slice) > 0 {
			ds = append(ds, dist.DeltaDelivery{To: w, Store: store, Del: del, Buf: sealedRuns(rng, arity, 1, slice)[0]})
		}
	}
	s.send(dist.Op{Kind: dist.OpDelta, Round: 3, Deltas: ds})
	for _, tu := range tuples {
		if del {
			delete(s.live[store], tu.Key())
		} else {
			s.live[store][tu.Key()] = tu
		}
	}
}

// joinGather joins q under view on tr and returns the pool's answer.
func joinGather(tr dist.Transport, q *query.Query, view string) ([]relation.Tuple, error) {
	reply, err := tr.Run(context.Background(), []dist.Op{
		{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: q.String(), View: view}},
		{Kind: dist.OpGather, View: view},
	})
	return relation.Merge(reply.Runs).Tuples(), err
}

// check joins q on the session — under a view of its own, whatever was
// joined before — and on a fresh session sent the same steps over runs
// nobody has read, and holds both to the ground truth of what the stores
// hold. It returns the answer count.
func (s *indexedSession) check(step string, q *query.Query) int {
	s.t.Helper()
	db := relation.NewDatabase(s.c.db.N)
	for _, name := range s.c.db.Names() {
		src, _ := s.c.db.Relation(name)
		rel := relation.New(name, src.Attrs...)
		for _, tu := range s.live[name] {
			rel.Tuples = append(rel.Tuples, tu)
		}
		db.AddRelation(rel)
	}
	want, err := core.GroundTruth(q, db)
	if err != nil {
		s.t.Fatal(err)
	}
	s.views++
	if got, err := joinGather(s.tr, q, fmt.Sprintf("v%d", s.views)); err != nil || !sameTuples(got, want) {
		s.t.Errorf("%s: %s: %d answers (%v), ground truth %d", step, q, len(got), err, len(want))
	}
	fresh := s.fresh()
	for _, op := range s.history {
		op.Deliveries = slices.Clone(op.Deliveries)
		for i := range op.Deliveries {
			op.Deliveries[i].Buf, op.Deliveries[i].Retain = cloneRun(s.t, op.Deliveries[i].Buf), ""
		}
		op.Deltas = slices.Clone(op.Deltas)
		for i := range op.Deltas {
			op.Deltas[i].Buf = cloneRun(s.t, op.Deltas[i].Buf)
		}
		if _, err := fresh.Run(context.Background(), []dist.Op{op}); err != nil {
			s.t.Fatal(err)
		}
	}
	if got, err := joinGather(fresh, q, "out"); err != nil || !sameTuples(got, want) {
		s.t.Errorf("%s: %s: fresh session: %d answers (%v), ground truth %d", step, q, len(got), err, len(want))
	}
	return len(want)
}

// TestIndexedEqualsFresh: on the packed-join, wide (flat layout),
// skew-native and scatter-delta nets' shapes, and on a store read under
// two repeated-variable patterns, one session joins again and again
// while, between the joins, (d) a second query reads the same store in
// another level order, (a) a further delivery lands on the joined store,
// (b) a delta retracts some of it and re-appends a part, and (c) the
// resident entries it published are evicted, re-published by a second
// session and attached by a third and a fourth. Every answer equals
// core.GroundTruth over what the stores hold and the answer of a fresh
// session sent the same steps over runs nobody has read — loopback and
// TCP.
//
// Two planted mutations each fail it: workerStore.runs returning the
// merged run it keeps without looking at what was appended beside it
// (step a reads a stale store), and relation.Run.Index matching its
// remembered order on the columns without the repeated-variable pairs
// (the repeated-variable case answers S2(x,y,y) from S2(x,y,x)'s rows).
func TestIndexedEqualsFresh(t *testing.T) {
	for _, c := range indexedCases() {
		for kind, pool := range residentPools(t, indexedP) {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(88, 1))
				unretained := func() dist.Transport { return dist.NewLoopback(indexedP) }
				if kind == "tcp" {
					addrs := startPool(t, indexedP)
					unretained = func() dist.Transport { return dialPool(t, addrs) }
				}
				// A fifth of the store is held back for step (a).
				rel, _ := c.db.Relation(c.store)
				all := slices.Clone(rel.Tuples)
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				held, extra := all[len(all)/5:], all[:len(all)/5]
				content := make(map[string][]relation.Tuple)
				for _, name := range c.db.Names() {
					r, _ := c.db.Relation(name)
					content[name] = r.Tuples
				}
				content[c.store] = held

				open := func() *indexedSession {
					s := &indexedSession{t: t, c: c, tr: pool.session(), fresh: unretained, live: make(map[string]map[string]relation.Tuple)}
					for name, tuples := range content {
						s.live[name] = make(map[string]relation.Tuple)
						for _, tu := range tuples {
							s.live[name][tu.Key()] = tu
						}
					}
					return s
				}
				publish := func(s *indexedSession) map[string][]int64 {
					ds, counts := c.base(rng, "k/", content)
					s.send(dist.Op{Kind: dist.OpDeliver, Round: 1, Deliveries: ds})
					if err := barrier(context.Background(), s.tr, 1); err != nil {
						t.Fatal(err)
					}
					return counts
				}
				attachAll := func(s *indexedSession, counts map[string][]int64) {
					var atts []dist.Attachment
					for _, name := range c.db.Names() {
						atts = append(atts, dist.Attachment{Key: "k/" + name, Store: name, Tuples: counts[name]})
					}
					replies, err := attach(context.Background(), s.tr, atts)
					if err != nil {
						t.Fatal(err)
					}
					for w, rs := range replies {
						for i, r := range rs {
							if !r.Hit {
								t.Fatalf("worker %d: attach of %s: %+v, want a hit", w, atts[i].Key, r)
							}
						}
					}
					// What a fresh session is sent to hold the same runs.
					ds, _ := c.base(rng, "", content)
					s.history = append(s.history, dist.Op{Kind: dist.OpDeliver, Round: 1, Deliveries: ds})
				}

				first := open()
				counts := publish(first)
				cold := first.check("cold", c.q)
				if cold == 0 {
					t.Fatal("empty ground truth checks nothing")
				}
				first.check("warm", c.q)
				attached := open()
				attachAll(attached, counts)
				attached.check("attached", c.q)

				// (d) another level order over the same stores, and back.
				if n := first.check("d: other order", c.alt); n == 0 {
					t.Fatal("the second query has no answers")
				}
				first.check("d: first order again", c.q)
				attached.check("d: attached, other order", c.alt)
				attached.check("d: attached, first order again", c.q)

				// (a) a further delivery to the joined store, and another to the
				// store that read merged once more.
				appended := cold
				for _, part := range [][]relation.Tuple{extra[:len(extra)/2], extra[len(extra)/2:]} {
					first.deliver(rng, c.store, rel.Arity(), part)
					n := first.check("a: appended", c.q)
					if n <= appended {
						t.Fatalf("the further delivery added no answer (%d, then %d)", appended, n)
					}
					appended = n
				}
				first.check("a: appended, warm", c.q)
				first.check("a: appended, other order", c.alt)

				// (b) a retraction — stored and absent tuples — and a re-append
				// of a part.
				full := first.check("b: before", c.q)
				gone := append(slices.Clone(held[:len(held)/3]), extra[:len(extra)/2]...)
				first.delta(rng, c.store, rel.Arity(), true, gone)
				if n := first.check("b: retracted", c.q); n >= full {
					t.Fatalf("the retraction removed no answer (%d, then %d)", full, n)
				}
				first.delta(rng, c.store, rel.Arity(), false, gone[:len(gone)/2])
				first.check("b: re-appended", c.q)
				first.check("b: re-appended, warm", c.q)
				first.check("b: re-appended, other order", c.alt)

				// (c) the resident entries are evicted and published again.
				for slot := 0; slot < indexedP; slot++ {
					pool.restart(slot)
				}
				second := open()
				counts = publish(second)
				second.check("c: re-published", c.q)
				for _, name := range []string{"third", "fourth"} {
					s := open()
					attachAll(s, counts)
					if n := s.check("c: "+name+", attached", c.q); n != cold {
						t.Errorf("%s session: %d answers, the first cold join had %d", name, n, cold)
					}
					s.check("c: "+name+", other order", c.alt)
				}
				first.check("c: the first session still holds its runs", c.q)
				attached.check("c: and so does the one that attached the evicted entry", c.q)
			})
		}
	}
}

// permutedJoin is a join whose second atom's level order is not its
// column order: the variable order is x, y, z and S is read (y, z).
var permutedJoin = query.MustParse("q(x,y,z) = R(x,y), S(z,y)")

// twoRunStores returns deliveries to worker 0 of R and S for
// permutedJoin, two sealed runs of n rows each per store, with few
// answers: the join's output must not be what its allocations measure.
func twoRunStores(rng *rand.Rand, n int, retain string) []exchange.Delivery {
	var ds []exchange.Delivery
	for _, name := range []string{"R", "S"} {
		tuples := make([]relation.Tuple, 2*n)
		for i := range tuples {
			tuples[i] = relation.Tuple{rng.IntN(1 << 20), rng.IntN(1 << 20)}
		}
		for _, d := range deliveries(name, sealedRuns(rng, 2, 2, tuples)) {
			if retain != "" {
				d.Retain = retain + name
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// directoryBytes is what the level-0 directory relation.Run.Index builds
// over n rows costs: 2^(⌊log₂ n⌋−2) uint32 bucket starts from 64 rows on,
// nothing below.
func directoryBytes(n int64) int64 {
	if n < 64 {
		return 0
	}
	return 4 << (bits.Len64(uint64(n)) - 3)
}

// TestWarmJoinBuildsNoIndex: over two 2 000-row runs per store and a
// permuted atom, a session's first join merges each store, sorts S into
// level order and builds a directory over each; its second allocates
// nothing proportional to its input — a few dozen small objects, and
// fewer bytes than one run's words, where the first pays for the merged
// stores, the sorted copy and the directories.
func TestWarmJoinBuildsNoIndex(t *testing.T) {
	const rows, warmAllocs = 2000, 64
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 9))
	l := dist.NewLoopback(1)
	if err := deliver(ctx, l, 1, twoRunStores(rng, rows, "")); err != nil {
		t.Fatal(err)
	}
	step := []dist.Op{{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: permutedJoin.String(), View: "out"}}}
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	joinOnce := func() {
		if err := l.RunOn(ctx, 0, step); err != nil {
			t.Fatal(err)
		}
	}
	cold := bytesOf(joinOnce)
	if cold < 5*8*rows {
		t.Fatalf("the first join allocated %d bytes: it did not merge two stores and sort one", cold)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, joinOnce)
	warm := bytesOf(func() {
		for i := 0; i < runs; i++ {
			joinOnce()
		}
	}) / runs
	if allocs > warmAllocs || warm >= 8*rows {
		t.Errorf("a warm join: %.0f allocs and %d bytes per run, want at most %d and fewer than one run's %d bytes (the cold join: %d bytes)",
			allocs, warm, warmAllocs, 8*rows, cold)
	}
	answers, err := gather(ctx, l, "out")
	if err != nil {
		t.Fatal(err)
	}
	if relation.Merge(answers).Len() == 0 {
		t.Fatal("the join has no answers")
	}
}

// TestWarmJoinWritesItsAnswerOnce: a join whose answer is on the flat
// layout — five 16-bit columns do not fit a word, the shape of a chain's
// second round — allocates, after its first run, the answer's bytes once
// and a constant more. The leapfrog appends to a scratch that outlives the
// join and keeps an exact-size copy; appending to a fresh run, grown a
// quarter at a time, allocated about four times the answer (484 kB for
// this one's 120 kB); the constant is ≈ 5.3 kB on go1.24, linux/amd64.
func TestWarmJoinWritesItsAnswerOnce(t *testing.T) {
	const rows, overhead = 3000, 8 << 10
	// One P, as testing.AllocsPerRun measures: the pool keeps a scratch
	// per P, so every join finds the one the join before it handed back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 11))
	v1, v2 := make([]relation.Tuple, rows), make([]relation.Tuple, rows)
	for i := range v1 {
		v1[i] = relation.Tuple{rng.IntN(1 << 16), rng.IntN(1 << 16), i}
		v2[i] = relation.Tuple{i, rng.IntN(1 << 16), rng.IntN(1 << 16)}
	}
	l := dist.NewLoopback(1)
	ds := append(deliveries("V1", sealedRuns(rng, 3, 2, v1)), deliveries("V2", sealedRuns(rng, 3, 2, v2))...)
	if err := deliver(ctx, l, 1, ds); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("q(x0,x1,x2,x3,x4) = V1(x0,x1,x2), V2(x2,x3,x4)")
	step := []dist.Op{{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: q.String(), View: "out"}}}
	joinOnce := func() {
		if err := l.RunOn(ctx, 0, step); err != nil {
			t.Fatal(err)
		}
	}
	// Each join after the first is measured alone and the least of them is
	// held to the bound: under the race detector a sync.Pool drops a
	// quarter of what is handed back at random, and the join after a drop
	// grows a new scratch. Without it the pool drops nothing and all the
	// joins allocate alike; a join that grows its answer fails every one.
	joinOnce()
	warm := make([]uint64, 21)
	for i := range warm {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		joinOnce()
		runtime.ReadMemStats(&after)
		warm[i] = after.TotalAlloc - before.TotalAlloc
	}
	answer := uint64(rows * q.NumVars() * 8)
	if least := slices.Min(warm); least > answer+overhead {
		t.Errorf("a warm join allocated %d bytes, want at most the answer's %d and %d more", least, answer, overhead)
	}
	out, err := gather(ctx, l, "out")
	if err != nil {
		t.Fatal(err)
	}
	if got := relation.Merge(out); got.Len() != rows || got.Flat() == nil {
		t.Fatalf("the join has %d answers (flat: %v), want %d on the flat layout", got.Len(), got.Flat() != nil, rows)
	}
}

// TestWarmJoinSharesOneIndex: eight sessions attach one resident entry
// and join concurrently (run with -race: the trie index a sealed run
// remembers is written after it was shared). All answers are equal, and
// the entries, measured again at their next attach, have grown by exactly
// one sorted copy of S and one directory per run — over that copy and
// over R's own words — not one per session.
func TestWarmJoinSharesOneIndex(t *testing.T) {
	const rows, sessions = 2000, 8
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 10))
	rs := dist.NewResidentStore()
	ds := twoRunStores(rng, rows, "k/")
	counts := map[string][]int64{"R": {0}, "S": {0}}
	for _, d := range ds {
		counts[d.Rel][0] += int64(d.Buf.Len())
	}
	atts := []dist.Attachment{{Key: "k/R", Store: "R", Tuples: counts["R"]}, {Key: "k/S", Store: "S", Tuples: counts["S"]}}
	publisher := dist.NewLoopbackOn(1, rs)
	if err := deliver(ctx, publisher, 1, ds); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, publisher, 1); err != nil {
		t.Fatal(err)
	}
	bare := rs.Bytes()

	answers := make([][]relation.Tuple, sessions)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := dist.NewLoopbackOn(1, rs)
			if replies, err := attach(ctx, l, atts); err != nil || !replies[0][0].Hit || !replies[0][1].Hit {
				t.Errorf("session %d: attach: %+v, %v", i, replies, err)
				return
			}
			var err error
			if answers[i], err = joinGather(l, permutedJoin, "out"); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if len(answers[0]) == 0 {
		t.Fatal("the join has no answers")
	}
	for i, got := range answers {
		if !sameTuples(got, answers[0]) {
			t.Errorf("session %d: %d answers, session 0 has %d", i, len(got), len(answers[0]))
		}
	}
	if _, err := attach(ctx, dist.NewLoopbackOn(1, rs), atts); err != nil {
		t.Fatal(err)
	}
	want := 8*counts["S"][0] + directoryBytes(counts["S"][0]) + directoryBytes(counts["R"][0])
	if grown := rs.Bytes() - bare; grown != want {
		t.Errorf("the entries grew by %d bytes over %d, want one sorted copy of S's %d rows and a directory over it and over R's %d rows: %d",
			grown, bare, counts["S"][0], counts["R"][0], want)
	}
}

// TestResidentBudgetCountsIndexes: an index is built after publish sized
// its entry, so attach measures the entry again — larger by exactly the
// index, a sorted copy and its directory — and a budget that fitted three
// bare entries evicts the least recently attached one once an index
// stands.
func TestResidentBudgetCountsIndexes(t *testing.T) {
	const rows = 1000
	ctx := context.Background()
	rs := dist.NewResidentStore()
	q := query.MustParse("q(x,y) = T(x), S(y,x)") // S is read (x, y)
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple{i, rows - i}
	}
	s := relation.RunOf(2, tuples)
	att := func(key string) []dist.Attachment {
		return []dist.Attachment{{Key: key, Store: "S", Tuples: []int64{rows}}}
	}
	for _, key := range []string{"k1", "k2", "k3"} {
		l := dist.NewLoopbackOn(1, rs)
		if err := deliver(ctx, l, 1, []exchange.Delivery{{To: 0, Rel: "S", Buf: cloneRun(t, s), Retain: key}}); err != nil {
			t.Fatal(err)
		}
		if err := barrier(ctx, l, 1); err != nil {
			t.Fatal(err)
		}
	}
	const bare = 8 * rows
	if rs.Bytes() != 3*bare || rs.Entries() != 3 {
		t.Fatalf("three bare entries: %d bytes in %d entries, want %d", rs.Bytes(), rs.Entries(), 3*bare)
	}
	rs.SetBudget(3*bare + bare/2)

	// A session attaches k1 and joins: the index stands, uncounted until
	// the entry is attached again.
	l := dist.NewLoopbackOn(1, rs)
	if _, err := attach(ctx, l, att("k1")); err != nil {
		t.Fatal(err)
	}
	if err := deliver(ctx, l, 1, []exchange.Delivery{{To: 0, Rel: "T", Buf: relation.RunOf(1, []relation.Tuple{{3}, {4}})}}); err != nil {
		t.Fatal(err)
	}
	if got, err := joinGather(l, q, "out"); err != nil || !sameTuples(got, []relation.Tuple{{3, rows - 3}, {4, rows - 4}}) {
		t.Fatalf("join over the attached run: %v, %v", got, err)
	}
	if rs.Bytes() != 3*bare {
		t.Fatalf("%d bytes counted before the next attach, want %d", rs.Bytes(), 3*bare)
	}
	// The next attach of k1 counts it: four units no longer fit, and k2 —
	// published before k3, attached by nobody — goes.
	if replies, err := attach(ctx, dist.NewLoopbackOn(1, rs), att("k1")); err != nil || !replies[0][0].Hit {
		t.Fatalf("attach k1: %+v, %v", replies, err)
	}
	if want := 3*bare + directoryBytes(rows); rs.Bytes() != want || rs.Entries() != 2 {
		t.Errorf("after the index was counted: %d bytes in %d entries, want k1 with its sorted copy and directory, and k3: %d in 2", rs.Bytes(), rs.Entries(), want)
	}
	for key, hit := range map[string]bool{"k2": false, "k3": true} {
		if replies, err := attach(ctx, dist.NewLoopbackOn(1, rs), att(key)); err != nil || replies[0][0].Hit != hit {
			t.Errorf("attach %s: %+v, %v, want hit = %v", key, replies, err, hit)
		}
	}
}
