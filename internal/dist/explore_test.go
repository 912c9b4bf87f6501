package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/dist/disttest"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// The fault explorer. Everything a coordinator says to a worker is a step
// of a script, so a fault has an address: (script i, step j, worker w).
// The explorer records the scripts of one fault-free execution
// (disttest.Schedule), then runs it again once per address and kind of
// fault — the connection dies before the step, or after it; the worker
// takes the step and never answers; it answers a gather with a run of
// another arity — each time in a fresh pool, and holds every run to the
// invariants of exploration.holds. A heal's own scripts — the epoch step,
// the replay — meet the schedule like any other, so "the replacement dies
// during its replay" and "two workers die in one script" are pairs of
// points, sampled by seed; so does the reset that parks a session between
// two executions (lend), where a fault must cost the next execution a dial
// and nothing else. The older tables (recovery_test.go,
// recovery_schedule_test.go, resident_test.go, wide_test.go) look their
// points up in a recorded trace (disttest.Trace.At) and call holds too.
//
// Three mutations were planted one at a time on a scratch copy of PR 28's
// tree; each fails on loopback and TCP alike (CHANGES.md has the counts):
//   - Cluster.attach does not journal the round's resident scatters:
//     every kill and stall in resident's second script, s1.0-barrier to
//     s1.2-gather on all four workers, returns short answers;
//   - Cluster.attempt re-sends the whole script after a heal, not its
//     idempotent suffix: every kill and stall of every kind fails "worker
//     … was never lost and met 8 deliver, delta, join and attach steps, 4
//     in the fault-free run" — and nothing else, duplicates merge away;
//   - heal skips the epoch step: every kill and stall of every kind fails
//     "0 epoch steps for 1 replacements".
//
// A fourth guards the reset: a Registry that parks a session whose reset
// failed fails all 16 points at the reuse kind's first reset over TCP,
// "the pool opened 1 sessions, want 2".

// outcome is what one execution computed: what a fault must not change,
// and the replacement count. Only a resident execution fills snap. A trial
// fills the rest from its trace and its pool: effects[w] is how many
// deliver, delta, join and attach steps had something for worker w — the
// steps that carry or build state; epochs counts the epoch steps, and
// fenced is whether the last of them reached the whole pool; dials is how
// many sessions a lent execution's pool opened.
type outcome struct {
	answers []relation.Tuple
	rounds  []mpc.RoundStats
	repl    int
	snap    dist.Snapshot
	effects []int
	epochs  int
	fenced  bool
	dials   int
}

// exploration is one execution kind with its ground truth. run executes
// it once: every session it opens is dial() behind s (see behind), under
// the policy rec. A lent kind borrows its sessions (lend).
type exploration struct {
	name  string
	truth []relation.Tuple
	run   func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error)
	lent  bool
}

// behind puts one session behind the schedule; none leaves it bare.
func behind(s *disttest.Schedule, tr dist.Transport) dist.Transport {
	if s == nil {
		return tr
	}
	return s.Wrap(tr)
}

// on runs x on the one session tr, behind no schedule.
func (x exploration) on(tr dist.Transport, rec dist.RecoveryOptions) (outcome, error) {
	return x.run(func() dist.Transport { return tr }, nil, rec)
}

// stallBound is the phase bound of a trial with a stall in it: what each
// such trial waits, and far above what a script of these sizes takes.
const stallBound = 750 * time.Millisecond

// trial runs x once in a fresh world of the given kind under the faults.
// A panic anywhere in the execution comes back as the error.
func (x exploration) trial(kind string, p int, faults ...disttest.Fault) (out outcome, s *disttest.Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	pool := newPool(kind, p)
	defer pool.close()
	rec := dist.RecoveryOptions{Enabled: true, MaxReplacements: 8}
	for _, f := range faults {
		if f.Kind == disttest.Stall {
			rec.PhaseTimeout = stallBound
		}
	}
	s = disttest.NewSchedule(faults...)
	dial, dialled, stop := pool.session, func() int { return 0 }, func() {}
	if x.lent {
		dial, dialled, stop = lend(pool, s)
		defer stop()
	}
	out, err = x.run(dial, s, rec)
	stop()
	out.dials = dialled()
	out.effects = make([]int, p)
	for _, site := range s.Trace() {
		reached := 0
		for w, n := range site.N {
			if n >= 0 && site.For[w] {
				reached++
				if k := site.Kind; k == dist.OpDeliver || k == dist.OpJoin || k == dist.OpAttach {
					out.effects[w]++
				}
			}
		}
		if site.Kind == dist.OpEpoch {
			out.epochs, out.fenced = out.epochs+1, reached == p
		}
	}
	return out, s, err
}

// baseline is the fault-free trial: its outcome, checked against the
// ground truth, and the steps it sent.
func (x exploration) baseline(t *testing.T, kind string, p int) (outcome, disttest.Trace) {
	t.Helper()
	base, s, err := x.trial(kind, p)
	if err != nil {
		t.Fatalf("%s: %v", x.name, err)
	}
	if !sameTuples(base.answers, x.truth) || base.repl != 0 {
		t.Fatalf("%s: fault-free run has %d answers (ground truth %d) and %d replacements", x.name, len(base.answers), len(x.truth), base.repl)
	}
	if x.lent && base.dials != 1 {
		t.Fatalf("%s: the fault-free run dialled %d sessions, want 1 reused", x.name, base.dials)
	}
	return base, s.Trace()
}

// holds runs x under the faults and reports how the run departs from the
// invariants, nil when it does not. A lie at a gather must come back as
// the liar's error about the arity; anything else must be invisible but
// for the replacements, one per fault that takes a worker down — and, for
// a fault at the reset between two executions, one dial more: a session
// whose reset failed is closed, never lent again.
func (x exploration) holds(kind string, p int, base outcome, faults ...disttest.Fault) (outcome, error) {
	out, s, err := x.trial(kind, p, faults...)
	down, resets, dials, lost := 0, 0, base.dials, make(map[int]bool)
	for _, f := range faults {
		if f.Op == dist.OpReset {
			if f.N == 0 {
				dials = base.dials + 1
			}
			if f.Kind <= disttest.Stall {
				resets++
			}
			continue
		}
		if f.Kind == disttest.Lie {
			var liar *dist.WorkerError
			if !errors.As(err, &liar) || liar.Worker != f.Worker || !strings.Contains(liar.Err.Error(), "arity") {
				return out, fmt.Errorf("a lie came back as %d answers and error %v, want worker %d's arity error", len(out.answers), err, f.Worker)
			}
			return out, nil
		}
		if f.Kind <= disttest.Stall {
			down++
			lost[f.Worker] = true
		}
	}
	switch {
	case err != nil:
		return out, err
	case !sameTuples(out.answers, x.truth):
		return out, fmt.Errorf("%d answers, ground truth %d", len(out.answers), len(x.truth))
	case !reflect.DeepEqual(out.rounds, base.rounds):
		return out, fmt.Errorf("round stats differ from the fault-free run:\n got %+v\nwant %+v", out.rounds, base.rounds)
	case s.Kills() != down+resets || out.repl != down:
		return out, fmt.Errorf("%d faults took a worker down and %d workers were replaced, want %d and %d", s.Kills(), out.repl, down+resets, down)
	case out.dials != dials:
		return out, fmt.Errorf("the pool opened %d sessions, want %d", out.dials, dials)
	case out.epochs != down || down > 0 && !out.fenced:
		return out, fmt.Errorf("%d epoch steps for %d replacements, the last reaching the whole pool: %v", out.epochs, down, out.fenced)
	}
	for w, n := range base.effects {
		if !lost[w] && out.effects[w] != n {
			return out, fmt.Errorf("worker %d was never lost and met %d deliver, delta, join and attach steps, %d in the fault-free run", w, out.effects[w], n)
		}
	}
	return out, nil
}

// point is one or two faults and where they sit.
type point struct {
	name   string
	faults []disttest.Fault
}

// explore puts a fault at every step x sends to every worker — every
// keep-th of them when sampling — and at a few pairs drawn by rng, and
// returns how many points it ran and how many of them fault a reset.
func (x exploration) explore(t *testing.T, kind string, p int, rng *rand.Rand, keep int) (n, resets int) {
	before := runtime.NumGoroutine()
	base, trace := x.baseline(t, kind, p)
	name := func(s disttest.Site, w int, k disttest.FaultKind) string {
		return fmt.Sprintf("s%d.%d-%s/w%d/%s", s.Script, s.Index, s.Kind, w, k)
	}
	var points []point
	for _, site := range trace {
		for w, n := range site.N {
			for k := disttest.KillBefore; k <= disttest.Lie; k++ {
				if n >= 0 && (k != disttest.Lie || site.Kind == dist.OpGather || site.Kind == dist.OpReset) && rng.IntN(keep) == 0 {
					points = append(points, point{name(site, w, k), []disttest.Fault{site.On(w, k)}})
				}
			}
		}
	}
	// Second order: a first fault anywhere and, in the run it heals, a
	// second one — in the first worker's own replay (even i), or on another
	// worker in the script the first fired in (odd i).
	for i := 0; i < 6; i++ {
		site, w := trace[rng.IntN(len(trace))], rng.IntN(p)
		first, k := site.On(w, disttest.FaultKind(rng.IntN(2))), disttest.FaultKind(rng.IntN(3))
		_, s, _ := x.trial(kind, p, first)
		var sites []disttest.Site
		for _, at := range s.Trace() {
			if i%2 == 0 && at.Only == w || i%2 == 1 && at.Only < 0 && at.Script == site.Script {
				sites = append(sites, at)
			}
		}
		if i%2 == 1 {
			w = (w + 1 + rng.IntN(p-1)) % p
		}
		if len(sites) == 0 {
			continue // a failed reset is not healed: there is no replay
		}
		if at := sites[rng.IntN(len(sites))]; at.N[w] >= 0 {
			points = append(points, point{name(site, first.Worker, first.Kind) + "+" + name(at, w, k), []disttest.Fault{first, at.On(w, k)}})
		}
	}

	// Points are independent — each builds its own world. Those without a
	// stall are work, and run a few at a time; a stall mostly waits out its
	// bound, so those run many at a time, once the others are out of the way:
	// a busy machine is what makes a healthy script miss the bound too.
	var running sync.WaitGroup
	for _, phase := range []struct {
		stalls bool
		width  int
	}{{false, 4}, {true, 32}} {
		slots := make(chan struct{}, phase.width)
		for _, pt := range points {
			if slices.ContainsFunc(pt.faults, func(f disttest.Fault) bool { return f.Kind == disttest.Stall }) != phase.stalls {
				continue
			}
			running.Add(1)
			slots <- struct{}{}
			go func() {
				defer func() { <-slots; running.Done() }()
				if _, err := x.holds(kind, p, base, pt.faults...); err != nil {
					t.Errorf("%s/%s %s: %v", x.name, kind, pt.name, err)
				}
			}()
		}
		running.Wait()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s/%s: %d goroutines before the pools opened, %d after the last closed", x.name, kind, before, runtime.NumGoroutine())
			break
		}
	}
	for _, pt := range points {
		if slices.ContainsFunc(pt.faults, func(f disttest.Fault) bool { return f.Op == dist.OpReset }) {
			resets++
		}
	}
	return len(points), resets
}

// explorations builds the twelve execution kinds at p workers and test
// sizes: the three engines, a Datalog fixpoint, a maintainer batch, two
// executions on one reused session, a maintainer batch on the session a
// query parked, a warm operation on resident scatters under the grid
// and under the skew routing, and the three engines gathering only the
// first rows of their answers.
func explorations(t *testing.T, p int) []exploration {
	var xs []exploration
	for _, eng := range recoveryEngines(t, p) {
		xs = append(xs, eng.exploration)
	}

	// Datalog: the closure of a path — eight delta rounds, each a script of
	// the recursive rule's session-long distribution, the one session the
	// program dials (its base rule reads one atom and runs no round).
	const nodes = 9
	edges := relation.New("e", "a", "b")
	var closure []relation.Tuple
	for i := 1; i < nodes; i++ {
		edges.Tuples = append(edges.Tuples, relation.Tuple{i, i + 1})
		for j := i + 1; j <= nodes; j++ {
			closure = append(closure, relation.Tuple{i, j})
		}
	}
	graph := relation.NewDatabase(nodes)
	graph.AddRelation(edges)
	tc := datalog.MustParse("tc(x, y) :- e(x, y). tc(x, z) :- tc(x, y), e(y, z). ?- tc(x, y).")
	xs = append(xs, exploration{name: "datalog", truth: closure, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		res, err := datalog.Eval(tc, graph, datalog.Options{P: p, Seed: 5, Recovery: rec,
			Dial: func(int) (dist.Transport, error) { return behind(s, dial()), nil }})
		if err != nil {
			return outcome{}, err
		}
		if res.Iterations < 5 {
			return outcome{}, fmt.Errorf("the fixpoint took %d iterations, the explorer wants at least 5", res.Iterations)
		}
		return outcome{answers: res.Run.Tuples(), rounds: res.Stats.Rounds, repl: res.Replacements}, nil
	}})

	// Maintainer: the cold round, then one batch that retracts three
	// answers and extends all three relations into a new one.
	mq := query.Cycle(3)
	before, after := relation.IdentityDatabase(mq, 60), relation.IdentityDatabase(mq, 60)
	batch := make(map[string]relation.Effect)
	for i, add := range []relation.Tuple{{5, 6}, {6, 7}, {7, 5}} {
		name := mq.Atoms[i].Name
		eff, rel := relation.Effect{Added: relation.RunOf(2, []relation.Tuple{add})}, after.Relations[name]
		if i == 0 {
			eff.Removed, rel.Tuples = relation.RunOf(2, rel.Tuples[:3]), rel.Tuples[3:]
		}
		rel.Tuples = append(rel.Tuples, add)
		batch[name] = eff
	}
	maintained, err := core.GroundTruth(mq, after)
	if err != nil {
		t.Fatal(err)
	}
	xs = append(xs, exploration{name: "maintainer", truth: maintained, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		m, err := hypercube.NewMaintainer(mq, before, p, hypercube.Options{Seed: 23, Transport: behind(s, dial()), Recovery: rec})
		if err != nil {
			return outcome{}, err
		}
		defer m.Close()
		if _, err := m.ApplyDelta(batch); err != nil {
			return outcome{}, err
		}
		return outcome{answers: m.Answers().Tuples(), rounds: m.Outcome().Stats.Rounds, repl: m.Outcome().Replacements}, nil
	}})

	// Reuse: the cold triangle on the maintainer's first database, then on
	// its second — same stores, other runs — on one session a pool parks
	// between them, behind a reset the schedule meets like any other step.
	cold, err := core.GroundTruth(mq, before)
	if err != nil {
		t.Fatal(err)
	}
	xs = append(xs, exploration{name: "reuse", truth: maintained, lent: true, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		var out outcome
		for i, db := range []*relation.Database{before, after} {
			tr := behind(s, dial())
			res, err := hypercube.Run(mq, db, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
			tr.Close()
			if err != nil {
				return outcome{}, err
			}
			out.answers, out.rounds, out.repl = res.Run.Tuples(), append(out.rounds, res.Stats.Rounds...), out.repl+res.Replacements
			if i == 0 && !sameTuples(out.answers, cold) {
				return outcome{}, fmt.Errorf("the first execution has %d answers, ground truth %d", len(out.answers), len(cold))
			}
		}
		return out, nil
	}})

	// Maintainer on a lent session: the reuse kind's lending, the
	// maintainer kind's script — its cold round and batch run on the
	// session the query before it parked, as a service's continuous query
	// does on a worker pool.
	xs = append(xs, exploration{name: "maintainer-reuse", truth: maintained, lent: true, run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
		tr := behind(s, dial())
		res, err := hypercube.Run(mq, before, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
		tr.Close()
		if err != nil {
			return outcome{}, err
		}
		if got := res.Run.Tuples(); !sameTuples(got, cold) {
			return outcome{}, fmt.Errorf("the query has %d answers, ground truth %d", len(got), len(cold))
		}
		m, err := hypercube.NewMaintainer(mq, before, p, hypercube.Options{Seed: 23, Transport: behind(s, dial()), Recovery: rec})
		if err != nil {
			return outcome{}, err
		}
		defer m.Close()
		if _, err := m.ApplyDelta(batch); err != nil {
			return outcome{}, err
		}
		return outcome{answers: m.Answers().Tuples(), rounds: append(res.Stats.Rounds, m.Outcome().Stats.Rounds...), repl: res.Replacements + m.Outcome().Replacements}, nil
	}})

	// Resident: the cold triangle again, and the skew case's join, each as
	// the third sighting of one dataset version (resident_test.go) — an
	// attach script, then barrier, join and gather.
	pl, err := plan.Build(mq, before.Stats(), plan.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	xs = append(xs, residentCase{q: mq, db: before, pl: pl, truth: cold}.exploration())
	resident := residentCases(t, p)[3].exploration()
	resident.name = "resident-skew"
	xs = append(xs, resident)

	// Prefix: L4 at ε = 0 on the multiround engine, C3 on one round and
	// the skew engine on the bag input's split, repeated hub, each asked
	// for its first three answers — the workers stream three rows each at
	// the answer gather and count the rest; what comes back must be the
	// ground truth's count and first three rows.
	prefix := map[string]string{"L4/matching": "prefix-L4", "C3/matching": "prefix-C3", "skew/bag": "prefix-skew"}
	for _, c := range append(prefixCases(t, p), skewBagCase(t, p)) {
		name, ok := prefix[c.name]
		if !ok {
			continue
		}
		const limit = 3
		xs = append(xs, exploration{name: name, truth: firstRows(c.truth, limit), run: func(dial func() dist.Transport, s *disttest.Schedule, rec dist.RecoveryOptions) (outcome, error) {
			return c.execute(behind(s, dial()), rec, limit)
		}})
	}
	return xs
}

// lend returns a dial that lends sessions on pool the way dist.Registry
// does — the session the last execution closed, parked after a reset that
// meets s like any other step, or a new one when there is none — how many
// it opened, and a stop that returns once the last reset has settled.
// Over TCP it is a Registry; a loopback pool has a parkingLot in its place.
func lend(pool residentPool, s *disttest.Schedule) (dial func() dist.Transport, opened func() int, stop func()) {
	tcp, ok := pool.(*tcpPool)
	if !ok {
		lot := &parkingLot{pool: pool, s: s}
		return lot.borrow, func() int { return lot.opened }, func() {}
	}
	reg := dist.NewRegistry(tcp.addrs, nil)
	reg.ResetBehind(func(tr dist.Transport) dist.Transport { return s.Wrap(tr) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Run(ctx, time.Hour)
	}()
	var n atomic.Int64
	return func() dist.Transport {
			tr, _, err := reg.Session(context.Background())
			if err != nil {
				panic(err)
			}
			if !tr.Reused() {
				n.Add(1)
			}
			return tr
		}, func() int { return int(n.Load()) }, sync.OnceFunc(func() {
			cancel()
			<-done
		})
}

// parkingLot lends loopback sessions one execution at a time, as a
// Registry lends TCP ones: closing a session resets it behind the
// schedule, and parks it when the reset succeeded.
type parkingLot struct {
	pool   residentPool
	s      *disttest.Schedule
	parked *dist.Loopback
	opened int
}

func (l *parkingLot) borrow() dist.Transport {
	lb := l.parked
	if l.parked = nil; lb == nil {
		lb, l.opened = l.pool.session().(*dist.Loopback), l.opened+1
	}
	return parkedLoopback{lb, l}
}

// parkedLoopback is a session of a parkingLot.
type parkedLoopback struct {
	*dist.Loopback
	lot *parkingLot
}

// Close resets the session, bounded like a stalled step, and parks it.
func (lb parkedLoopback) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), stallBound)
	defer cancel()
	if _, err := lb.lot.s.Wrap(lb.Loopback).Run(ctx, []dist.Op{{Kind: dist.OpReset}}); err == nil {
		lb.lot.parked = lb.Loopback
	}
	return nil
}

// TestExplore runs the explorer over the twelve execution kinds on both
// transports at p = 4: every point, or under -short one in eight of them,
// plus six sampled pairs per kind and transport. The seed is logged; a
// failure names its point, and the exhaustive run is deterministic.
func TestExplore(t *testing.T) {
	const p = 4
	seed, keep := uint64(time.Now().UnixNano()), 1
	if testing.Short() {
		keep = 8
	}
	t.Logf("seed %d, one point in %d", seed, keep)
	for _, x := range explorations(t, p) {
		for _, kind := range []string{"loopback", "tcp"} {
			t.Run(x.name+"/"+kind, func(t *testing.T) {
				n, resets := x.explore(t, kind, p, rand.New(rand.NewPCG(seed, 0)), keep)
				t.Logf("%d points explored, %d of them at a reset", n, resets)
			})
		}
	}
}
