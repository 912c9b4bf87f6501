package datalog

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/disttest"
)

// factsDigest fingerprints every derived predicate's fact set, in
// predicate order.
func factsDigest(res *Result) string {
	preds := make([]string, 0, len(res.Facts))
	for pred := range res.Facts {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	h := fnv.New64a()
	for _, pred := range preds {
		fmt.Fprintf(h, "%s%v", pred, res.Facts[pred].Tuples())
	}
	fmt.Fprintf(h, "%v", res.Run.Tuples())
	return fmt.Sprintf("%016x", h.Sum64())
}

// roundsDigest fingerprints a program's communication record, every
// round's per-worker vectors included.
func roundsDigest(res *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d%+v", res.Iterations, res.Stats.Rounds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFixpointRecorded pins what the semi-naive loop derives and what
// the model charges for it: closure, even/odd mutual recursion, an
// aggregate over a recursive stratum and a predicate with two recursive
// rules, on loopback and on TCP sessions, fault-free and with worker 1 of
// the first recursive rule's execution killed at its second delta round
// and healed (the schedules of TestDatalogRecoversWorker and
// TestDatalogRecoversWorkerFused) — one digest of each kind for every
// variant. The facts digests were recorded when every recursive rule ran
// on a hypercube.Maintainer that kept — and diffed against — its own copy
// of the body's answer. The rounds digests were
// re-recorded when the closure moved to the workers: on these random
// graphs a rule derives facts already known, which the receivers now
// drop where the coordinator used to, so the servers receive candidates
// rather than Δ and each stratum runs one more round, the relay that
// finds nothing new (CHANGES.md has the table). They were re-recorded
// again when a one-atom rule stopped costing a round: each is the
// previous record without the base rule's execution (one round) and, for
// the aggregate over recursion, without the aggregate rule's (one round
// more) — so the recursive distribution is now the first session a
// program dials.
func TestFixpointRecorded(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewPCG(9, 0))
	db := edgeDB(20, randomEdges(rng, 20, 36))
	for _, tc := range []struct {
		name, src string
		// session is the dial that opens the first recursive rule's
		// execution, the one that loses a worker.
		session       int
		facts, rounds string
	}{
		{"closure", tcProgram, 0, "4dc749e43cff6fce", "07653fc636d794f4"},
		{"mutual recursion", `
			odd(x, y) :- e(x, y).
			odd(x, z) :- even(x, y), e(y, z).
			even(x, z) :- odd(x, y), e(y, z).
			?- odd(x, y).`, 0, "9b8e336afe1a4f4d", "71d73bd828b6d6ff"},
		{"aggregate over recursion", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			reaches(x, count(y), max(y)) :- tc(x, y).
			?- reaches(x, n, m).`, 0, "d4b3313c1de65546", "07653fc636d794f4"},
		{"two recursive rules", `
			tc(x, y) :- e(x, y).
			tc(x, z) :- tc(x, y), e(y, z).
			tc(x, z) :- e(x, y), tc(y, z).`, 0, "4dc749e43cff6fce", "caf743f857c19ae0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustParse(tc.src)
			check := func(variant string, opts Options, replacements int) {
				t.Helper()
				opts.P, opts.Seed = p, 5
				res, err := Eval(prog, db, opts)
				if err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				if res.Replacements != replacements {
					t.Errorf("%s: %d workers replaced, want %d", variant, res.Replacements, replacements)
				}
				if got := factsDigest(res); got != tc.facts {
					t.Errorf("%s: facts digest %s, recorded %s", variant, got, tc.facts)
				}
				if got := roundsDigest(res); got != tc.rounds {
					t.Errorf("%s: rounds digest %s, recorded %s", variant, got, tc.rounds)
				}
			}
			healing := dist.RecoveryOptions{Enabled: true}

			check("loopback", Options{}, 0)
			check("tcp", Options{Dial: tcpDialer(startPool(t, p))}, 0)

			kill := disttest.NewSchedule(killAtSecondDelta(t, prog, db, p, tc.session)...)
			check("loopback healed", Options{Recovery: healing, Dial: onSession(tc.session, kill)}, 1)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			addrs := make([]string, p)
			for i := range addrs {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs[i] = ln.Addr().String()
				if i == 1 {
					// Bursts: hello, cold round, delta 1, delta 2.
					ln = &dyingListener{Listener: ln, session: tc.session, killAt: 3}
				}
				go dist.Serve(ctx, ln)
			}
			check("tcp healed", Options{Recovery: healing, Dial: tcpDialer(addrs)}, 1)
		})
	}
}

// TestClosureIsHeldOnce: at the shape of BenchmarkDatalogReach — 625
// disjoint paths of 16 edges, p = 16, a closure of 85 000 pairs reached
// in 15 iterations — one Eval allocates at most 18 MB (14.1 MB measured).
// The closure as a packed run is 0.68 MB. It is held once, on the
// workers: each grid cell keeps its share as the runs it absorbed, and
// merges them once, for the closure's gather. While the coordinator held
// it as well, and rewrote it every iteration, an Eval allocated 15.8 MB;
// a second maintained copy of it before that — the recursive rule's body
// answer, three columns, diffed and merged every iteration — cost about
// 10 MB more (31.3 MB).
func TestClosureIsHeldOnce(t *testing.T) {
	const paths, edges = 625, 16
	rng := rand.New(rand.NewPCG(43, 43))
	label := rng.Perm(paths * (edges + 1))
	var es [][2]int
	for p := 0; p < paths; p++ {
		path := label[p*(edges+1) : (p+1)*(edges+1)]
		for i := 0; i < edges; i++ {
			es = append(es, [2]int{path[i] + 1, path[i+1] + 1})
		}
	}
	db := edgeDB(len(label), es)
	prog := MustParse("tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z).")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Eval(prog, db, Options{P: 16, Seed: 7})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 15 || res.Run.Len() != paths*edges*(edges+1)/2 {
		t.Fatalf("%d iterations, %d answers: not the benchmark's shape", res.Iterations, res.Run.Len())
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 18+raceSlackMB {
		t.Errorf("one Eval allocated %.1f MB, want ≤ %d", mb, 18+raceSlackMB)
	}
}
