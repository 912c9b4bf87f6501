package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
)

// scale fixes the input sizes and repetition counts of a run. The
// benchmark always runs at fullScale; the smoke test shrinks every
// number so the whole protocol fits in a unit-test budget.
type scale struct {
	// P is the worker-pool size.
	P int
	// TriN, ChainN, SkewN and IngestN are tuples per relation.
	TriN, ChainN, SkewN, IngestN int
	// ReachPaths is the number of disjoint 16-edge paths of reach_warm.
	ReachPaths int
	// IngestCycles is the number of distinct pre-generated ingest_cold
	// cycle inputs the timed window rotates through.
	IngestCycles int
	// WarmUps is the number of untimed ops before the timed window.
	WarmUps int
	// SetupReps is how often set-up (phases 2–5) runs per untraced run;
	// setup_s is the median.
	SetupReps int
	// ProbeReps is the number of calls behind each layer-probe median.
	ProbeReps int
	// Replays is the number of traced in-process request replays.
	Replays int
}

var fullScale = scale{
	P: 16, TriN: 100000, ChainN: 40000, SkewN: 100000, IngestN: 30000,
	ReachPaths: 625, IngestCycles: 4, WarmUps: 5, SetupReps: 3, ProbeReps: 9, Replays: 5,
}

// reachPathEdges is the length of every reach_warm path; the fixpoint
// needs one semi-naive iteration per edge.
const reachPathEdges = 16

// reachProgram is the transitive-closure program reach_warm posts.
const reachProgram = "tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z)."

// workload is one named traffic shape. The names are fixed: later
// issues cite workloads and metrics by them.
type workload struct {
	name string
	// ingest marks the write workload, whose op is a whole
	// register → query → delta → query cycle on a fresh dataset.
	ingest bool
	gen    func(rng *rand.Rand, sc scale) (*inputs, error)
}

var workloads = []workload{
	{name: "tri_warm", gen: func(rng *rand.Rand, sc scale) (*inputs, error) {
		return genTriangle(rng, sc.TriN, 1)
	}},
	{name: "chain4_warm", gen: genChain},
	{name: "skew_warm", gen: genSkew},
	{name: "reach_warm", gen: genReach},
	{name: "ingest_cold", ingest: true, gen: func(rng *rand.Rand, sc scale) (*inputs, error) {
		return genTriangle(rng, sc.IngestN, sc.IngestCycles)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything one workload sends and expects, generated in
// the harness from the seed. The product only ever sees the CSV and
// JSON bodies.
type inputs struct {
	// req is the POST /query body without its dataset name.
	req serve.QueryRequest
	// q is the conjunctive query behind req; for the Datalog workload
	// it is the recursive rule's body, the query every fixpoint
	// iteration maintains, and probeDB binds it.
	q *query.Query
	// cycles holds one entry per distinct dataset the workload
	// registers: exactly one for the warm workloads, IngestCycles for
	// ingest_cold.
	cycles []*cycle
}

// cycle is one dataset with its reference answers, plus a 1 % replace
// delta and the reference answers after it.
type cycle struct {
	csv map[string]string
	// db is the harness's own parse of csv — the same tuples and domain
	// the server holds after POST /datasets.
	db *relation.Database
	// probeDB is db for conjunctive workloads; for reach_warm it adds
	// the first iteration's tc := e so the recursive body is bindable.
	probeDB *relation.Database
	want    []relation.Tuple
	delta   serve.DeltaRequest
	rdelta  relation.Delta
	// wantAfter is the reference after delta (ingest_cold only).
	wantAfter []relation.Tuple
}

// permutation returns a uniform permutation of [1, n].
func permutation(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	for i := range p {
		p[i]++
	}
	return p
}

// matching renders the permutation i → perm[i-1] as a binary relation.
func matching(name string, attrs []string, perm []int) *relation.Relation {
	r := relation.New(name, attrs...)
	r.Tuples = make([]relation.Tuple, len(perm))
	for i, v := range perm {
		r.Tuples[i] = relation.Tuple{i + 1, v}
	}
	return r
}

// genTriangle generates C3 over three random matchings. A random
// instance has one triangle in expectation, which would leave the
// answer check with nothing to compare, so n/1000 triangles (at least
// 3) are planted by rewiring S3 — every relation stays a matching.
func genTriangle(rng *rand.Rand, n, cycles int) (*inputs, error) {
	q, err := query.ParseFamily("C3")
	if err != nil {
		return nil, err
	}
	in := &inputs{req: serve.QueryRequest{Family: "C3"}, q: q}
	for c := 0; c < cycles; c++ {
		p1, p2, p3 := permutation(rng, n), permutation(rng, n), permutation(rng, n)
		inv3 := make([]int, n+1) // value → source of p3
		for i, v := range p3 {
			inv3[v] = i + 1
		}
		for _, x1 := range permutation(rng, n)[:max(3, n/1000)] {
			x3 := p2[p1[x1-1]-1]
			// Make S3 map x3 → x1 by swapping with the source that
			// currently maps to x1.
			j, old := inv3[x1], p3[x3-1]
			p3[x3-1], p3[j-1] = x1, old
			inv3[x1], inv3[old] = x3, j
		}
		rels := []*relation.Relation{
			matching("S1", q.Atoms[0].Vars, p1),
			matching("S2", q.Atoms[1].Vars, p2),
			matching("S3", q.Atoms[2].Vars, p3),
		}
		cy, err := newCycle(rng, q, rels, true)
		if err != nil {
			return nil, err
		}
		in.cycles = append(in.cycles, cy)
	}
	return in, nil
}

// genChain generates L4 over four random matchings: every x0 starts
// exactly one path, so the answer has n tuples.
func genChain(rng *rand.Rand, sc scale) (*inputs, error) {
	q, err := query.ParseFamily("L4")
	if err != nil {
		return nil, err
	}
	var rels []*relation.Relation
	for _, a := range q.Atoms {
		rels = append(rels, matching(a.Name, a.Vars, permutation(rng, sc.ChainN)))
	}
	cy, err := newCycle(rng, q, rels, false)
	if err != nil {
		return nil, err
	}
	return &inputs{req: serve.QueryRequest{Family: "L4", Epsilon: "0"}, q: q, cycles: []*cycle{cy}}, nil
}

// genSkew generates the two-atom join with a Zipf(1.3) first column on
// both relations, so the join variable is heavy in S and the planner
// must pick the skew-aware engine from the statistics. R's second
// column is a permutation: every join value occurs in R exactly once
// and the answer has |S| tuples whatever the seed. Were it drawn
// uniformly, the few R tuples that happen to hit S's heaviest values
// would move the answer between 0.5 n and 1.9 n from one seed to the
// next, and the latency with it.
func genSkew(rng *rand.Rand, sc scale) (*inputs, error) {
	const text = "q(x,y,z) = R(x,y), S(y,z)"
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	r := relation.SkewedZipf(rng, "R", []string{"x", "y"}, sc.SkewN, 1.3)
	for i, y := range permutation(rng, sc.SkewN) {
		r.Tuples[i][1] = y
	}
	rels := []*relation.Relation{r, relation.SkewedZipf(rng, "S", []string{"y", "z"}, sc.SkewN, 1.3)}
	cy, err := newCycle(rng, q, rels, false)
	if err != nil {
		return nil, err
	}
	return &inputs{req: serve.QueryRequest{Query: text}, q: q, cycles: []*cycle{cy}}, nil
}

// genReach generates ReachPaths disjoint directed paths of
// reachPathEdges edges over randomly labelled vertices. The reference
// closure is closed-form: every ordered pair along a path.
func genReach(rng *rand.Rand, sc scale) (*inputs, error) {
	q, err := query.Parse("tcstep(x,y,z) = tc(x,y), e(y,z)")
	if err != nil {
		return nil, err
	}
	const vertices = reachPathEdges + 1
	label := permutation(rng, sc.ReachPaths*vertices)
	e := relation.New("e", "x", "y")
	var want []relation.Tuple
	for p := 0; p < sc.ReachPaths; p++ {
		path := label[p*vertices : (p+1)*vertices]
		for i := 0; i < reachPathEdges; i++ {
			e.Tuples = append(e.Tuples, relation.Tuple{path[i], path[i+1]})
			for j := i + 1; j < vertices; j++ {
				want = append(want, relation.Tuple{path[i], path[j]})
			}
		}
	}
	rng.Shuffle(len(e.Tuples), func(i, j int) { e.Tuples[i], e.Tuples[j] = e.Tuples[j], e.Tuples[i] })
	cy, err := newCycle(rng, nil, []*relation.Relation{e}, false)
	if err != nil {
		return nil, err
	}
	cy.want = relation.DedupSort(want)
	tc := relation.New("tc", "x", "y")
	tc.Tuples = cy.db.Relations["e"].Tuples
	cy.probeDB = relation.NewDatabase(cy.db.N)
	cy.probeDB.AddRelation(tc)
	cy.probeDB.AddRelation(cy.db.Relations["e"])
	return &inputs{req: serve.QueryRequest{Program: reachProgram}, q: q, cycles: []*cycle{cy}}, nil
}

// newCycle renders rels to CSV, parses them back the way the server
// will, computes the reference answer of q (skipped when q is nil) and
// draws the 1 % replace delta; withAfter also computes the reference
// after the delta.
func newCycle(rng *rand.Rand, q *query.Query, rels []*relation.Relation, withAfter bool) (*cycle, error) {
	cy := &cycle{csv: make(map[string]string, len(rels))}
	for _, r := range rels {
		var sb strings.Builder
		if err := relation.WriteCSV(&sb, r); err != nil {
			return nil, err
		}
		cy.csv[r.Name] = sb.String()
	}
	var err error
	if cy.db, err = serve.DatabaseFromCSV(cy.csv); err != nil {
		return nil, err
	}
	cy.probeDB = cy.db
	if q != nil {
		if cy.want, err = reference(q, cy.db); err != nil {
			return nil, err
		}
	}
	after := cy.drawDelta(rng)
	if q != nil && withAfter {
		if cy.wantAfter, err = reference(q, after); err != nil {
			return nil, err
		}
	}
	return cy, nil
}

// reference computes q's answer on a single node with the pairwise
// hash join — a different algorithm from the cluster's worst-case
// optimal join — sorted and deduplicated like a reply.
func reference(q *query.Query, db *relation.Database) ([]relation.Tuple, error) {
	ans, err := core.GroundTruth(q, db)
	if err != nil {
		return nil, fmt.Errorf("reference answer of %s: %w", q.Name, err)
	}
	return relation.DedupSort(ans), nil
}

// drawDelta picks a random 1 % of every relation (at least one tuple)
// to delete and as many uniform tuples over the registered domain to
// append, fills both delta forms, and returns the database after the
// delta, applied by the harness itself.
func (cy *cycle) drawDelta(rng *rand.Rand) *relation.Database {
	cy.delta = serve.DeltaRequest{Appends: map[string][][]int{}, Deletes: map[string][][]int{}}
	cy.rdelta = relation.Delta{Appends: map[string][]relation.Tuple{}, Deletes: map[string][]relation.Tuple{}}
	after := relation.NewDatabase(cy.db.N)
	for _, name := range cy.db.Names() {
		r := cy.db.Relations[name]
		idx := rng.Perm(len(r.Tuples))[:max(1, len(r.Tuples)/100)]
		sort.Ints(idx)
		drop := make(map[int]bool, len(idx))
		for _, i := range idx {
			drop[i] = true
		}
		nr := relation.New(r.Name, r.Attrs...)
		for i, t := range r.Tuples {
			if !drop[i] {
				nr.Tuples = append(nr.Tuples, t)
			}
		}
		for _, i := range idx {
			cy.delta.Deletes[name] = append(cy.delta.Deletes[name], []int(r.Tuples[i]))
			cy.rdelta.Deletes[name] = append(cy.rdelta.Deletes[name], r.Tuples[i])
			t := make(relation.Tuple, r.Arity())
			for c := range t {
				t[c] = rng.IntN(cy.db.N) + 1
			}
			cy.delta.Appends[name] = append(cy.delta.Appends[name], []int(t))
			cy.rdelta.Appends[name] = append(cy.rdelta.Appends[name], t)
			nr.Tuples = append(nr.Tuples, t)
		}
		after.AddRelation(nr)
	}
	return after
}
