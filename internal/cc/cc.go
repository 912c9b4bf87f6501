// Package cc studies CONNECTED-COMPONENTS in the tuple-based MPC(ε)
// model (Theorem 4.10 of Beame, Koutris, Suciu, PODS 2013).
//
// The theorem's lower bound reduces L_k (k = ⌊p^δ⌋) to connected
// components on a layered graph: k+1 layers of n/(k+1) vertices with a
// permutation between adjacent layers, so every component is a path
// that crosses all layers — one output tuple of L_k. Any tuple-based
// algorithm therefore needs Ω(log p) rounds on such sparse inputs.
//
// The package implements the layered-graph family, two tuple-based
// label-propagation algorithms (neighbor-min, which needs Θ(diameter)
// rounds, and a hash-to-min variant that converges in Θ(log diameter)
// rounds), and the dense-graph contrast: when a single server may
// receive the whole input (the regime of Karloff et al.), two rounds
// suffice.
//
// The rounds run on the same cluster as every query engine
// (dist.Cluster, on its in-process loopback): per-vertex state is kept
// at the vertex's owner, a round is one scatter of that round's
// messages hashed to their target's owner, and the cluster accounts
// what each worker receives against the c·N/p^{1−ε} budget.
package cc

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// Graph is an undirected graph over vertices 1..N with an edge list.
type Graph struct {
	// N is the number of vertices.
	N int
	// Edges holds each undirected edge once, as (u,v) tuples.
	Edges [][2]int
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// EdgeRelation returns the graph as a binary relation with both
// orientations of every edge, the form consumed by the MPC algorithms.
func (g *Graph) EdgeRelation() *relation.Relation {
	r := relation.New("E", "u", "v")
	for _, e := range g.Edges {
		r.Tuples = append(r.Tuples, relation.Tuple{e[0], e[1]})
		r.Tuples = append(r.Tuples, relation.Tuple{e[1], e[0]})
	}
	return r
}

// InputBits returns the encoding size of the edge list.
func (g *Graph) InputBits() int64 {
	return int64(len(g.Edges)) * 2 * int64(relation.BitsPerValue(g.N))
}

// Layered builds the Theorem 4.10 input family: layers+1 layers of
// width vertices each, a uniform random permutation matching between
// adjacent layers. Every connected component is a path visiting all
// layers, so the graph has exactly width components and diameter
// layers.
func Layered(rng *rand.Rand, layers, width int) (*Graph, error) {
	if layers < 1 || width < 1 {
		return nil, fmt.Errorf("cc: layers = %d, width = %d; need ≥ 1", layers, width)
	}
	g := &Graph{N: (layers + 1) * width}
	vertex := func(layer, i int) int { return layer*width + i + 1 }
	for l := 0; l < layers; l++ {
		perm := rng.Perm(width)
		for i := 0; i < width; i++ {
			g.Edges = append(g.Edges, [2]int{vertex(l, i), vertex(l+1, perm[i])})
		}
	}
	return g, nil
}

// RandomSparse builds a random graph with n vertices and m edges
// (duplicates allowed, self-loops excluded).
func RandomSparse(rng *rand.Rand, n, m int) (*Graph, error) {
	if n < 2 || m < 0 {
		return nil, fmt.Errorf("cc: n = %d, m = %d", n, m)
	}
	g := &Graph{N: n}
	for len(g.Edges) < m {
		u := rng.IntN(n) + 1
		v := rng.IntN(n) + 1
		if u == v {
			continue
		}
		g.Edges = append(g.Edges, [2]int{u, v})
	}
	return g, nil
}

// SequentialComponents labels every vertex with the smallest vertex id
// of its component using union-find — the ground truth.
func SequentialComponents(g *Graph) map[int]int {
	parent := make([]int, g.N+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		ru, rv := find(e[0]), find(e[1])
		if ru != rv {
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
	}
	// Label every vertex with its component's minimum vertex id.
	labels := make(map[int]int, g.N)
	minRep := make(map[int]int)
	for v := 1; v <= g.N; v++ {
		r := find(v)
		if m, ok := minRep[r]; !ok || v < m {
			minRep[r] = v
		}
	}
	for v := 1; v <= g.N; v++ {
		labels[v] = minRep[find(v)]
	}
	return labels
}

// Algorithm selects the label-propagation strategy.
type Algorithm int

// Available connected-components strategies.
const (
	// NeighborMin floods the minimum label along edges, one hop per
	// round: Θ(diameter) rounds.
	NeighborMin Algorithm = iota
	// HashToMin maintains per-vertex cluster sets and contracts them
	// toward the minimum, doubling reach per round: Θ(log diameter)
	// rounds on paths.
	HashToMin
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NeighborMin:
		return "neighbor-min"
	case HashToMin:
		return "hash-to-min"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures an MPC connected-components run.
type Options struct {
	// Workers is p.
	Workers int
	// Epsilon is the space exponent for the receive cap.
	Epsilon float64
	// CapConstant is c; ≤ 0 disables enforcement.
	CapConstant float64
	// MaxRounds aborts runaway propagation (0 means 4·N, effectively
	// unbounded for correct algorithms).
	MaxRounds int
	// Seed drives vertex-to-worker placement.
	Seed uint64
}

// Result reports a run.
type Result struct {
	// Labels maps every vertex to its component label (the component's
	// minimum vertex id).
	Labels map[int]int
	// Rounds is the number of communication rounds used, including the
	// initial edge distribution round.
	Rounds int
	// Outcome holds the communication record and whether the receive
	// budget was violated.
	dist.Outcome
}

// Run executes the chosen algorithm on g in the tuple-based MPC(ε)
// model and returns per-vertex component labels.
func Run(g *Graph, algo Algorithm, opts Options) (*Result, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("cc: Workers = %d", opts.Workers)
	}
	switch algo {
	case NeighborMin:
		return runNeighborMin(g, opts)
	case HashToMin:
		return runHashToMin(g, opts)
	default:
		return nil, fmt.Errorf("cc: unknown algorithm %v", algo)
	}
}

// session is one execution on the cluster. Every communication round
// is one lone scatter of that round's messages; a receive-cap violation
// does not end the run — the cluster's Outcome records it — so
// experiments can report the loads of an over-budget algorithm.
type session struct {
	cluster *dist.Cluster
	ctx     context.Context
	opts    Options
}

func open(g *Graph, opts Options) (*session, error) {
	cluster, ctx, err := dist.Open(dist.Options{}, mpc.Config{
		Workers:     opts.Workers,
		Epsilon:     opts.Epsilon,
		InputBits:   g.InputBits(),
		CapConstant: opts.CapConstant,
		DomainN:     g.N,
	})
	if err != nil {
		return nil, err
	}
	return &session{cluster: cluster, ctx: ctx, opts: opts}, nil
}

// owner assigns vertices to workers by hash — the placement toOwner
// routes by, so a worker's state holds exactly the vertices whose
// messages it receives.
func (s *session) owner(v int) int {
	return exchange.HashDest(v, s.opts.Seed, s.opts.Workers)
}

// toOwner routes a tuple to the owner of the vertex in its first
// column: edges to their source endpoint, messages to their target.
func (s *session) toOwner() exchange.Partitioner {
	return exchange.HashPartitioner{Col: 0, P: s.opts.Workers, Seed: s.opts.Seed}
}

// round sends msgs through part as one communication round.
func (s *session) round(msgs *relation.Relation, part exchange.Partitioner) error {
	if err := s.cluster.Scatter(s.ctx, msgs, "", part); !errors.Is(err, mpc.ErrCapExceeded) {
		return err
	}
	return nil
}

func (s *session) result(labels map[int]int) *Result {
	return &Result{
		Labels:  labels,
		Rounds:  s.cluster.Stats().NumRounds(),
		Outcome: s.cluster.Outcome(),
	}
}

func maxRounds(g *Graph, opts Options) int {
	if opts.MaxRounds > 0 {
		return opts.MaxRounds
	}
	return 4*g.N + 8
}

// runNeighborMin: edges are distributed to the owner of their source
// endpoint; every round each worker sends, for each held edge (u,v),
// the current label of u to the owner of v. Labels only decrease;
// the algorithm stops one round after no label changes.
func runNeighborMin(g *Graph, opts Options) (*Result, error) {
	p := opts.Workers
	s, err := open(g, opts)
	if err != nil {
		return nil, err
	}
	// Round 1: distribute both edge orientations to the source owner.
	edges := g.EdgeRelation()
	if err := s.round(edges, s.toOwner()); err != nil {
		return nil, err
	}
	// Per-worker state: adjacency and labels of owned vertices.
	adj := make([]map[int][]int, p)
	labels := make([]map[int]int, p)
	for i := 0; i < p; i++ {
		adj[i] = make(map[int][]int)
		labels[i] = make(map[int]int)
	}
	for _, t := range edges.Tuples {
		i := s.owner(t[0])
		adj[i][t[0]] = append(adj[i][t[0]], t[1])
		labels[i][t[0]] = t[0]
	}
	limit := maxRounds(g, opts)
	for round := 0; round < limit; round++ {
		// Every worker proposes labels to neighbors: (target, label).
		props := relation.New("prop", "v", "label")
		for i := 0; i < p; i++ {
			for u, ns := range adj[i] {
				lbl := labels[i][u]
				for _, v := range ns {
					props.Tuples = append(props.Tuples, relation.Tuple{v, lbl})
				}
			}
		}
		if err := s.round(props, s.toOwner()); err != nil {
			return nil, err
		}
		// Each owner applies the proposals it received (local
		// computation).
		changed := false
		for _, t := range props.Tuples {
			v, lbl := t[0], t[1]
			own := labels[s.owner(v)]
			if cur, ok := own[v]; ok && lbl < cur {
				own[v] = lbl
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make(map[int]int, g.N)
	for i := 0; i < p; i++ {
		for v, l := range labels[i] {
			out[v] = l
		}
	}
	return s.result(out), nil
}

// runHashToMin: every vertex v keeps a cluster set C(v), initially
// {v} ∪ neighbors. Each round v sends min C(v) to every u ∈ C(v) and
// C(v) to the owner of min C(v); sets then absorb what arrived.
// On path graphs the reach doubles each round.
func runHashToMin(g *Graph, opts Options) (*Result, error) {
	p := opts.Workers
	s, err := open(g, opts)
	if err != nil {
		return nil, err
	}
	edges := g.EdgeRelation()
	if err := s.round(edges, s.toOwner()); err != nil {
		return nil, err
	}
	sets := make([]map[int]map[int]bool, p) // worker → vertex → cluster set
	for i := 0; i < p; i++ {
		sets[i] = make(map[int]map[int]bool)
	}
	// absorb adds member to C(v) at v's owner.
	absorb := func(v, member int) bool {
		own := sets[s.owner(v)]
		if own[v] == nil {
			own[v] = map[int]bool{v: true}
		}
		if own[v][member] {
			return false
		}
		own[v][member] = true
		return true
	}
	for _, t := range edges.Tuples {
		absorb(t[0], t[1])
	}
	limit := maxRounds(g, opts)
	for round := 0; round < limit; round++ {
		// Send the minimum to every member, and every member to the
		// minimum. Tuples are (targetVertex, member).
		msgs := relation.New("h2m", "v", "member")
		for i := 0; i < p; i++ {
			for v, set := range sets[i] {
				mn := minOf(v, set)
				for u := range set {
					if u != mn {
						msgs.Tuples = append(msgs.Tuples, relation.Tuple{u, mn}, relation.Tuple{mn, u})
					}
				}
			}
		}
		if err := s.round(msgs, s.toOwner()); err != nil {
			return nil, err
		}
		changed := false
		for _, t := range msgs.Tuples {
			if absorb(t[0], t[1]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Vertices may appear in several workers' sets; keep the minimum.
	final := make(map[int]int, g.N)
	for i := 0; i < p; i++ {
		for v, set := range sets[i] {
			mn := minOf(v, set)
			if cur, ok := final[v]; !ok || mn < cur {
				final[v] = mn
			}
		}
	}
	return s.result(final), nil
}

// minOf returns the smallest vertex of {v} ∪ set.
func minOf(v int, set map[int]bool) int {
	mn := v
	for u := range set {
		if u < mn {
			mn = u
		}
	}
	return mn
}

// DenseTwoRound is the Karloff-et-al contrast: when the receive budget
// admits the entire input at one server (dense regime / ε = 1), the
// whole edge list is sent to worker 0 in round one, labels are
// computed locally, and round two distributes the labels back to the
// vertices' owners. Exactly two communication rounds.
func DenseTwoRound(g *Graph, opts Options) (*Result, error) {
	s, err := open(g, opts)
	if err != nil {
		return nil, err
	}
	// Round 1: a hash onto a single bucket sends everything to worker 0.
	edges := g.EdgeRelation()
	if err := s.round(edges, exchange.HashPartitioner{Col: 0, P: 1}); err != nil {
		return nil, err
	}
	// Worker 0 computes components locally.
	sub := &Graph{N: g.N}
	for _, t := range edges.Tuples {
		if t[0] < t[1] {
			sub.Edges = append(sub.Edges, [2]int{t[0], t[1]})
		}
	}
	labels := SequentialComponents(sub)
	// Round 2: worker 0 sends (v, label) to the owner of v.
	msgs := relation.New("label", "v", "label")
	for v, l := range labels {
		msgs.Tuples = append(msgs.Tuples, relation.Tuple{v, l})
	}
	if err := s.round(msgs, s.toOwner()); err != nil {
		return nil, err
	}
	return s.result(labels), nil
}
