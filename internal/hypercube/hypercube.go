// Package hypercube implements the HyperCube (HC) algorithm of
// Section 3.1 of Beame, Koutris, Suciu (PODS 2013), the one-round
// upper bound of Theorem 1.1.
//
// Given a query q with fractional vertex cover v and τ = Σ v_i, each
// variable x_i receives a share exponent e_i = v_i/τ and a share
// p_i ≈ p^{e_i}; the p servers form a grid [p_1]×…×[p_k]. Independent
// hash functions h_i: [n] → [p_i] route every tuple of S_j to all grid
// points that agree with the tuple's hashed coordinates on vars(S_j);
// the tuple is replicated along the dimensions S_j does not mention.
// Every potential answer (a_1,…,a_k) is then seen, in one round, by
// the server (h_1(a_1),…,h_k(a_k)), which outputs it via a local join.
//
// The package also implements the answer-sampling variant of
// Proposition 3.11: when ε is below the query's space exponent, the
// full grid would need more than p servers, so p random grid points
// are materialized and only a Θ(p^{1−(1−ε)τ*}) fraction of the answers
// is found — exactly the fraction the Theorem 3.3 lower bound allows.
//
// delta.go keeps a cold run's grid distribution warm under delta
// batches, in two layers: a Distribution, which holds no answer
// (datalog's fixpoint drives it), and on top of it a Maintainer with the
// query's materialized answer (serve's continuous queries).
package hypercube

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
)

// Shares fixes the hypercube geometry: one integer share per variable.
type Shares struct {
	// Vars lists the query variables, in query.Vars() order.
	Vars []string
	// Dims holds the integer share p_i of each variable.
	Dims []int
}

// GridSize returns ∏ p_i, the number of grid points.
func (s *Shares) GridSize() int {
	size := 1
	for _, d := range s.Dims {
		size *= d
	}
	return size
}

// DimOf returns the grid dimension of variable v, or -1.
func (s *Shares) DimOf(v string) int {
	for i, sv := range s.Vars {
		if sv == v {
			return i
		}
	}
	return -1
}

// String renders the share vector.
func (s *Shares) String() string {
	out := "["
	for i, v := range s.Vars {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", v, s.Dims[i])
	}
	return out + "]"
}

// RoundingMode selects how real-valued shares p^{e_i} become integers.
type RoundingMode int

// Share rounding strategies (compared by BenchmarkShareRounding in the
// root bench_test.go).
const (
	// GreedyRounding floors the real shares and then greedily raises
	// the dimension with the largest deficit while the product stays
	// within p. This is the default.
	GreedyRounding RoundingMode = iota
	// FloorRounding floors the real shares and stops — the naive
	// baseline; it can leave much of the budget unused.
	FloorRounding
)

// ComputeShares turns share exponents into integer shares for p
// servers. exps must be non-negative; they are normally e_i = v_i/τ*
// and sum to 1, but callers may pass any exponent vector (the sampled
// variant of Prop 3.11 passes (1−ε)·v_i whose product target exceeds
// p — the grid is then larger than p, which the caller handles).
//
// budget is the grid-size budget (usually p). The greedy mode
// guarantees 1 ≤ ∏ p_i ≤ budget when Σ exps ≤ 1; when Σ exps > 1 the
// product targets budget^{Σ exps} instead.
func ComputeShares(vars []string, exps []float64, budget int, mode RoundingMode) (*Shares, error) {
	if len(vars) != len(exps) {
		return nil, fmt.Errorf("hypercube: %d vars but %d exponents", len(vars), len(exps))
	}
	if budget < 1 {
		return nil, fmt.Errorf("hypercube: budget %d < 1", budget)
	}
	sum := 0.0
	for _, e := range exps {
		if e < 0 {
			return nil, fmt.Errorf("hypercube: negative exponent %v", e)
		}
		sum += e
	}
	target := make([]float64, len(exps))
	for i, e := range exps {
		target[i] = math.Pow(float64(budget), e)
	}
	// The grid-size budget grows with the exponent sum (Prop 3.11 uses
	// Σ exps = (1−ε)τ* > 1).
	gridBudget := math.Pow(float64(budget), math.Max(1, sum))
	// Guard against float error pushing the budget below the target
	// product.
	gridBudget *= 1 + 1e-9

	dims := make([]int, len(exps))
	prod := 1.0
	for i, t := range target {
		dims[i] = int(t)
		if dims[i] < 1 {
			dims[i] = 1
		}
		prod *= float64(dims[i])
	}
	if mode == GreedyRounding {
		for {
			best := -1
			bestDeficit := 1.0
			for i := range dims {
				if exps[i] == 0 {
					continue
				}
				next := prod / float64(dims[i]) * float64(dims[i]+1)
				if next > gridBudget {
					continue
				}
				deficit := float64(dims[i]) / target[i] // < 1 means under target
				if deficit < bestDeficit {
					bestDeficit = deficit
					best = i
				}
			}
			if best < 0 || bestDeficit >= 1 {
				break
			}
			prod = prod / float64(dims[best]) * float64(dims[best]+1)
			dims[best]++
		}
	}
	return &Shares{Vars: append([]string(nil), vars...), Dims: dims}, nil
}

// SharesForQuery computes the canonical HC shares for q on p servers:
// e_i = v_i/τ* from the optimal fractional vertex cover.
func SharesForQuery(q *query.Query, p int, mode RoundingMode) (*Shares, error) {
	r, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	return ComputeShares(q.Vars(), r.ShareExponentFloats(), p, mode)
}

// Hasher maps domain values to grid coordinates, one independent hash
// per dimension.
type Hasher struct {
	seeds []uint64
	dims  []int
}

// NewHasher builds per-dimension hash functions from a master seed.
func NewHasher(s *Shares, seed uint64) *Hasher {
	h := &Hasher{dims: s.Dims, seeds: make([]uint64, len(s.Dims))}
	for i := range h.seeds {
		h.seeds[i] = exchange.Mix(uint64(i)+1, seed)
	}
	return h
}

// Coord returns h_i(value) ∈ [0, p_i).
func (h *Hasher) Coord(dim, value int) int {
	if h.dims[dim] == 1 {
		return 0
	}
	return int(exchange.Mix(uint64(value), h.seeds[dim]) % uint64(h.dims[dim]))
}

// GridPartitioner routes the tuples of one atom onto the hypercube
// grid: coordinates of the atom's variables are fixed by the hashes,
// all other dimensions range over their full shares. Its routing is
// the atom's exchange.Grid, the one a worker builds from the same spec;
// a sampled grid projects what the grid routes through the sample.
type GridPartitioner struct {
	*exchange.Grid
	sample map[int]int // optional grid point → server projection
}

// NewGridPartitioner precomputes the routing state for one atom: its
// variables' positions bind the dimensions the shares give them.
func NewGridPartitioner(s *Shares, h *Hasher, atom query.Atom) *GridPartitioner {
	var binds []exchange.GridBind
	for pos, v := range atom.Vars {
		if d := s.DimOf(v); d >= 0 {
			binds = append(binds, exchange.GridBind{Pos: pos, Dim: d})
		}
	}
	g, err := exchange.NewGrid(s.Dims, h.seeds, binds)
	if err != nil {
		panic(fmt.Sprintf("hypercube: shares %v: %v", s.Dims, err))
	}
	return &GridPartitioner{Grid: g}
}

// WithSample restricts routing to the materialized grid points of the
// Proposition 3.11 sampled algorithm: sample maps grid point → server,
// and tuples routed to unmaterialized points are dropped.
func (g *GridPartitioner) WithSample(sample map[int]int) *GridPartitioner {
	g.sample = sample
	return g
}

// PerDestination returns the tuples one grid point should expect of
// rows, each reaching Fanout of the grid's points; 0 on a sampled grid.
func (g *GridPartitioner) PerDestination(rows int) int {
	if g.sample != nil {
		return 0
	}
	return g.Grid.PerDestination(rows)
}

// Key implements exchange.Keyed: the grid's key. A sampled grid has no
// key.
func (g *GridPartitioner) Key() string {
	if g.sample != nil {
		return ""
	}
	return g.Grid.Key()
}

// Route implements exchange.Partitioner. It is stateless and safe for
// concurrent senders.
func (g *GridPartitioner) Route(i int, t relation.Tuple, buf []int) []int {
	start := len(buf)
	buf = g.Grid.Route(i, t, buf)
	if g.sample == nil {
		return buf
	}
	// Project through the sample, compacting in place.
	kept := start
	for _, gp := range buf[start:] {
		if srv, ok := g.sample[gp]; ok {
			buf[kept] = srv
			kept++
		}
	}
	return buf[:kept]
}

// Options configures a HyperCube run: the execution options every
// engine takes (see dist.Options). Epsilon is the MPC(ε) space
// exponent the receive budget is cut for — the query's 1−1/τ* is the
// paper's — and RunSampled also draws its grid points from Seed.
type Options = dist.Options

// open starts an execution's cluster: p workers under the MPC(ε)
// parameters of opts and db, in the environment opts carries. It is
// the one place this package opens a cluster.
func open(p int, db *relation.Database, opts Options) (*dist.Cluster, context.Context, error) {
	return dist.Open(opts, mpc.Config{Workers: p, Epsilon: opts.Epsilon, InputBits: db.InputBits(), CapConstant: opts.CapConstant, DomainN: db.N})
}

// Result reports a HyperCube execution.
type Result struct {
	// Answers is the union of the tuples output by all servers, as the
	// one sealed run the gather merged (nil when empty) — under a limit,
	// its first rows only.
	Answers *relation.Run
	// Count is how many rows the union holds, Answers or not.
	Count int
	dist.Outcome
	// Shares is the grid geometry used.
	Shares *Shares
	// ReceiveCap is the enforced per-worker budget in bits (0 = off).
	ReceiveCap int64
	// GridPoints is the number of materialized grid points (= servers
	// used; less than p when shares round down, p in RunSampled).
	GridPoints int
}

// Run executes the one-round HC algorithm for q over db on p servers
// and returns the answers found, under opts.AnswerLimit as
// RunWithShares (on matching databases this is the complete answer
// when ε ≥ 1−1/τ*).
func Run(q *query.Query, db *relation.Database, p int, opts Options) (*Result, error) {
	shares, err := SharesForQuery(q, p, GreedyRounding)
	if err != nil {
		return nil, err
	}
	return runWithShares(q, db, p, shares, opts, nil)
}

// RunWithShares is Run with caller-provided shares (the planner's, or a
// test's) that gathers only the first opts.AnswerLimit rows of the
// answer, as dist.Cluster.GatherPrefix does: 0 all of them, a negative
// limit none. Result.Count counts every answer either way.
func RunWithShares(q *query.Query, db *relation.Database, p int, shares *Shares, opts Options) (*Result, error) {
	return runWithShares(q, db, p, shares, opts, nil)
}

// RunSampled executes the Proposition 3.11 algorithm: shares use the
// exponents (1−ε)·v_i, producing a virtual grid of ~p^{(1−ε)τ*} > p
// points, of which p are chosen uniformly at random and assigned to
// the servers; tuples routed to unmaterialized points are dropped.
func RunSampled(q *query.Query, db *relation.Database, p int, opts Options) (*Result, error) {
	r, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	exps := make([]float64, q.NumVars())
	for i, v := range r.VertexCover {
		f, _ := v.Float64()
		exps[i] = (1 - opts.Epsilon) * f
	}
	shares, err := ComputeShares(q.Vars(), exps, p, GreedyRounding)
	if err != nil {
		return nil, err
	}
	grid := shares.GridSize()
	rng := rand.New(rand.NewPCG(opts.Seed, 0x5eed))
	var chosen map[int]int // grid point → server
	if grid <= p {
		chosen = make(map[int]int, grid)
		for g := 0; g < grid; g++ {
			chosen[g] = g
		}
	} else {
		chosen = make(map[int]int, p)
		perm := rng.Perm(grid)
		for srv := 0; srv < p; srv++ {
			chosen[perm[srv]] = srv
		}
	}
	return runWithShares(q, db, p, shares, opts, chosen)
}

// AnswersView is the reserved store name per-worker outputs of Round
// land under before the gather ("!" keeps it out of the query.Parse
// identifier space, so it cannot collide with a relation name).
const AnswersView = "hc!answers"

// runWithShares is the shared core. sample, when non-nil, maps
// materialized grid points to servers; nil materializes the whole grid
// (which must then fit in p).
func runWithShares(q *query.Query, db *relation.Database, p int, shares *Shares, opts Options, sample map[int]int) (*Result, error) {
	if sample == nil && shares.GridSize() > p {
		return nil, fmt.Errorf("hypercube: grid size %d exceeds %d servers", shares.GridSize(), p)
	}
	hasher := NewHasher(shares, opts.Seed)
	// Every server outputs only answers that hash to its own grid point
	// (a sampled one included), so the outputs are disjoint.
	res, err := RunRound(q, db, p, opts, func(a query.Atom) exchange.Partitioner {
		return NewGridPartitioner(shares, hasher, a).WithSample(sample)
	})
	if err != nil {
		return nil, err
	}
	res.Shares = shares
	res.GridPoints = shares.GridSize()
	if sample != nil && res.GridPoints > p {
		res.GridPoints = p
	}
	return res, nil
}

// RunRound runs one round end to end: it opens a cluster of p workers
// under opts over db, runs Round through part, and gathers the first
// opts.AnswerLimit answers as dist.Cluster.GatherPrefix does — 0 all of
// them, a negative limit none — with Result.Count counting every
// answer. part must give each answer to one server, so that the
// workers' sorted outputs are disjoint and the prefix gather's k-way
// merge counts and orders them right. The Result's grid fields are
// left for the caller.
func RunRound(q *query.Query, db *relation.Database, p int, opts Options, part func(query.Atom) exchange.Partitioner) (*Result, error) {
	cluster, ctx, err := open(p, db, opts)
	if err != nil {
		return nil, err
	}
	if err := Round(ctx, cluster, q, db, part); err != nil {
		return nil, err
	}
	merged, count, err := cluster.GatherPrefix(ctx, AnswersView, opts.AnswerLimit)
	if err != nil {
		return nil, err
	}
	return &Result{Answers: merged, Count: count, Outcome: cluster.Outcome(), ReceiveCap: cluster.Config().ReceiveCap()}, nil
}

// Round is the one-round executor: a one-shot run, a maintainer's cold
// distribution and the skew engine's round are each this round under
// their own partitioners. Every input server scatters the relation db
// binds to each atom through part(atom); then local computation (free
// in the MPC cost model): each worker joins what it received and keeps
// the result under AnswersView. A broken receive budget is the
// cluster's Outcome, not an error.
func Round(ctx context.Context, cluster *dist.Cluster, q *query.Query, db *relation.Database, part func(query.Atom) exchange.Partitioner) error {
	cluster.BeginRound()
	for _, a := range q.Atoms {
		rel, ok := db.Relation(a.Name)
		if !ok {
			return fmt.Errorf("hypercube: database missing relation %s", a.Name)
		}
		if err := cluster.Scatter(ctx, rel, a.Name, part(a)); err != nil {
			return err
		}
	}
	if err := cluster.EndRound(ctx); err != nil && !errors.Is(err, mpc.ErrCapExceeded) {
		return err
	}
	return cluster.Join(ctx, q, nil, AnswersView, 0)
}

// TheoreticalLoad returns the paper's per-server tuple bound for one
// relation under HC: n / p^{1/τ*} (proof of Proposition 3.2, with
// ε = 1−1/τ*).
func TheoreticalLoad(n, p int, tau float64) float64 {
	return float64(n) / math.Pow(float64(p), 1/tau)
}
