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
	"repro/internal/trace"
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

// hash64 is a splitmix64-style mixer: an independent-looking hash per
// (value, dimension-seed) pair.
func hash64(x, seed uint64) uint64 {
	z := x + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
		h.seeds[i] = hash64(uint64(i)+1, seed)
	}
	return h
}

// Coord returns h_i(value) ∈ [0, p_i).
func (h *Hasher) Coord(dim, value int) int {
	if h.dims[dim] == 1 {
		return 0
	}
	return int(hash64(uint64(value), h.seeds[dim]) % uint64(h.dims[dim]))
}

// Destinations lists the grid points that must receive a tuple of
// atom: coordinates of the atom's variables are fixed by the hashes,
// all other dimensions range over their full shares. It is a thin
// allocating wrapper around NewGridPartitioner; shuffle hot paths
// should build the partitioner once per atom and reuse a buffer.
func Destinations(s *Shares, h *Hasher, atom query.Atom, t relation.Tuple) []int {
	out := NewGridPartitioner(s, h, atom).Route(0, t, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// GridPartitioner routes the tuples of one atom onto the hypercube
// grid — the exchange.Partitioner form of Destinations. The variable →
// dimension bindings are resolved once at construction, and grid-point
// enumeration is iterative (mixed-radix expansion over the free
// dimensions into the caller's buffer) instead of the historic
// recursive closure, so routing a tuple allocates nothing once the
// buffer has capacity.
type GridPartitioner struct {
	dims    []int
	strides []int // stride[d] = ∏_{d' > d} dims[d']
	hasher  *Hasher
	binds   []gridBind
	free    []int       // free dims with dims[d] > 1, in dimension order
	fanout  int         // ∏ dims[free]
	sample  map[int]int // optional grid point → server projection
}

// gridBind fixes grid dimension dim from tuple position pos.
type gridBind struct{ pos, dim int }

// NewGridPartitioner precomputes the routing state for one atom.
func NewGridPartitioner(s *Shares, h *Hasher, atom query.Atom) *GridPartitioner {
	k := len(s.Dims)
	g := &GridPartitioner{dims: s.Dims, hasher: h, strides: make([]int, k), fanout: 1}
	stride := 1
	for d := k - 1; d >= 0; d-- {
		g.strides[d] = stride
		stride *= s.Dims[d]
	}
	bound := make([]bool, k)
	for pos, v := range atom.Vars {
		if d := s.DimOf(v); d >= 0 {
			g.binds = append(g.binds, gridBind{pos: pos, dim: d})
			bound[d] = true
		}
	}
	for d := 0; d < k; d++ {
		if !bound[d] && s.Dims[d] > 1 {
			g.free = append(g.free, d)
			g.fanout *= s.Dims[d]
		}
	}
	return g
}

// WithSample restricts routing to the materialized grid points of the
// Proposition 3.11 sampled algorithm: sample maps grid point → server,
// and tuples routed to unmaterialized points are dropped.
func (g *GridPartitioner) WithSample(sample map[int]int) *GridPartitioner {
	g.sample = sample
	return g
}

// Fanout returns the number of grid points a tuple replicates to
// (before sampling).
func (g *GridPartitioner) Fanout() int { return g.fanout }

// PerDestination returns the tuples one grid point should expect of
// rows, each reaching Fanout of the grid's points; 0 on a sampled grid.
func (g *GridPartitioner) PerDestination(rows int) int {
	if g.sample != nil {
		return 0
	}
	grid := g.strides[0] * g.dims[0]
	return (rows*g.fanout + grid - 1) / grid
}

// Key implements exchange.Keyed: shares, per-dimension hash seeds and
// position → dimension bindings. A sampled grid has no key.
func (g *GridPartitioner) Key() string {
	if g.sample != nil {
		return ""
	}
	return fmt.Sprint("grid", g.dims, g.hasher.seeds, g.binds)
}

// Route implements exchange.Partitioner. It is stateless and safe for
// concurrent senders.
func (g *GridPartitioner) Route(_ int, t relation.Tuple, buf []int) []int {
	const maxStackDims = 16
	var setArr [maxStackDims]bool
	var coordArr [maxStackDims]int
	set, coord := setArr[:], coordArr[:]
	if len(g.dims) > maxStackDims {
		set = make([]bool, len(g.dims))
		coord = make([]int, len(g.dims))
	}
	base := 0
	for _, b := range g.binds {
		c := g.hasher.Coord(b.dim, t[b.pos])
		if set[b.dim] {
			if coord[b.dim] != c {
				// A repeated variable hashes consistently (same value,
				// same hash); conflicting values mean the tuple can
				// never participate in an answer.
				return buf
			}
			continue
		}
		set[b.dim] = true
		coord[b.dim] = c
		base += c * g.strides[b.dim]
	}
	start := len(buf)
	buf = append(buf, base)
	// Expand the free dimensions innermost-first, so the result order
	// matches the historic recursive enumeration (first free dimension
	// outermost).
	for i := len(g.free) - 1; i >= 0; i-- {
		d := g.free[i]
		m := len(buf)
		for c := 1; c < g.dims[d]; c++ {
			off := c * g.strides[d]
			for j := start; j < m; j++ {
				buf = append(buf, buf[j]+off)
			}
		}
	}
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

// Options configures a HyperCube run.
type Options struct {
	// Epsilon is the space exponent of the simulated MPC(ε) model; it
	// determines the receive cap. Defaults should be the query's space
	// exponent 1−1/τ*.
	Epsilon float64
	// CapConstant is c in the budget c·N/p^{1−ε}; ≤ 0 disables
	// enforcement.
	CapConstant float64
	// Seed drives hash-function choice (and sampling in RunSampled).
	Seed uint64
	// Transport, Context, Recovery, Trace and Snapshot are the fields of
	// dist.Env (documented there): where and how the round runs. The
	// zero values are the in-process loopback, no deadline, no recovery,
	// untraced, every scatter fresh.
	Transport dist.Transport
	Context   context.Context
	Recovery  dist.RecoveryOptions
	Trace     *trace.Trace
	Snapshot  *dist.Snapshot
}

// open starts the execution's cluster: p workers under the MPC(ε)
// parameters of opts and db, in the environment opts carries.
func (o Options) open(p int, db *relation.Database) (*dist.Cluster, context.Context, error) {
	return dist.Open(
		dist.Env{Transport: o.Transport, Context: o.Context, Recovery: o.Recovery, Trace: o.Trace, Snapshot: o.Snapshot},
		mpc.Config{Workers: p, Epsilon: o.Epsilon, InputBits: db.InputBits(), CapConstant: o.CapConstant, DomainN: db.N})
}

// Result reports a HyperCube execution.
type Result struct {
	// Answers is the union of the tuples output by all servers, as the
	// one sealed run the gather merged (nil when empty).
	Answers *relation.Run
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
// and returns all answers found (on matching databases this is the
// complete answer when ε ≥ 1−1/τ*).
func Run(q *query.Query, db *relation.Database, p int, opts Options) (*Result, error) {
	shares, err := SharesForQuery(q, p, GreedyRounding)
	if err != nil {
		return nil, err
	}
	return runWithShares(q, db, p, shares, opts, nil)
}

// RunWithShares is Run with caller-provided shares (used by tests and
// by the multiround executor, which computes shares per plan operator).
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
	cluster, ctx, err := opts.open(p, db)
	if err != nil {
		return nil, err
	}
	hasher := NewHasher(shares, opts.Seed)
	err = Round(ctx, cluster, q, db, func(a query.Atom) exchange.Partitioner {
		return NewGridPartitioner(shares, hasher, a).WithSample(sample)
	})
	if err != nil {
		return nil, err
	}
	// The sorted per-worker outputs k-way merge in the gather.
	merged, err := cluster.Gather(ctx, AnswersView)
	if err != nil {
		return nil, err
	}

	grid := shares.GridSize()
	if sample != nil && grid > p {
		grid = p
	}
	return &Result{
		Answers:    merged,
		Outcome:    cluster.Outcome(),
		Shares:     shares,
		ReceiveCap: cluster.Config().ReceiveCap(),
		GridPoints: grid,
	}, nil
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
