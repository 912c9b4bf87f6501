// Package plan is the statistics-driven query planner of the
// reproduction: it turns a parsed conjunctive query plus relation
// statistics (relation.Stats — cardinalities and heavy-hitter counts)
// into an executable, explainable Plan.
//
// The planner follows the paper's recipe end to end. It solves the two
// dual LPs of Figure 1 of Beame, Koutris, Suciu (PODS 2013) — the
// fractional vertex cover and the fractional edge packing — through
// internal/cover and internal/lp, derives the per-variable HyperCube
// share exponents e_i = v_i/τ* (Section 3.1), and rounds them to an
// integer share vector for the target p (size-aware enumeration in the
// Afrati–Ullman style when relation cardinalities differ). From the
// statistics it predicts the per-worker per-round maximum load and the
// total communication, compares them against the MPC(ε) budget
// c·N/p^{1−ε}, and selects the engine:
//
//   - one-round HyperCube (Theorem 1.1) when the predicted one-round
//     load fits the budget,
//   - the multi-round Γ^r_ε decomposition (Section 4.1) when it does
//     not and a plan with smaller per-round load exists,
//   - skew-aware heavy-hitter routing (internal/skew, after Koutris &
//     Suciu PODS 2011, to which the paper defers on skew) when the
//     statistics show a join value above the |R|/p-scale threshold that
//     would overload the server owning it under hash routing.
//
// Plan.Explain renders the decision for humans (the cmd/mpcplan
// EXPLAIN output); Plan.ExecuteRun runs the chosen engine end to end
// through the columnar exchange layer.
package plan

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/cover"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
)

// Engine identifies the execution strategy a Plan selects.
type Engine int

// Available engines.
const (
	// OneRound is the HyperCube algorithm: one shuffle onto the share
	// grid, one local join per worker (Theorem 1.1).
	OneRound Engine = iota
	// MultiRound is the Γ^r_ε decomposition: several rounds of smaller
	// joins, each one-round computable at the given ε (Section 4.1).
	MultiRound
	// SkewJoin is the heavy-hitter-resilient two-relation join: heavy
	// values get proportional server blocks, light values hash as usual
	// (internal/skew, Resilient mode).
	SkewJoin
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case OneRound:
		return "one-round hypercube"
	case MultiRound:
		return "multiround decomposition"
	case SkewJoin:
		return "skew-aware routing"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures Build.
type Options struct {
	// P is the number of servers. Required, ≥ 1.
	P int
	// Epsilon is the space exponent ε ∈ [0,1) of the MPC(ε) budget the
	// plan must respect. nil selects the query's own one-round exponent
	// 1 − 1/τ* (Theorem 1.1), under which one round always fits on
	// skew-free inputs.
	Epsilon *big.Rat
	// CapFactor is the constant c of the per-worker budget
	// c·N/p^{1−ε} (in tuples) the planner compares predicted loads
	// against; ≤ 0 selects 2.
	CapFactor float64
}

// ParseEpsilon reads the text form of Options.Epsilon — a rational
// such as "1/2", "0.5" or "0" — and checks it lies in [0,1). The empty
// string is nil: the query's own one-round exponent.
func ParseEpsilon(s string) (*big.Rat, error) {
	if s == "" {
		return nil, nil
	}
	eps, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("cannot parse ε %q as a rational", s)
	}
	if eps.Sign() < 0 || eps.Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, fmt.Errorf("ε = %s outside [0,1)", eps.RatString())
	}
	return eps, nil
}

// heavyFactor scales the heavy-hitter threshold heavyFactor·(Σ|S_j|)/p
// of the skew routing the planner compiles.
const heavyFactor = 1

// CostEstimate is the planner's prediction for one engine.
type CostEstimate struct {
	// LoadTuples is the predicted maximum per-worker per-round received
	// tuple count.
	LoadTuples float64
	// CommTuples is the predicted total number of tuple copies
	// shuffled over all rounds.
	CommTuples int64
	// Rounds is the number of communication rounds.
	Rounds int
}

// JoinMapping describes how a two-atom binary equi-join maps onto the
// canonical skew join q(x,y,z) = R(x,y) ⋈ S(y,z): which atom plays R,
// which plays S, and which column of each holds the shared variable.
type JoinMapping struct {
	// R and S are the atom names playing the two sides.
	R, S string
	// RY and SY are the column positions of the shared variable in R
	// and S.
	RY, SY int
	// XVar, YVar, ZVar are the query variables in the roles x, y, z.
	XVar, YVar, ZVar string
}

// Plan is an executable, explainable query plan.
//
// A Plan is immutable after Build: Execute reads the plan and the
// database but mutates neither (each execution opens its own
// dist.Cluster, hashers, and output buffers), and the override methods
// WithShares/WithEngine return modified copies. One cached Plan may
// therefore be Executed concurrently from many goroutines — the
// contract the serving layer's plan cache relies on.
type Plan struct {
	// Query is the planned query.
	Query *query.Query
	// Stats is the statistics catalog the plan was derived from.
	Stats *relation.Stats
	// P is the number of servers.
	P int
	// Epsilon is the space exponent the plan was built for.
	Epsilon *big.Rat
	// Tau is τ*(q), the common optimum of the Figure 1 LPs.
	Tau *big.Rat
	// ShareExponents are the LP-derived exponents e_i = v_i/τ*, indexed
	// like Query.Vars().
	ShareExponents []*big.Rat
	// EdgePacking is the optimal fractional edge packing u_j, indexed
	// like Query.Atoms (the dual witness of τ*).
	EdgePacking []*big.Rat
	// Shares is the integer share vector for p servers.
	Shares *hypercube.Shares
	// SizeAware reports whether Shares came from size-aware enumeration
	// over the statistics (differing cardinalities) rather than from
	// rounding the LP exponents directly.
	SizeAware bool

	// Engine is the selected execution strategy.
	Engine Engine
	// Reason is a one-line human-readable justification of the choice.
	Reason string
	// Multi is the Γ^r_ε plan; non-nil whenever one was buildable (it
	// is the executed plan only when Engine == MultiRound).
	Multi *multiround.Plan
	// SkewMap is the join-shape mapping; non-nil when the query has the
	// two-atom binary join shape (executed only when Engine == SkewJoin).
	SkewMap *JoinMapping
	// Routing is the skew engine's heavy-hitter routing, compiled once
	// from the catalog's histogram runs of the two join columns; nil
	// when the query lacks the join shape or the catalog carries no
	// histogram for a join column (Execute then compiles from the data).
	Routing *skew.Routing
	// Heavy lists the routing's heavy hitters on the join variable,
	// descending by combined frequency.
	Heavy []relation.ValueCount
	// HeavyThreshold is the combined frequency above which a value
	// counts as heavy: (|R|+|S|)/p over the two join sides,
	// at least 1 — the routing's own threshold.
	HeavyThreshold int

	// OneRoundCost is the one-round HyperCube estimate (always
	// populated).
	OneRoundCost CostEstimate
	// MultiCost is the multiround estimate; non-nil iff Multi is.
	MultiCost *CostEstimate
	// Cost is the chosen engine's estimate.
	Cost CostEstimate
	// BoundLoad is the paper's one-round load bound
	// Σ_j |S_j| / p^{Σ_{i ∈ vars(S_j)} e_i} in tuples per worker —
	// O(n/p^{1−ε₀}) with the exact constants of Proposition 3.2.
	BoundLoad float64
	// BudgetLoad is the MPC(ε) per-worker budget c·N/p^{1−ε} in tuples.
	BudgetLoad float64
	// UniformLoad is the skew-free component of the one-round estimate
	// (every hash spreads its relation evenly).
	UniformLoad float64
	// SkewLoad is the skew component of the one-round estimate: the
	// load of the worker owning the most frequent value of each hashed
	// dimension.
	SkewLoad float64

	// Aggregate, when non-nil, turns ExecuteRun's answer into grouped
	// aggregates over the head: the spec's column indices refer to
	// Query.Vars(). Set by WithAggregate. ExecuteRun folds the run the
	// engine gathered, whichever engine ran, once (relation.Fold).
	Aggregate *relation.GroupSpec
	// AggVars names the aggregated output columns — the group-by
	// variables followed by the "func(var)" terms — indexed like the
	// aggregated answer tuples. Nil when Aggregate is.
	AggVars []string

	capFactor    float64
	input        int  // Σ_j |S_j| over Query's relations
	manualShares bool // set by WithShares: Shares no longer follow the LP
	// skewJoinLoad is the routing's predicted load, the skew engine's cost.
	skewJoinLoad float64
}

// WithAggregate returns a copy of the plan whose execution folds the
// answer into grouped aggregates. The spec's column indices refer to
// Query.Vars(); engine choice, shares, and cost estimates are
// untouched (the fold adds no communication — it reads the gathered
// answer at the coordinator).
func (p *Plan) WithAggregate(spec relation.GroupSpec) (*Plan, error) {
	if err := spec.Validate(p.Query.NumVars()); err != nil {
		return nil, err
	}
	vars := p.Query.Vars()
	cols := make([]string, 0, spec.OutArity())
	for _, c := range spec.GroupBy {
		cols = append(cols, vars[c])
	}
	for _, a := range spec.Aggs {
		cols = append(cols, fmt.Sprintf("%s(%s)", a.Func, vars[a.Col]))
	}
	out := *p
	out.Aggregate = &spec
	out.AggVars = cols
	return &out, nil
}

// Build plans q over the given statistics. Every atom of q must have a
// stats entry (collect them with relation.CollectStats, or synthesize
// matching-shaped ones with MatchingStats); other entries are ignored.
func Build(q *query.Query, stats *relation.Stats, opts Options) (*Plan, error) {
	if opts.P < 1 {
		return nil, fmt.Errorf("plan: p = %d", opts.P)
	}
	if stats == nil {
		return nil, fmt.Errorf("plan: nil stats (use relation.CollectStats or plan.MatchingStats)")
	}
	input := 0 // Σ_j |S_j| over q's relations: the budget's N
	for _, a := range q.Atoms {
		rs := stats.Relation(a.Name)
		if rs == nil {
			return nil, fmt.Errorf("plan: no statistics for relation %s", a.Name)
		}
		input += rs.Count
	}
	cr, err := cover.Solve(q)
	if err != nil {
		return nil, err
	}
	eps := opts.Epsilon
	if eps == nil {
		eps = cr.SpaceExponent()
	}
	if eps.Sign() < 0 || eps.Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, fmt.Errorf("plan: ε = %s outside [0,1)", eps.RatString())
	}
	capFactor := opts.CapFactor
	if capFactor <= 0 {
		capFactor = 2
	}

	p := &Plan{
		Query:          q,
		Stats:          stats,
		P:              opts.P,
		Epsilon:        new(big.Rat).Set(eps),
		Tau:            cr.Tau,
		ShareExponents: cr.ShareExponents(),
		EdgePacking:    cr.EdgePacking,
		capFactor:      capFactor,
		input:          input,
	}

	// Integer shares: LP-exponent rounding on uniform cardinalities,
	// size-aware enumeration (Afrati–Ullman style) when they differ.
	sizes := stats.Sizes()
	if differingSizes(q, sizes) && q.NumVars() <= 10 {
		shares, err := hypercube.OptimalSharesForSizes(q, sizes, opts.P)
		if err != nil {
			return nil, err
		}
		p.Shares, p.SizeAware = shares, true
	} else {
		shares, err := hypercube.ComputeShares(q.Vars(), cr.ShareExponentFloats(), opts.P, hypercube.GreedyRounding)
		if err != nil {
			return nil, err
		}
		p.Shares = shares
	}

	if err := p.estimateOneRound(); err != nil {
		return nil, err
	}
	p.BoundLoad = paperBound(q, stats, p.ShareExponents, opts.P)
	epsF, _ := eps.Float64()
	p.BudgetLoad = capFactor * float64(p.input) / math.Pow(float64(opts.P), 1-epsF)

	// Multiround alternative (connected multi-atom queries only; Build
	// fails when no step makes progress at this ε, which just removes
	// the alternative).
	if q.Connected() && q.NumAtoms() > 1 {
		if mp, err := multiround.Build(q, eps); err == nil {
			p.Multi = mp
			mc, err := multiroundCost(mp, stats, opts.P)
			if err != nil {
				return nil, err
			}
			p.MultiCost = mc
		}
	}

	// Skew detection on the canonical join shape: compile the routing
	// the skew engine would run, from the exact histograms of the two
	// join columns, and read the heavy set, the threshold and the load
	// prediction off it — planner and engine cannot disagree.
	if m := detectJoinMapping(q); m != nil {
		p.SkewMap = m
		rs, ss := stats.Relation(m.R), stats.Relation(m.S)
		var histR, histS []relation.ValueCount
		cr, cs := rs.Col(m.RY), ss.Col(m.SY)
		exact := cr != nil && cs != nil && cr.Hist != nil && cs.Hist != nil
		if exact {
			histR, histS = cr.Hist, cs.Hist
		}
		rt := skew.Compile(histR, histS, rs.Count, ss.Count, opts.P, heavyFactor)
		if exact {
			p.Routing = rt
		}
		for _, hv := range rt.Heavy {
			p.Heavy = append(p.Heavy, relation.ValueCount{Value: hv.Value, Count: hv.CountR + hv.CountS})
		}
		p.HeavyThreshold, p.skewJoinLoad = rt.Threshold, rt.PredictedLoad()
	}

	p.selectEngine()
	return p, nil
}

// selectEngine applies the paper's fallback order: skew-aware routing
// when the statistics show heavy hitters whose predicted load breaks
// the ε-budget (a heavy value alone is not enough — on near-uniform
// inputs plain hashing still fits), otherwise one round when its
// predicted load fits the budget, otherwise the multiround plan when
// it exists and predicts a smaller per-round load.
func (p *Plan) selectEngine() {
	switch {
	case len(p.Heavy) > 0 && p.SkewLoad > p.BudgetLoad:
		p.Engine = SkewJoin
		p.Cost = CostEstimate{
			LoadTuples: p.skewJoinLoad,
			CommTuples: p.OneRoundCost.CommTuples,
			Rounds:     1,
		}
		p.Reason = fmt.Sprintf("heavy hitter on %s (top frequency %d > threshold %d) would overload hash routing",
			p.SkewMap.YVar, p.Heavy[0].Count, p.HeavyThreshold)
	case p.OneRoundCost.LoadTuples <= p.BudgetLoad || p.Multi == nil:
		p.Engine = OneRound
		p.Cost = p.OneRoundCost
		if p.OneRoundCost.LoadTuples <= p.BudgetLoad {
			p.Reason = fmt.Sprintf("predicted load %.0f fits the ε-budget %.0f in a single round",
				p.OneRoundCost.LoadTuples, p.BudgetLoad)
		} else {
			p.Reason = fmt.Sprintf("predicted load %.0f exceeds the ε-budget %.0f but no multiround decomposition exists at ε=%s",
				p.OneRoundCost.LoadTuples, p.BudgetLoad, p.Epsilon.RatString())
		}
	case p.MultiCost.LoadTuples < p.OneRoundCost.LoadTuples:
		p.Engine = MultiRound
		p.Cost = *p.MultiCost
		p.Reason = fmt.Sprintf("one-round load %.0f exceeds the ε-budget %.0f; %s cut the per-round load to %.0f",
			p.OneRoundCost.LoadTuples, p.BudgetLoad, roundsWord(p.MultiCost.Rounds), p.MultiCost.LoadTuples)
	default:
		p.Engine = OneRound
		p.Cost = p.OneRoundCost
		p.Reason = fmt.Sprintf("over budget either way; one round predicts no more load (%.0f) than %s (%.0f)",
			p.OneRoundCost.LoadTuples, roundsWord(p.MultiCost.Rounds), p.MultiCost.LoadTuples)
	}
}

// differingSizes reports whether the atoms' cardinalities are not all
// equal.
func differingSizes(q *query.Query, sizes map[string]int) bool {
	first, ok := -1, false
	for _, a := range q.Atoms {
		if !ok {
			first, ok = sizes[a.Name], true
			continue
		}
		if sizes[a.Name] != first {
			return true
		}
	}
	return false
}

// estimateOneRound sets the plan's one-round estimates for its shares:
// the uniform and skew loads (oneRoundLoad) and the tuples the shuffle
// communicates.
func (p *Plan) estimateOneRound() error {
	uniform, skewLoad := oneRoundLoad(p.Query, p.Stats, p.Shares)
	comm, err := hypercube.CommunicationCost(p.Query, p.Shares, p.Stats.Sizes())
	if err != nil {
		return err
	}
	p.UniformLoad, p.SkewLoad = uniform, skewLoad
	p.OneRoundCost = CostEstimate{
		LoadTuples: math.Max(uniform, skewLoad),
		CommTuples: comm,
		Rounds:     1,
	}
	return nil
}

// spread is the number of grid cells an atom's tuples hash over: the
// product of the shares of the distinct dimensions it mentions.
func spread(a query.Atom, shares *hypercube.Shares) float64 {
	denom := 1.0
	seen := map[int]bool{}
	for _, v := range a.DistinctVars() {
		if d := shares.DimOf(v); d >= 0 && !seen[d] {
			seen[d] = true
			denom *= float64(shares.Dims[d])
		}
	}
	return denom
}

// oneRoundLoad predicts the per-worker received tuple count of the
// HyperCube shuffle. The uniform part assumes hashing spreads each
// relation evenly: server loads are |S_j| / Π_{d ∈ dims(S_j)} p_d
// summed over atoms. The skew part is the load of the worker owning
// the most frequent value of some hashed dimension: that value's
// tuples keep one coordinate fixed and spread only over the atom's
// remaining mentioned dimensions.
func oneRoundLoad(q *query.Query, stats *relation.Stats, shares *hypercube.Shares) (uniform, skew float64) {
	for _, a := range q.Atoms {
		rs := stats.Relation(a.Name)
		denom := spread(a, shares)
		uniform += float64(rs.Count) / denom
		for pos, v := range a.Vars {
			d := shares.DimOf(v)
			if d < 0 || shares.Dims[d] <= 1 {
				continue
			}
			cs := rs.Col(pos)
			if cs == nil {
				continue
			}
			if s := float64(cs.MaxFreq) / (denom / float64(shares.Dims[d])); s > skew {
				skew = s
			}
		}
	}
	return uniform, skew
}

// paperBound evaluates the Proposition 3.2 load bound with the exact
// LP exponents (no integer rounding): Σ_j |S_j| / p^{Σ_{i∈vars(S_j)} e_i}.
// For C3 this is 3·n/p^{2/3}; for any q it is O(n/p^{1−ε₀}).
func paperBound(q *query.Query, stats *relation.Stats, exps []*big.Rat, p int) float64 {
	bound := 0.0
	for _, a := range q.Atoms {
		rs := stats.Relation(a.Name)
		expSum := 0.0
		for _, v := range a.DistinctVars() {
			if i := q.VarIndex(v); i >= 0 {
				e, _ := exps[i].Float64()
				expSum += e
			}
		}
		bound += float64(rs.Count) / math.Pow(float64(p), expSum)
	}
	return bound
}

// multiroundCost estimates a Γ^r_ε plan: per round, every multi-atom
// group shuffles its inputs onto its own share grid; the view a group
// materializes is estimated at the size of its largest input — exact
// for joins of matchings (χ = 0 components keep cardinality n,
// Lemma 3.4) and conservative for χ < 0.
func multiroundCost(mp *multiround.Plan, stats *relation.Stats, p int) (*CostEstimate, error) {
	est := &CostEstimate{Rounds: mp.Rounds()}
	sizes := stats.Sizes()
	for _, step := range mp.Steps {
		roundLoad := 0.0
		communicated := false
		for _, g := range step.Groups {
			if g.Query == nil {
				// Passthrough: no communication; the view keeps its size.
				sizes[g.View] = sizes[g.Atoms[0]]
				continue
			}
			communicated = true
			gcr, err := cover.Solve(g.Query)
			if err != nil {
				return nil, err
			}
			shares, err := hypercube.ComputeShares(g.Query.Vars(), gcr.ShareExponentFloats(), p, hypercube.GreedyRounding)
			if err != nil {
				return nil, err
			}
			groupSizes := make(map[string]int, g.Query.NumAtoms())
			viewSize := 0
			for _, a := range g.Query.Atoms {
				sz, ok := sizes[a.Name]
				if !ok {
					return nil, fmt.Errorf("plan: no size estimate for %s", a.Name)
				}
				groupSizes[a.Name] = sz
				if sz > viewSize {
					viewSize = sz
				}
				roundLoad += float64(sz) / spread(a, shares)
			}
			comm, err := hypercube.CommunicationCost(g.Query, shares, groupSizes)
			if err != nil {
				return nil, err
			}
			est.CommTuples += comm
			sizes[g.View] = viewSize
		}
		if communicated && roundLoad > est.LoadTuples {
			est.LoadTuples = roundLoad
		}
	}
	return est, nil
}

// detectJoinMapping recognizes the canonical skew-join shape: exactly
// two binary atoms, no repeated variables within an atom, sharing
// exactly one variable (three distinct variables overall).
func detectJoinMapping(q *query.Query) *JoinMapping {
	if q.NumAtoms() != 2 || q.NumVars() != 3 {
		return nil
	}
	a, b := q.Atoms[0], q.Atoms[1]
	if a.Arity() != 2 || b.Arity() != 2 ||
		a.Vars[0] == a.Vars[1] || b.Vars[0] == b.Vars[1] {
		return nil
	}
	var shared string
	for _, av := range a.Vars {
		for _, bv := range b.Vars {
			if av == bv {
				shared = av
			}
		}
	}
	if shared == "" {
		return nil
	}
	m := &JoinMapping{R: a.Name, S: b.Name, YVar: shared}
	for pos, v := range a.Vars {
		if v == shared {
			m.RY = pos
		} else {
			m.XVar = v
		}
	}
	for pos, v := range b.Vars {
		if v == shared {
			m.SY = pos
		} else {
			m.ZVar = v
		}
	}
	return m
}

// MatchingStats synthesizes the statistics of a matching database over
// [n] for q: every relation has n tuples and every column is a
// permutation (max frequency 1). It is what cmd/mpcplan uses when no
// data is supplied.
func MatchingStats(q *query.Query, n int) *relation.Stats {
	s := &relation.Stats{Relations: make(map[string]*relation.RelationStats, q.NumAtoms())}
	for _, a := range q.Atoms {
		rs := &relation.RelationStats{
			Name:  a.Name,
			Count: n,
			Attrs: append([]string(nil), a.Vars...),
			Cols:  make([]*relation.ColumnStats, a.Arity()),
		}
		for i := range rs.Cols {
			rs.Cols[i] = &relation.ColumnStats{Distinct: n, MaxFreq: 1}
		}
		s.Relations[a.Name] = rs
	}
	return s
}
