package plan

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/relation"
	"repro/internal/skew"
)

// ExecOptions configures Plan.ExecuteRun: the hash seed, the
// receive-cap constant, the execution environment (worker pool,
// context, recovery policy, trace, snapshot) and how many answer rows
// to gather (AnswerLimit; the zero value gathers all of them).
// It is the multiround engine's option set — the planner adds nothing
// to it, and hands it to that engine as is.
type ExecOptions = multiround.Options

// Result reports a planner-driven execution.
type Result struct {
	// Run is the answer in OutputVars() order as one sealed,
	// deduplicated run (nil when empty): the run the engine gathered,
	// folded into one row per group under WithAggregate — under
	// ExecOptions.AnswerLimit, perhaps only its first rows.
	Run *relation.Run
	// Count is how many rows the answer holds: Run's, or more when the
	// engine left the rest of them on the workers.
	Count int
	// Answers is Run materialized as tuples; only Execute fills it.
	Answers []relation.Tuple
	// Engine is the strategy that actually ran.
	Engine Engine
	// Rounds is the number of communication rounds used.
	Rounds int
	dist.Outcome
	// Shares is the grid geometry (one-round engine only, nil
	// otherwise).
	Shares *hypercube.Shares
}

// Execute is ExecuteRun with the answer also materialized as tuples in
// Result.Answers, for callers that want a slice: all of them, whatever
// opts.AnswerLimit says.
func (p *Plan) Execute(db *relation.Database, opts ExecOptions) (*Result, error) {
	opts.AnswerLimit = 0
	res, err := p.ExecuteRun(db, opts)
	if err == nil {
		res.Answers = res.Run.Tuples()
	}
	return res, err
}

// ExecuteRun runs the plan's chosen engine on db end to end through the
// columnar exchange layer and returns the answer as the run the engine
// gathered, in the original query's variable order — or, under
// WithAggregate, that run folded once into grouped aggregates, whichever
// engine ran. A grid engine gathers only the first opts.AnswerLimit
// rows and counts the rest where they are; the skew engine, whose
// workers' outputs overlap, and a fold, which needs every row, gather
// them all.
//
// ExecuteRun is safe for concurrent use: it treats both the plan and db
// as read-only and allocates per-call state (cluster, hash functions,
// buffers), so many executions — of the same plan or of different
// plans over a shared database — may run in parallel.
func (p *Plan) ExecuteRun(db *relation.Database, opts ExecOptions) (*Result, error) {
	var res *Result
	var err error
	if p.Aggregate != nil {
		opts.AnswerLimit = 0
	}
	switch p.Engine {
	case OneRound:
		res, err = p.executeOneRound(db, opts)
	case MultiRound:
		res, err = p.executeMultiRound(db, opts)
	case SkewJoin:
		res, err = p.executeSkewJoin(db, opts)
	default:
		err = fmt.Errorf("plan: unknown engine %v", p.Engine)
	}
	if err != nil {
		return nil, err
	}
	if p.Aggregate != nil {
		res.Run = relation.Fold(res.Run, *p.Aggregate)
		res.Count = res.Run.Len()
	}
	return res, nil
}

func (p *Plan) executeOneRound(db *relation.Database, opts ExecOptions) (*Result, error) {
	epsF, _ := p.Epsilon.Float64()
	res, err := hypercube.RunWithShares(p.Query, db, p.P, p.Shares, hypercube.Options{
		Epsilon:     epsF,
		CapConstant: opts.CapConstant,
		Seed:        opts.Seed,
		Transport:   opts.Transport,
		Context:     opts.Context,
		Recovery:    opts.Recovery,
		Trace:       opts.Trace,
		Snapshot:    opts.Snapshot,
	}, opts.AnswerLimit)
	if err != nil {
		return nil, err
	}
	return &Result{Run: res.Answers, Count: res.Count, Engine: OneRound, Rounds: res.Stats.NumRounds(), Outcome: res.Outcome, Shares: res.Shares}, nil
}

func (p *Plan) executeMultiRound(db *relation.Database, opts ExecOptions) (*Result, error) {
	if p.Multi == nil {
		return nil, fmt.Errorf("plan: multiround engine selected but no Γ^r_ε plan was built")
	}
	res, err := multiround.Execute(p.Multi, db, p.P, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Run: res.Answers, Count: res.Count, Engine: MultiRound, Rounds: res.Rounds, Outcome: res.Outcome}, nil
}

// executeSkewJoin runs the resilient heavy-hitter discipline on the
// query's own atoms under the routing compiled at Build; a plan whose
// catalog carried no histogram for a join column compiles it from the
// data here, through the same compiler.
func (p *Plan) executeSkewJoin(db *relation.Database, opts ExecOptions) (*Result, error) {
	m := p.SkewMap
	if m == nil {
		return nil, fmt.Errorf("plan: skew engine selected but query %s is not a two-atom binary join", p.Query.Name)
	}
	relR, ok := db.Relation(m.R)
	if !ok {
		return nil, fmt.Errorf("plan: database missing relation %s", m.R)
	}
	relS, ok := db.Relation(m.S)
	if !ok {
		return nil, fmt.Errorf("plan: database missing relation %s", m.S)
	}
	rt := p.Routing
	if rt == nil {
		rt = skew.CompileFromData(relR, m.RY, relS, m.SY, p.P, heavyFactor)
	}
	res, err := skew.Execute(p.Query, relR, relS, m.RY, m.SY, rt, skew.Options{
		Seed:        opts.Seed,
		CapConstant: opts.CapConstant,
		Transport:   opts.Transport,
		Context:     opts.Context,
		Recovery:    opts.Recovery,
		Trace:       opts.Trace,
		Snapshot:    opts.Snapshot,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Run: res.Answers, Count: res.Answers.Len(), Engine: SkewJoin, Rounds: res.Stats.NumRounds(), Outcome: res.Outcome}, nil
}

// WithShares returns a copy of the plan forced onto the one-round
// engine with the given integer shares — the cmd/mpcrun -plan manual
// override. Cost estimates are recomputed for the new grid.
func (p *Plan) WithShares(shares *hypercube.Shares) (*Plan, error) {
	if shares.GridSize() > p.P {
		return nil, fmt.Errorf("plan: manual grid %d exceeds %d servers", shares.GridSize(), p.P)
	}
	for _, v := range p.Query.Vars() {
		if shares.DimOf(v) < 0 {
			return nil, fmt.Errorf("plan: manual shares missing variable %s", v)
		}
	}
	out := *p
	out.Shares = shares
	out.SizeAware = false
	uniform, skewLoad := oneRoundLoad(p.Query, p.Stats, shares)
	comm, err := hypercube.CommunicationCost(p.Query, shares, p.Stats.Sizes())
	if err != nil {
		return nil, err
	}
	out.UniformLoad, out.SkewLoad = uniform, skewLoad
	out.OneRoundCost = CostEstimate{
		LoadTuples: math.Max(uniform, skewLoad),
		CommTuples: comm,
		Rounds:     1,
	}
	out.Engine = OneRound
	out.Cost = out.OneRoundCost
	out.Reason = "manual share override (-plan)"
	out.manualShares = true
	return &out, nil
}

// WithEngine returns a copy of the plan forced onto the given engine —
// the cmd/mpcrun -plan manual override. It errors when the plan lacks
// what the engine needs (no Γ^r_ε decomposition, or not the two-atom
// join shape).
func (p *Plan) WithEngine(e Engine) (*Plan, error) {
	out := *p
	out.Engine = e
	out.Reason = "manual engine override (-plan)"
	switch e {
	case OneRound:
		out.Cost = p.OneRoundCost
	case MultiRound:
		if p.Multi == nil {
			return nil, fmt.Errorf("plan: no multiround decomposition of %s at ε=%s",
				p.Query.Name, p.Epsilon.RatString())
		}
		out.Cost = *p.MultiCost
	case SkewJoin:
		if p.SkewMap == nil {
			return nil, fmt.Errorf("plan: query %s is not a two-atom binary join", p.Query.Name)
		}
		out.Cost = CostEstimate{
			LoadTuples: p.skewJoinLoad,
			CommTuples: p.OneRoundCost.CommTuples,
			Rounds:     1,
		}
	default:
		return nil, fmt.Errorf("plan: unknown engine %v", e)
	}
	return &out, nil
}
