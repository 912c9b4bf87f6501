package plan

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/multiround"
	"repro/internal/relation"
	"repro/internal/skew"
)

// ExecOptions configures Plan.ExecuteRun: the execution options every
// engine takes (see dist.Options), handed to the chosen engine as is.
// Epsilon is the plan's, whatever the caller sets.
type ExecOptions = dist.Options

// Result reports a planner-driven execution: the engine's Result —
// under WithAggregate, its Run folded into one row per group, in
// AggVars order — and, from Execute, the answer as tuples. The engine
// that ran and its grid are the plan's.
type Result struct {
	dist.Result
	// Answers is Run materialized as tuples; only Execute fills it.
	Answers []relation.Tuple
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
// engine ran. Every engine's workers output disjoint answers, so each
// gathers only the first opts.AnswerLimit rows and counts the rest
// where they are; a fold, which needs every row, gathers them all.
//
// ExecuteRun is safe for concurrent use: it treats both the plan and db
// as read-only and allocates per-call state (cluster, hash functions,
// buffers), so many executions — of the same plan or of different
// plans over a shared database — may run in parallel.
func (p *Plan) ExecuteRun(db *relation.Database, opts ExecOptions) (*Result, error) {
	var res *dist.Result
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
	return &Result{Result: *res}, nil
}

func (p *Plan) executeOneRound(db *relation.Database, opts ExecOptions) (*dist.Result, error) {
	opts.Epsilon, _ = p.Epsilon.Float64()
	return hypercube.RunWithShares(p.Query, db, p.P, p.Shares, opts)
}

func (p *Plan) executeMultiRound(db *relation.Database, opts ExecOptions) (*dist.Result, error) {
	if p.Multi == nil {
		return nil, fmt.Errorf("plan: multiround engine selected but no Γ^r_ε plan was built")
	}
	return multiround.Execute(p.Multi, db, p.P, opts)
}

// executeSkewJoin runs the resilient heavy-hitter discipline on the
// query's own atoms under the routing compiled at Build; a plan whose
// catalog carried no histogram for a join column compiles it from the
// data here, through the same compiler.
func (p *Plan) executeSkewJoin(db *relation.Database, opts ExecOptions) (*dist.Result, error) {
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
	return skew.Execute(p.Query, relR, relS, m.RY, m.SY, rt, opts)
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
	if err := out.estimateOneRound(); err != nil {
		return nil, err
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
