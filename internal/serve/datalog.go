package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strings"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/trace"
)

// resolveProgram resolves the Datalog kind of POST /query: a request
// whose program field is set (or whose query text contains ':-'/'?-')
// is parsed by internal/datalog and evaluated stratum by stratum —
// one-atom rules on the coordinator without a round, other rule bodies
// through the planner, recursive strata semi-naive with the closure kept
// on the workers and gathered only as far as the reply goes, aggregate
// heads folded over the answer. A planned rule body's plan is cached
// like a query's, under the program, the rule's index, the dataset
// version, p and ε: the statistics its planner reads — derived
// predicates included — are a function of those.
func (s *Server) resolveProgram(req QueryRequest, ten *Tenant) (*job, error) {
	src := req.Program
	if src == "" {
		src = req.Query
	} else if req.Query != "" || req.Family != "" {
		return nil, errorf(http.StatusBadRequest, "use program, query or family — not a combination")
	}
	if req.Family != "" {
		return nil, errorf(http.StatusBadRequest, "use program or family, not both")
	}
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	p, eps, ds, err := s.target(req.P, req.Epsilon, req.Dataset, ten)
	if err != nil {
		return nil, err
	}
	sn := ds.Snapshot()
	text := prog.String()
	// A program has no single plan to cost, so it books what one round
	// over its EDB relations would shuffle (a one-atom rule ships none).
	cost := int64(1)
	for _, pred := range prog.EDBPreds() {
		if rel, ok := sn.DB.Relation(pred); ok {
			cost += int64(rel.Size())
		}
	}
	return &job{
		cost: cost,
		reply: QueryResponse{
			Dataset: ds.Name,
			Query:   strings.TrimRight(text, "\n"),
			P:       p,
			Engine:  "datalog",
			Explain: prog.Describe(),
		},
		run: func(ctx context.Context, seed uint64, tc *trace.Trace, reply *QueryResponse) (*dist.Result, error) {
			// A recursive output is gathered as far as the reply goes: the
			// rest of the closure stays on the workers, which count it.
			opts := datalog.Options{P: p, Epsilon: eps, CapConstant: s.cfg.CapFactor, Seed: seed, Context: ctx, Trace: tc,
				AnswerLimit: s.answerLimit(req.MaxAnswers)}
			opts.Plan = func(rule int, build func() (*plan.Plan, error)) (*plan.Plan, error) {
				key := programPlanKey(text, rule, ds.identity(), sn.Version, p, eps)
				if pl, ok := s.cache.Get(key); ok {
					s.metrics.PlanCacheHits.Add(1)
					return pl, nil
				}
				s.metrics.PlanCacheMisses.Add(1)
				pl, err := build()
				if err == nil {
					s.cache.Put(key, pl)
				}
				return pl, err
			}
			if s.pool != nil {
				// One borrowed session per execution the program opens; the
				// evaluator closes them, and hands a failed borrow back as is.
				opts.Dial = func(int) (dist.Transport, error) {
					tr, _, err := s.borrow(ctx)
					return tr, err
				}
				opts.Recovery = s.recovery()
			}
			res, err := datalog.Eval(prog, sn.DB, opts)
			var he *httpError
			if errors.As(err, &he) {
				return nil, he
			}
			if err != nil {
				return nil, errorf(http.StatusUnprocessableEntity, "evaluation failed: %v", err)
			}
			reply.Vars, reply.Iterations = res.Vars, res.Iterations
			return &res.Result, nil
		},
	}, nil
}

// programPlanKey is the plan-cache key of rule i of a program on a
// dataset version at p and ε: a digest of all five, never equal to a
// conjunctive query's key.
func programPlanKey(program string, rule int, dataset string, version uint64, p int, eps *big.Rat) string {
	text := fmt.Sprintf("program=%q|rule=%d|ds=%s|v=%d|p=%d", program, rule, dataset, version, p)
	if eps != nil {
		text += "|eps=" + eps.RatString()
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}
