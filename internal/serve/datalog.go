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
// rule bodies through the planner, recursive strata semi-naive with the
// closure kept on the workers and gathered only as far as the reply
// goes, aggregate heads folded over the gathered answer. A rule body's plan is cached like a query's, under
// the program, the rule's index, the dataset version, p and ε: the
// statistics its planner reads — derived predicates included — are a
// function of those.
func (s *Server) resolveProgram(req QueryRequest) (*job, error) {
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
	p, eps, ds, err := s.target(req.P, req.Epsilon, req.Dataset)
	if err != nil {
		return nil, err
	}
	sn := ds.Snapshot()
	text := prog.String()
	return &job{
		// A program has no single plan to cost, so the booked load is the
		// dataset cardinality — every EDB tuple is shuffled at least once,
		// and the recursive deltas ride on top.
		cost: int64(sn.DB.TotalTuples()) + 1,
		reply: QueryResponse{
			Dataset: ds.Name,
			Query:   strings.TrimRight(text, "\n"),
			P:       p,
			Engine:  "datalog",
			Explain: prog.Describe(),
		},
		run: func(ctx context.Context, seed uint64, tc *trace.Trace, reply *QueryResponse) (answer, error) {
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
				return answer{}, he
			}
			if err != nil {
				return answer{}, errorf(http.StatusUnprocessableEntity, "evaluation failed: %v", err)
			}
			reply.Vars, reply.Iterations = res.Vars, res.Iterations
			reply.CapExceeded, reply.WorkerReplacements = res.CapExceeded, res.Replacements
			return answer{run: res.Answers, count: res.Count, gathered: res.Gathered, stats: res.Stats}, nil
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
