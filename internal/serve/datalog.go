package serve

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/trace"
)

// resolveProgram resolves the Datalog kind of POST /query: a request
// whose program field is set (or whose query text contains ':-'/'?-')
// is parsed by internal/datalog and evaluated stratum by stratum —
// rule bodies through the planner, recursive strata semi-naive over
// warm incremental maintenance, aggregate heads folded over the
// gathered answer.
// Programs are not plan-cached: a program is many plans, and the
// recursive ones depend on derived statistics that only exist
// mid-evaluation.
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
	p, eps, ds, err := s.target(req.P, req.Epsilon, req.Dataset, true)
	if err != nil {
		return nil, err
	}
	sn := ds.Snapshot()
	return &job{
		// A program has no single plan to cost, so the booked load is the
		// dataset cardinality — every EDB tuple is shuffled at least once,
		// and the recursive deltas ride on top.
		cost: int64(sn.DB.TotalTuples()) + 1,
		reply: QueryResponse{
			Dataset: ds.Name,
			Query:   strings.TrimRight(prog.String(), "\n"),
			P:       p,
			Engine:  "datalog",
			Explain: prog.Describe(),
		},
		run: func(ctx context.Context, seed uint64, tc *trace.Trace, reply *QueryResponse) (*relation.Run, *mpc.Stats, error) {
			opts := datalog.Options{P: p, Epsilon: eps, Seed: seed, Context: ctx, Trace: tc}
			if s.pool != nil {
				// One dialed session per execution the program opens; the
				// evaluator closes them, the service counts what they cost.
				var sessions []*dist.TCP
				opts.Dial = func(int) (dist.Transport, error) {
					tr, err := s.dialPool(ctx)
					if err != nil {
						return nil, err
					}
					sessions = append(sessions, tr)
					return tr, nil
				}
				defer func() {
					for _, tr := range sessions {
						s.metrics.RecordSession(tr)
					}
				}()
				opts.Recovery = s.recovery()
			}
			res, err := datalog.Eval(prog, sn.DB, opts)
			if err != nil {
				return nil, nil, errorf(http.StatusUnprocessableEntity, "evaluation failed: %v", err)
			}
			reply.Vars, reply.Iterations = res.Vars, res.Iterations
			reply.CapExceeded, reply.WorkerReplacements = res.CapExceeded, res.Replacements
			return res.Answers, res.Stats, nil
		},
	}, nil
}
