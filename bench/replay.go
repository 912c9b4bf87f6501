package main

import (
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/serve"
)

// The traced run replays requests in the harness's own process, taking
// the same steps through the same public functions as the POST /query
// and delta handlers, over the real worker pool, with a span around
// each step:
//
//	request → query.parse, [relation.stats, plan.build when cold],
//	          dist.dial, plan.execute (→ dist.scatter / dist.join /
//	          dist.gather on a one-round plan), serve.respond
//
// An ingest_cold request is the whole cycle: relation.csv, the cold
// query's steps, relation.apply_delta, the re-query's steps.

// replayQuery runs one query's steps as children of parent. stats nil
// means the catalog must be collected first; pl nil means a plan-cache
// miss. It returns the plan for the next replay's cache hit.
func (p *prober) replayQuery(parent, request int, db *relation.Database, stats *relation.Stats, pl *plan.Plan) (*plan.Plan, error) {
	rec := p.rec
	if _, err := rec.time(parent, request, "query.parse", func(int) error { return p.parseRequest() }); err != nil {
		return nil, err
	}
	if p.prog != nil {
		// A program has no cached plan; every rule execution dials its
		// own session inside the evaluation.
		_, err := rec.time(parent, request, "plan.execute", func(self int) error {
			_, err := p.eval(func(int) (dist.Transport, error) {
				var tr dist.Transport
				_, err := rec.time(self, request, "dist.dial", func(int) (err error) {
					tr, err = p.dialPool(0)
					return err
				})
				return tr, err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		_, err = rec.time(parent, request, "serve.respond", func(int) error { return p.respond(nil, &serve.QueryResponse{}) })
		return nil, err
	}
	view, err := bind(p.in.q, db)
	if err != nil {
		return nil, err
	}
	if pl == nil {
		if stats == nil {
			if _, err := rec.time(parent, request, "relation.stats", func(int) error {
				stats = relation.CollectStats(db)
				return nil
			}); err != nil {
				return nil, err
			}
		}
		if _, err := rec.time(parent, request, "plan.build", func(int) (err error) {
			pl, err = plan.Build(p.in.q, stats, p.planOptions())
			return err
		}); err != nil {
			return nil, err
		}
	}
	var tr *dist.TCP
	if _, err := rec.time(parent, request, "dist.dial", func(int) (err error) {
		tr, err = dist.DialTCP(p.ctx, p.workers)
		return err
	}); err != nil {
		return nil, err
	}
	defer tr.Close()
	var resp serve.QueryResponse
	if _, err := rec.time(parent, request, "plan.execute", func(self int) error {
		if pl.Engine == plan.OneRound {
			_, err := p.enact(tr, pl, view, self, request)
			return err
		}
		res, err := pl.Execute(view, plan.ExecOptions{Seed: runSeed, Transport: tr, Context: p.ctx, Recovery: recovery})
		if err == nil {
			resp.AnswerCount = len(res.Answers)
			for _, t := range res.Answers[:min(100, len(res.Answers))] {
				resp.Answers = append(resp.Answers, []int(t))
			}
		}
		return err
	}); err != nil {
		return nil, err
	}
	_, err = rec.time(parent, request, "serve.respond", func(int) error {
		return p.respond(pl, &resp)
	})
	return pl, err
}

// replay runs sc.Replays traced requests and derives trace.coverage
// (how much of a request its child spans account for) and
// trace.request_vs_e2e (the in-process request against the
// client-observed median: what the HTTP hop, the process boundary and
// tracing together cost).
func (p *prober) replay(latencyP50 float64) error {
	var pl *plan.Plan
	var requests []int
	for r := 1; r <= p.sc.Replays; r++ {
		id := p.rec.start(0, r, "request")
		requests = append(requests, id)
		var err error
		if p.wl.ingest {
			err = p.replayCycle(id, r, p.in.cycles[r%len(p.in.cycles)])
		} else {
			pl, err = p.replayQuery(id, r, p.cy.probeDB, nil, pl)
		}
		p.rec.end(id)
		if err != nil {
			return err
		}
	}
	var whole, children float64
	var warm []float64
	for i, id := range requests {
		d := ms(p.rec.duration(id))
		whole += d
		children += ms(p.rec.childTime(id))
		if i > 0 || p.wl.ingest || p.prog != nil {
			// The first replay of a plan-cached workload is the cold one.
			warm = append(warm, d)
		}
	}
	p.out["trace.coverage"] = ratio(children, whole)
	p.out["trace.request_vs_e2e"] = ratio(median(warm), latencyP50)
	return nil
}

// replayCycle replays one ingest cycle, applying the delta the way
// serve.Dataset does: copy-on-write, then the catalog maintained
// incrementally and installed on the new snapshot.
func (p *prober) replayCycle(parent, request int, cy *cycle) error {
	rec := p.rec
	var db *relation.Database
	if _, err := rec.time(parent, request, "relation.csv", func(int) (err error) {
		db, err = serve.DatabaseFromCSV(cy.csv)
		return err
	}); err != nil {
		return err
	}
	if _, err := p.replayQuery(parent, request, db, nil, nil); err != nil {
		return err
	}
	var after *relation.Database
	var stats *relation.Stats
	if _, err := rec.time(parent, request, "relation.apply_delta", func(int) (err error) {
		if after, _, err = relation.ApplyDelta(db, cy.rdelta); err != nil {
			return err
		}
		inc := relation.NewIncrementalStats(db)
		inc.Apply(cy.rdelta)
		stats = inc.Snapshot()
		return nil
	}); err != nil {
		return err
	}
	_, err := p.replayQuery(parent, request, after, stats, nil)
	return err
}
