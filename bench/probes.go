package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/wire"
)

// runSeed is the hash seed mpcserve uses when a request sets none.
const runSeed = 1

// prober measures single layers from outside: it times calls into the
// packages' public functions on the workload's real inputs, in the
// harness's own process. Every timed call is a span under one "probe"
// root; each metric is the median of sc.ProbeReps calls.
type prober struct {
	ctx     context.Context
	rec     *recorder
	root    int
	sc      scale
	wl      workload
	in      *inputs
	cy      *cycle
	workers []string
	out     map[string]float64

	eps   *big.Rat
	view  *relation.Database // cy.probeDB bound to in.q
	stats *relation.Stats    // of cy.probeDB
	pl    *plan.Plan
	prog  *datalog.Program // reach_warm only
}

func newProber(ctx context.Context, rec *recorder, sc scale, wl workload, in *inputs, workers []string) (*prober, error) {
	p := &prober{ctx: ctx, rec: rec, sc: sc, wl: wl, in: in, cy: in.cycles[0], workers: workers, out: map[string]float64{}}
	if in.req.Epsilon != "" {
		var ok bool
		if p.eps, ok = new(big.Rat).SetString(in.req.Epsilon); !ok {
			return nil, fmt.Errorf("bad eps %q", in.req.Epsilon)
		}
	}
	var err error
	if p.view, err = bind(in.q, p.cy.probeDB); err != nil {
		return nil, err
	}
	p.stats = relation.CollectStats(p.cy.probeDB)
	if p.pl, err = plan.Build(in.q, p.stats, p.planOptions()); err != nil {
		return nil, err
	}
	if in.req.Program != "" {
		if p.prog, err = datalog.Parse(in.req.Program); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *prober) planOptions() plan.Options { return plan.Options{P: p.sc.P, Epsilon: p.eps} }

// bind resolves q against db the way POST /query does: a per-request
// view whose relations carry the atoms' variables as schema.
func bind(q *query.Query, db *relation.Database) (*relation.Database, error) {
	ds, err := serve.NewRegistry().Add("probe", db)
	if err != nil {
		return nil, err
	}
	return ds.Snapshot().Bind(q)
}

// slowProbe is the timed total after which a probe stops early, once
// it has minProbeReps samples: a call that takes seconds (the
// incremental statistics on a skewed delta do) would otherwise spend
// most of the traced run on one number.
const (
	slowProbe    = 2 * time.Second
	minProbeReps = 3
)

// timer times the part of a probe call that counts; what a probe does
// around its timer call is preparation and cleanup.
type timer func(part func() error) error

// probe runs fn ProbeReps times (fewer for a slowProbe) and returns the
// median, in ms, of the part fn passes to timed; preparation and
// cleanup around it are not timed. Each timed part is one span named
// name.
func (p *prober) probe(name string, fn func(timed timer) error) (float64, error) {
	var samples []float64
	var spent time.Duration
	for i := 0; i < p.sc.ProbeReps && (i < minProbeReps || spent < slowProbe); i++ {
		err := fn(func(part func() error) error {
			d, err := p.rec.time(p.root, 0, name, func(int) error { return part() })
			samples = append(samples, ms(d))
			spent += d
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		if err := p.ctx.Err(); err != nil {
			return 0, err
		}
	}
	return median(samples), nil
}

// simple probes a call that needs no preparation.
func (p *prober) simple(name string, fn func() error) (float64, error) {
	return p.probe(name, func(timed timer) error { return timed(fn) })
}

// parseRequest is the front end's work for this workload's request.
func (p *prober) parseRequest() error {
	var err error
	switch {
	case p.in.req.Family != "":
		_, err = query.ParseFamily(p.in.req.Family)
	case p.in.req.Query != "":
		_, err = query.Parse(p.in.req.Query)
	default:
		_, err = query.Parse(p.in.q.String())
	}
	return err
}

// run measures every layer probe into p.out.
func (p *prober) run() error {
	p.root = p.rec.start(0, 0, "probe")
	defer p.rec.end(p.root)
	for _, step := range []func() error{
		p.frontEnd, p.relationLayer, p.planLayer, p.executeLayer,
		p.dataPath, p.distLayer, p.maintainerLayer, p.serveLayer,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) frontEnd() error {
	v, err := p.simple("query.parse", p.parseRequest)
	if err != nil {
		return err
	}
	p.out["query.parse_us"] = v * 1000
	v, err = p.simple("datalog.parse", func() error { _, err := datalog.Parse(reachProgram); return err })
	p.out["datalog.parse_us"] = v * 1000
	return err
}

// relationLayer times ingestion: CSV parse, the full statistics scan,
// and the delta path the way serve.Dataset applies it.
func (p *prober) relationLayer() error {
	var err error
	db, delta := p.cy.db, p.cy.rdelta
	if p.out["relation.csv_ms"], err = p.simple("relation.csv", func() error {
		_, err := serve.DatabaseFromCSV(p.cy.csv)
		return err
	}); err != nil {
		return err
	}
	if p.out["relation.stats_ms"], err = p.simple("relation.stats", func() error {
		relation.CollectStats(p.cy.probeDB)
		return nil
	}); err != nil {
		return err
	}
	if p.out["relation.apply_delta_ms"], err = p.simple("relation.apply_delta", func() error {
		_, _, err := relation.ApplyDelta(db, delta)
		return err
	}); err != nil {
		return err
	}
	if p.out["relation.incstats_seed_ms"], err = p.simple("relation.incstats_seed", func() error {
		relation.NewIncrementalStats(db)
		return nil
	}); err != nil {
		return err
	}
	incApply := func(d relation.Delta) func(timer) error {
		return func(timed timer) error {
			inc := relation.NewIncrementalStats(db)
			return timed(func() error { inc.Apply(d); return nil })
		}
	}
	if p.out["relation.incstats_apply_ms"], err = p.probe("relation.incstats_apply", incApply(delta)); err != nil {
		return err
	}
	// Deleting the smallest keys is the shape the top-k maintenance
	// handles worst; it is recorded for the issue that fixes it.
	oldest := relation.Delta{Deletes: map[string][]relation.Tuple{}}
	for _, name := range db.Names() {
		ts := append([]relation.Tuple(nil), db.Relations[name].Tuples...)
		sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
		oldest.Deletes[name] = ts[:min(8, len(ts))]
	}
	p.out["relation.incstats_oldest_ms"], err = p.probe("relation.incstats_oldest", incApply(oldest))
	return err
}

func (p *prober) planLayer() error {
	var err error
	if p.out["plan.build_ms"], err = p.simple("plan.build", func() error {
		_, err := plan.Build(p.in.q, p.stats, p.planOptions())
		return err
	}); err != nil {
		return err
	}
	v, err := p.simple("plan.explain", func() error { p.pl.Explain(); return nil })
	p.out["plan.explain_us"] = v * 1000
	return err
}

// recovery is the per-execution policy mpcserve arms on a worker pool.
var recovery = dist.RecoveryOptions{Enabled: true}

// execute runs the workload's request the way the service does, on tr
// (nil: the in-process loopback).
func (p *prober) execute(tr dist.Transport, pipeline bool) error {
	opts := plan.ExecOptions{Seed: runSeed, Transport: tr, Context: p.ctx, Pipeline: pipeline}
	if tr != nil {
		opts.Recovery = recovery
	}
	_, err := p.pl.Execute(p.view, opts)
	return err
}

// eval runs the Datalog program; dial, when non-nil, supplies one TCP
// session per rule execution and maintainer, as mpcserve does.
func (p *prober) eval(dial func(int) (dist.Transport, error)) (*datalog.Result, error) {
	return datalog.Eval(p.prog, p.cy.db, datalog.Options{P: p.sc.P, Epsilon: p.eps, Seed: runSeed, Dial: dial, Context: p.ctx})
}

func (p *prober) dialPool(int) (dist.Transport, error) { return dist.DialTCP(p.ctx, p.workers) }

// executeLayer times the whole engine: in-process, then over the real
// pool with the schedule mpcserve ships (sync) and with pipelining.
func (p *prober) executeLayer() error {
	var err error
	p.out["datalog.eval_loopback_ms"], p.out["datalog.iterations"], p.out["plan.execute_tcp_pipelined_ms"] = 0, 0, 0
	if p.prog != nil {
		// A program dials per rule execution, so its TCP number includes
		// the dials; datalog.Options has no pipelined schedule.
		if p.out["plan.execute_loopback_ms"], err = p.simple("plan.execute_loopback", func() error {
			res, err := p.eval(nil)
			if err == nil {
				p.out["datalog.iterations"] = float64(res.Iterations)
			}
			return err
		}); err != nil {
			return err
		}
		p.out["datalog.eval_loopback_ms"] = p.out["plan.execute_loopback_ms"]
		p.out["plan.execute_tcp_ms"], err = p.simple("plan.execute_tcp", func() error {
			_, err := p.eval(p.dialPool)
			return err
		})
		return err
	}
	if p.out["plan.execute_loopback_ms"], err = p.simple("plan.execute_loopback", func() error {
		return p.execute(nil, false)
	}); err != nil {
		return err
	}
	overTCP := func(pipeline bool) func(timer) error {
		return func(timed timer) error {
			tr, err := dist.DialTCP(p.ctx, p.workers)
			if err != nil {
				return err
			}
			defer tr.Close()
			return timed(func() error { return p.execute(tr, pipeline) })
		}
	}
	if p.out["plan.execute_tcp_ms"], err = p.probe("plan.execute_tcp", overTCP(false)); err != nil {
		return err
	}
	p.out["plan.execute_tcp_pipelined_ms"], err = p.probe("plan.execute_tcp_pipelined", overTCP(true))
	return err
}

// dataPath takes one round apart: partition every atom onto the plan's
// share grid, push the deliveries through both codecs, join every
// worker's fragment, and merge the per-worker outputs. The multiround
// and skew engines partition with their own unexported partitioners;
// the grid partition of the same input stands in for them.
func (p *prober) dataPath() error {
	q, shares := p.in.q, p.pl.Shares
	hasher := hypercube.NewHasher(shares, runSeed)
	var deliveries []exchange.Delivery
	input := 0
	var err error
	if p.out["exchange.partition_ms"], err = p.simple("exchange.partition", func() error {
		deliveries, input = deliveries[:0], 0
		for _, a := range q.Atoms {
			rel := p.view.Relations[a.Name]
			input += len(rel.Tuples)
			ds, err := exchange.Partition(a.Name, rel.Tuples, rel.Arity(), p.sc.P, hypercube.NewGridPartitioner(shares, hasher, a))
			if err != nil {
				return err
			}
			deliveries = append(deliveries, ds...)
		}
		return nil
	}); err != nil {
		return err
	}
	routed, modelBits := 0, int64(0)
	frames := make([]*wire.Frame, len(deliveries))
	for i, d := range deliveries {
		routed += d.Buf.Len()
		modelBits += d.Buf.Bits(relation.BitsPerValue(p.view.N))
		frames[i] = &wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Dest: uint32(d.To), Rel: d.Rel, Buf: d.Buf}}
	}
	p.out["exchange.routed_tuples"] = float64(routed)
	p.out["exchange.replication"] = ratio(float64(routed), float64(input))

	// Codecs: the trusted fast path the transports use after the
	// handshake, and the validating path that guards the handshake.
	var stream []byte
	if p.out["wire.encode_ms"], err = p.simple("wire.encode", func() error {
		_, bufs, err := wire.AppendFrames(nil, frames)
		stream = bytes.Join(bufs, nil)
		return err
	}); err != nil {
		return err
	}
	p.out["wire.payload_mb"] = float64(len(stream)) / 1e6
	p.out["wire.bytes_per_model_bit"] = ratio(float64(len(stream)), float64(modelBits))
	if p.out["wire.encode_validating_ms"], err = p.simple("wire.encode_validating", func() error {
		var buf bytes.Buffer
		for _, f := range frames {
			if err := wire.Encode(&buf, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	decodeAll := func(next func() (*wire.Frame, error)) error {
		for n := 0; ; n++ {
			if _, err := next(); errors.Is(err, io.EOF) {
				if n != len(frames) {
					return fmt.Errorf("decoded %d frames, encoded %d", n, len(frames))
				}
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	if p.out["wire.decode_ms"], err = p.simple("wire.decode", func() error {
		return decodeAll(wire.NewTrustedReader(bufio.NewReaderSize(bytes.NewReader(stream), 1<<16)).Next)
	}); err != nil {
		return err
	}
	if p.out["wire.decode_validating_ms"], err = p.simple("wire.decode_validating", func() error {
		rd := bufio.NewReaderSize(bytes.NewReader(stream), 1<<16)
		return decodeAll(func() (*wire.Frame, error) { return wire.Decode(rd) })
	}); err != nil {
		return err
	}

	// Per-worker local joins, one after another: their sum is the CPU
	// the round's joins cost, their maximum the slowest worker.
	fragments := make([]localjoin.Bindings, p.sc.P)
	for w := range fragments {
		fragments[w] = localjoin.Bindings{}
		for _, a := range q.Atoms {
			fragments[w][a.Name] = nil
		}
	}
	for _, d := range deliveries {
		fragments[d.To][d.Rel] = d.Buf.AppendTuples(fragments[d.To][d.Rel])
	}
	outputs := make([][]relation.Tuple, p.sc.P)
	var sums, maxes []float64
	for i := 0; i < p.sc.ProbeReps; i++ {
		sum, slowest := 0.0, 0.0
		for w, b := range fragments {
			d, err := p.rec.time(p.root, 0, "localjoin.evaluate", func(int) error {
				var err error
				outputs[w], err = localjoin.Evaluate(q, b, localjoin.Default)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe localjoin: %w", err)
			}
			sum += ms(d)
			slowest = max(slowest, ms(d))
		}
		sums, maxes = append(sums, sum), append(maxes, slowest)
	}
	p.out["localjoin.sum_ms"], p.out["localjoin.max_ms"] = median(sums), median(maxes)
	p.out["localjoin.skew"] = ratio(median(maxes), median(sums)/float64(p.sc.P))
	runs := make([]*exchange.Buffer, 0, p.sc.P)
	produced := 0
	for _, ts := range outputs {
		produced += len(ts)
		b := exchange.NewBuffer(len(q.Vars()))
		for _, t := range ts {
			b.Append(t)
		}
		b.Seal()
		runs = append(runs, b)
	}
	p.out["localjoin.output_tuples"] = float64(produced)
	merged := 0
	p.out["exchange.merge_ms"], err = p.simple("exchange.merge", func() error {
		merged = len(exchange.MergeRuns(runs))
		return nil
	})
	p.out["exchange.merged_tuples"] = float64(merged)
	return err
}

// answersView is the store name the enacted round's outputs land under.
const answersView = "bench!answers"

// enact re-enacts hypercube.RunWithShares on the plan's shares through
// the public dist.Cluster API, so that the one-round engine's scatter,
// join and gather stages can be timed apart. Each stage is a span
// under parent; the stage durations are returned in that order.
func (p *prober) enact(tr dist.Transport, pl *plan.Plan, view *relation.Database, parent, request int) ([3]time.Duration, error) {
	var d [3]time.Duration
	epsF, _ := pl.Epsilon.Float64()
	cluster, err := dist.NewCluster(mpc.Config{Workers: p.sc.P, Epsilon: epsF, InputBits: view.InputBits(), DomainN: view.N}, tr)
	if err != nil {
		return d, err
	}
	if err := cluster.EnableRecovery(recovery); err != nil {
		return d, err
	}
	hasher := hypercube.NewHasher(pl.Shares, runSeed)
	if d[0], err = p.rec.time(parent, request, "dist.scatter", func(int) error {
		cluster.BeginRound()
		for _, a := range p.in.q.Atoms {
			part := hypercube.NewGridPartitioner(pl.Shares, hasher, a)
			if err := cluster.Scatter(p.ctx, view.Relations[a.Name], a.Name, part); err != nil {
				return err
			}
		}
		if err := cluster.EndRound(p.ctx); err != nil && !errors.Is(err, mpc.ErrCapExceeded) {
			return err
		}
		return nil
	}); err != nil {
		return d, err
	}
	if d[1], err = p.rec.time(parent, request, "dist.join", func(int) error {
		return cluster.Join(p.ctx, p.in.q, nil, answersView, localjoin.Default)
	}); err != nil {
		return d, err
	}
	d[2], err = p.rec.time(parent, request, "dist.gather", func(int) error {
		_, err := cluster.Gather(p.ctx, answersView)
		return err
	})
	return d, err
}

// distLayer times the pool dial every query pays and the three stages
// of a one-round execution over TCP. On workloads whose plan is not
// one-round the stages describe the HyperCube round on the same input,
// not the engine that runs.
func (p *prober) distLayer() error {
	var err error
	if p.out["dist.dial_ms"], err = p.simple("dist.dial", func() error {
		tr, err := dist.DialTCP(p.ctx, p.workers)
		if err != nil {
			return err
		}
		return tr.Close()
	}); err != nil {
		return err
	}
	var stages [3][]float64
	for i := 0; i < p.sc.ProbeReps; i++ {
		tr, err := dist.DialTCP(p.ctx, p.workers)
		if err != nil {
			return err
		}
		d, err := p.enact(tr, p.pl, p.view, p.root, 0)
		tr.Close()
		if err != nil {
			return fmt.Errorf("probe dist stages: %w", err)
		}
		for s := range stages {
			stages[s] = append(stages[s], ms(d[s]))
		}
	}
	p.out["dist.scatter_ms"], p.out["dist.join_ms"], p.out["dist.gather_ms"] = median(stages[0]), median(stages[1]), median(stages[2])
	return nil
}

// maintainerLayer times the continuous-query machinery — the cold
// grid distribution and one delta batch — that reach_warm's fixpoint
// iterations run on.
func (p *prober) maintainerLayer() error {
	_, effects, err := relation.ApplyDelta(p.cy.probeDB, p.cy.rdelta)
	if err != nil {
		return err
	}
	build := func() (*hypercube.Maintainer, error) {
		return hypercube.NewMaintainer(p.in.q, p.view, p.sc.P, hypercube.Options{Seed: runSeed, Context: p.ctx})
	}
	if p.out["hypercube.maintainer_build_ms"], err = p.probe("hypercube.maintainer_build", func(timed timer) error {
		var m *hypercube.Maintainer
		err := timed(func() (err error) { m, err = build(); return err })
		if err == nil {
			err = m.Close()
		}
		return err
	}); err != nil {
		return err
	}
	p.out["hypercube.maintain_ms"], err = p.probe("hypercube.maintain", func(timed timer) error {
		m, err := build()
		if err != nil {
			return err
		}
		defer m.Close()
		return timed(func() error { _, err := m.ApplyDelta(effects); return err })
	})
	return err
}

// serveLayer times the whole POST /query handler in-process on the
// loopback engine, and the reply rendering alone; the handler minus
// plan.execute_loopback_ms is HTTP, JSON, admission and trace-ring
// overhead.
func (p *prober) serveLayer() error {
	srv := serve.New(serve.Config{DefaultP: p.sc.P})
	if _, err := srv.Registry().Add("data", p.cy.db); err != nil {
		return err
	}
	h := srv.Handler()
	req := p.in.req
	req.Dataset = "data"
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var reply *httptest.ResponseRecorder
	post := func() error {
		reply = httptest.NewRecorder()
		h.ServeHTTP(reply, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if reply.Code != http.StatusOK {
			return fmt.Errorf("in-process POST /query: status %d: %.200s", reply.Code, reply.Body.Bytes())
		}
		return nil
	}
	if err := post(); err != nil { // the cold request: statistics and plan
		return err
	}
	if p.out["serve.handler_ms"], err = p.simple("serve.handler", post); err != nil {
		return err
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(reply.Body.Bytes(), &resp); err != nil {
		return err
	}
	p.out["serve.respond_ms"], err = p.simple("serve.respond", func() error { return p.respond(p.pl, &resp) })
	return err
}

// respond renders a reply the way the handler does: EXPLAIN is rebuilt
// on every reply (cached plan or not), then the body is encoded as
// indented JSON.
func (p *prober) respond(pl *plan.Plan, resp *serve.QueryResponse) error {
	if p.prog == nil {
		resp.Explain = pl.Explain()
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}
