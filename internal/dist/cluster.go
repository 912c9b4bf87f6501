package dist

import (
	"context"
	"fmt"

	"repro/internal/exchange"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Cluster drives MPC(ε) bulk-synchronous rounds against a worker pool
// through a Transport. It is the one implementation of the paper's
// machine model (§2.1): the coordinator plays the input servers (§2.4)
// — partitioning base relations through the columnar exchange layer —
// and performs the per-round receive accounting against the
// c·N/p^{1−ε} budget. All accounting happens coordinator-side from
// the sizes of the partitioned buffers, before they reach any
// transport, so loopback and TCP executions record identical
// statistics for identical inputs.
//
// A Cluster is driven by a single caller (rounds are inherently
// sequential); the concurrency lives inside Scatter's parallel
// partitioning and the transport's per-worker fan-out.
type Cluster struct {
	cfg   mpc.Config
	tr    Transport
	stats mpc.Stats
	round int
	open  bool
	// capExceeded latches whether a round this cluster closed broke the
	// receive budget.
	capExceeded bool
	// rec is the self-healing state; nil until EnableRecovery.
	rec *recovery
	// fused defers the round script to the next fence — a step whose
	// reply the coordinator consumes — where it leaves as one stream per
	// worker; a stepped cluster sends every step before its call returns.
	// Open fuses; see enqueue.
	fused bool
	// pending is the round script not yet sent.
	pending []Op
	// trace is the per-query span recorder; nil (recording nothing)
	// until EnableTracing.
	trace *trace.Trace
	// roundSpan is the open round's span id (0 between rounds, and
	// always when untraced).
	roundSpan uint64
	// snap is Options.Snapshot; attaching holds the open round's scatters
	// believed resident until its barrier (resident.go).
	snap      *Snapshot
	attaching []*residentScatter
	// arity is what Join said each view not yet gathered holds, or a
	// scatter each store: what a gather reply is checked against.
	arity map[string]int
	// gathered is how many rows the last gather shipped.
	gathered int
}

// NewCluster validates cfg against the transport's pool and returns
// an idle cluster. cfg.Workers must equal tr.Workers(). A cluster made
// here is stepped: every Scatter, EndRound and Join has reached the
// workers when it returns, which is what timing the stages of a round
// apart, or looking at a worker between them, needs. Executions go
// through Open.
func NewCluster(cfg mpc.Config, tr Transport) (*Cluster, error) {
	if tr == nil {
		return nil, fmt.Errorf("dist: nil transport")
	}
	if cfg.Workers != tr.Workers() {
		return nil, fmt.Errorf("dist: config wants %d workers, transport pool has %d", cfg.Workers, tr.Workers())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, tr: tr, arity: make(map[string]int)}, nil
}

// Options is how an execution runs — everything about it that is
// neither the query nor the data. Every engine takes this one value:
// hypercube, skew and multiround name it Options, the planner
// ExecOptions. The zero value runs in this process: loopback workers,
// no deadline, no recovery, untraced, every answer gathered. Engines
// and front ends hand it through unchanged, so a policy set at the top
// (a service's recovery policy, a query's trace) reaches every cluster
// the execution opens.
type Options struct {
	// Seed drives the hash functions (and sampling in
	// hypercube.RunSampled).
	Seed uint64
	// Epsilon is the space exponent of the MPC(ε) model, which sets the
	// receive budget. HyperCube's one-round engine and Hold read it; a
	// multi-round plan runs at its own ε and the skew join at 0.
	Epsilon float64
	// CapConstant is c in the per-round receive budget c·N/p^{1−ε};
	// ≤ 0 disables enforcement.
	CapConstant float64
	// AnswerLimit is how many rows of the answer reach the coordinator:
	// 0 all of them, k > 0 the first k in the answer's order, a negative
	// limit none. An engine's Count counts every answer either way. The
	// one-round engines honor it, and a multi-round plan's last round
	// when its view is already in the query's variable order, by leaving
	// the rest on the workers; where the rows must be re-sorted or
	// folded first, everything is gathered.
	AnswerLimit int
	// Pipeline is read by nothing: there is one round schedule, and
	// Open runs it. The name stays because the benchmark's probes set
	// it; ROADMAP item 7 deletes it.
	Pipeline bool
	// Transport is the worker pool: nil opens an in-process loopback
	// of cfg.Workers workers, a *TCP runs the rounds against remote
	// mpcworker processes. The pool size must equal cfg.Workers. A
	// transport carries one execution at a time — do not share one
	// across concurrent executions; a reset session may carry the next.
	Transport Transport
	// Context bounds the execution (cancellation, deadline); nil
	// selects context.Background().
	Context context.Context
	// Recovery is the self-healing policy: with Enabled set, a worker
	// failure at any round triggers replacement and replay of that
	// worker's inputs — the execution resumes at the round it was in
	// instead of aborting. The transport must support it (loopback and
	// TCP do).
	Recovery RecoveryOptions
	// Trace, when non-nil, records per-round per-worker spans of the
	// execution (see Cluster.EnableTracing).
	Trace *trace.Trace
	// Snapshot, when non-nil, identifies the immutable dataset version
	// the relations handed to Cluster.Scatter belong to, by name, so a
	// scatter the workers already keep is attached to instead of re-sent
	// (see Residency). Nil: nothing is known, every scatter is shipped.
	// A multi-round plan's snapshot covers its first round's scatters; a
	// view re-scattered later has no identity.
	Snapshot *Snapshot
}

// Open turns opts and the model parameters into a ready cluster, plus
// the context its rounds run under. It is the one way an engine starts
// an execution; the caller that supplied opts.Transport closes it. It
// reads where and how the rounds run (Transport, Context, Recovery,
// Trace, Snapshot); ε and the cap constant reach the cluster through
// cfg.
//
// The cluster runs the fused schedule: Scatter, EndRound and Join
// journal and queue their steps, and the next fence — a Gather, a
// Flush, or the attach of a round with resident scatters — sends the
// script as one stream per worker. Each worker answers in order, so it
// starts its local join the moment its own data has arrived while other
// workers' frames are still in flight, and a round costs one exchange
// instead of three. What the model charges is accounted when a scatter
// is partitioned, before any transport, so answers and statistics do
// not depend on when a step leaves; work still queued when the cluster
// is dropped without a final fence is discarded.
func Open(opts Options, cfg mpc.Config) (*Cluster, context.Context, error) {
	ctx, tr := opts.Context, opts.Transport
	if ctx == nil {
		ctx = context.Background()
	}
	if tr == nil {
		tr = NewLoopback(cfg.Workers)
	}
	c, err := NewCluster(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	if opts.Recovery.Enabled {
		if err := c.EnableRecovery(opts.Recovery); err != nil {
			return nil, nil, err
		}
	}
	c.fused = true
	c.EnableTracing(opts.Trace)
	c.snap = opts.Snapshot
	return c, ctx, nil
}

// EnableTracing attaches a per-query trace to the cluster: every round
// records one "round" span plus one "worker" child span per worker
// carrying the actual received load (tuples and bits) that the
// planner's predicted L bounds, joins and gathers record phase spans,
// and recovery replacements record events. Call it before the first
// round; a nil trace records nothing.
//
// The trace is the coordinator's: nothing of it is sent to a worker,
// and a worker's failure is attributed where the trace is kept. A
// "join" span covers submitting the join: on a fused cluster the
// workers evaluate it at the next fence, so its time shows under
// "gather".
//
// Span ids are assigned in coordinator call order, so identical
// executions over different transports produce identical span trees —
// the same by-construction argument as the cluster's statistics.
func (c *Cluster) EnableTracing(t *trace.Trace) {
	c.trace = t
	if t != nil && t.P == 0 {
		t.P = c.cfg.Workers
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() mpc.Config { return c.cfg }

// Workers returns the pool size p.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// Stats returns the accumulated per-round communication record.
func (c *Cluster) Stats() *mpc.Stats { return &c.stats }

// Outcome is what an execution reports besides its answer; every
// engine's result embeds it.
type Outcome struct {
	// Stats is the communication record.
	Stats *mpc.Stats
	// CapExceeded reports whether some round broke the per-worker
	// receive budget — informational, the round still ran.
	CapExceeded bool
	// Replacements counts the workers the recovery policy replaced (0
	// when recovery is off or nothing failed).
	Replacements int
	// Gathered is how many rows the last gather shipped to the
	// coordinator — an engine's answer gather, which a limit bounds by p
	// times the limit.
	Gathered int
}

// Outcome returns the cluster's record so far: its statistics, whether
// a round it closed broke the budget, its replacements and the rows its
// last gather shipped.
func (c *Cluster) Outcome() Outcome {
	return Outcome{Stats: &c.stats, CapExceeded: c.capExceeded, Replacements: c.Replacements(), Gathered: c.gathered}
}

// BeginRound opens a communication round into which subsequent
// Scatter calls accumulate (all input servers transmit in one round).
func (c *Cluster) BeginRound() {
	c.round++
	c.open = true
	c.stats.Rounds = append(c.stats.Rounds, mpc.RoundStats{
		Round:           c.round,
		PerWorkerBits:   make([]int64, c.cfg.Workers),
		PerWorkerTuples: make([]int64, c.cfg.Workers),
	})
	c.roundSpan = c.trace.StartSpan(0, "round", c.round, -1)
}

// Scatter partitions rel's sealed run through part into per-destination
// sealed runs — parallel sender shards, exactly the in-process shuffle
// path; from a sorted source every shard's runs are in order already —
// accounts their receipt against the open round (opening a fresh
// round if none is), and ships them to the workers under store name
// as.
//
// Under an Options.Snapshot, a scatter through an exchange.Keyed partitioner
// has an identity. Its second execution asks the workers to retain their
// slices; from then on Scatter partitions and sends nothing: it charges
// the round the recorded per-destination counts — a fresh scatter's
// statistics, which is what the model charges — and the workers attach
// to what they kept, ahead of the round's barrier.
func (c *Cluster) Scatter(ctx context.Context, rel *relation.Relation, as string, part exchange.Partitioner) error {
	if as == "" {
		as = rel.Name
	}
	key, retain := c.scatterKey(rel, part), false
	if key != "" {
		var tuples []int64
		if tuples, retain = c.snap.res.sight(key); tuples != nil {
			return c.ship(ctx, Op{Kind: OpDeliver,
				lazy: &residentScatter{rel: rel, as: as, key: key, part: part, tuples: tuples}})
		}
	}
	ds, err := exchange.PartitionRun(as, rel.Run(), c.cfg.Workers, part)
	if err != nil {
		return fmt.Errorf("dist: scatter: %w", err)
	}
	if retain {
		c.retain(key, ds)
	}
	return c.ship(ctx, Op{Kind: OpDeliver, Deliveries: ds})
}

// ScatterRun is Scatter from a sealed run — a view gathered by
// Gather goes back out for the next round without ever becoming
// tuples. Routing, accounting, journaling and delivery are Scatter's:
// the partitioned buffers are bit-identical to scattering the run's
// materialized tuples. A nil run scatters nothing (the round still
// opens and closes as it would for an empty relation).
func (c *Cluster) ScatterRun(ctx context.Context, run *relation.Run, as string, part exchange.Partitioner) error {
	return c.ScatterDelta(ctx, run, as, "", false, part)
}

// ScatterDelta partitions a sealed run of delta tuples through part —
// the same partitioner as the base scatter, so each delta tuple reaches
// exactly the workers that replicate it — and ships them maintaining
// store: a retraction (del) rewrites the store, and extensions append,
// additionally registering under view when it is non-empty. The run is
// routed as it is (exchange.PartitionRun), every row received, a
// repeated one once per occurrence. Receipt is accounted against the
// open round exactly like Scatter; the incremental-maintenance cost bound
// (replication factor per tuple, not O(N)) is thereby measured, not
// assumed.
func (c *Cluster) ScatterDelta(ctx context.Context, run *relation.Run, store, view string, del bool, part exchange.Partitioner) error {
	ds, err := exchange.PartitionRun(store, run, c.cfg.Workers, part)
	if err != nil {
		return fmt.Errorf("dist: scatter: %w", err)
	}
	return c.ship(ctx, Op{Kind: OpDeliver, Deliveries: ds, View: view, Del: del})
}

// Absorb relays pieces a Route returned to the workers they are for,
// absorbed into store: each receiver keeps the rows its store does not
// hold yet and registers those under view. What a worker's store holds
// is what the store's routing sent it, so the rows a receiver keeps are
// exactly the new ones. The pieces bound for one worker cross as one
// run, their sorted union — a merge of what p senders derived for it, the
// one thing the coordinator does to them: p² frames a round cost the
// workers more than the merge costs here. Receipt is accounted against
// the open round exactly like ScatterDelta's, and the runs are journaled
// for replay like any delivery.
func (c *Cluster) Absorb(ctx context.Context, pieces []Piece, store, view string) error {
	byDest := make([][]*relation.Run, c.cfg.Workers)
	for _, pc := range pieces {
		byDest[pc.To] = append(byDest[pc.To], pc.Buf)
	}
	ds := make([]exchange.Delivery, 0, len(byDest))
	for to, runs := range byDest {
		if len(runs) == 0 {
			continue
		}
		run := runs[0]
		if len(runs) > 1 {
			run = relation.Merge(runs)
		}
		if run.Len() > 0 {
			ds = append(ds, exchange.Delivery{To: to, Rel: store, Buf: run})
		}
	}
	return c.ship(ctx, Op{Kind: OpDeliver, Deliveries: ds, View: view, Absorb: true})
}

// ship charges one scatter to the round it is received in — what op
// carries, or a resident scatter's recorded counts — and submits it: the
// one place a scatter is accounted. The round is the open one, or a lone
// round of its own when none is, which ship then closes.
func (c *Cluster) ship(ctx context.Context, op Op) error {
	lone := !c.open
	if lone {
		c.BeginRound()
		c.open = false
	}
	rs := &c.stats.Rounds[len(c.stats.Rounds)-1]
	if lone {
		defer c.endRoundSpan(rs)
	}
	op.Round = c.round
	bitsPer := relation.BitsPerValue(c.cfg.DomainN)
	if s := op.lazy; s != nil {
		// Believed resident: the round's close asks the workers, and
		// journals the scatter once it has.
		bits := int64(s.rel.Arity() * bitsPer)
		for w, n := range s.tuples {
			if n > 0 {
				rs.Account(w, n, n*bits)
			}
		}
		c.arity[s.as] = s.rel.Arity()
		c.attaching = append(c.attaching, s)
	} else {
		for _, d := range op.Deliveries {
			if n := int64(d.Buf.Len()); n > 0 {
				rs.Account(d.To, n, d.Buf.Bits(bitsPer))
			}
			c.arity[d.Rel] = d.Buf.Arity()
		}
		if err := c.submit(ctx, op); err != nil {
			return err
		}
	}
	if !lone {
		return nil
	}
	return c.closeRound(ctx, rs)
}

// submit journals one step and adds it to the round script.
func (c *Cluster) submit(ctx context.Context, op Op) error {
	c.journal(op)
	return c.enqueue(ctx, op)
}

// enqueue adds one step to the round script, which a fused cluster
// leaves for the next fence and a stepped one sends at once. This is
// the one place the two schedules differ.
func (c *Cluster) enqueue(ctx context.Context, op Op) error {
	c.pending = append(c.pending, op)
	if c.fused {
		return nil
	}
	_, err := c.run(ctx)
	return err
}

// run sends the round script, tail behind it, and returns what its
// answered steps replied: the fence. With nothing to send it is a no-op.
func (c *Cluster) run(ctx context.Context, tail ...Op) (Reply, error) {
	ops := append(c.pending, tail...)
	c.pending = nil
	if len(ops) == 0 {
		return Reply{}, nil
	}
	return c.attempt(ctx, ops)
}

// closeRound synchronizes the pool on rs's round — resident scatters
// attach first, then the barrier — and enforces the receive budget. The
// check is coordinator-local (accounting happened at Scatter), so it
// gives the same verdict whether or not the barrier has left yet.
func (c *Cluster) closeRound(ctx context.Context, rs *mpc.RoundStats) error {
	if err := c.attach(ctx); err != nil {
		return err
	}
	if err := c.submit(ctx, Op{Kind: OpBarrier, Round: c.round}); err != nil {
		return err
	}
	err := rs.CheckCap(c.cfg.ReceiveCap())
	c.capExceeded = c.capExceeded || err != nil
	return err
}

// EndRound closes the round opened by BeginRound: it synchronizes the
// pool (every worker has ingested the round's runs) and enforces the
// receive budget, returning an mpc.ErrCapExceeded-wrapping error on a
// violation — which Outcome remembers, so a caller may go on past it.
func (c *Cluster) EndRound(ctx context.Context) error {
	if !c.open {
		return fmt.Errorf("dist: EndRound without BeginRound")
	}
	c.open = false
	rs := &c.stats.Rounds[len(c.stats.Rounds)-1]
	defer c.endRoundSpan(rs)
	return c.closeRound(ctx, rs)
}

// endRoundSpan records one "worker" span per worker carrying the
// round's actual received load from the coordinator-side accounting,
// then closes the round span. Zero-load workers get a span too: the
// trace answers "what did every worker receive this round", and a zero
// is an answer.
func (c *Cluster) endRoundSpan(rs *mpc.RoundStats) {
	if c.roundSpan == 0 {
		return
	}
	for w := 0; w < c.cfg.Workers; w++ {
		id := c.trace.StartSpan(c.roundSpan, "worker", rs.Round, w)
		c.trace.SetSpanLoad(id, rs.PerWorkerTuples[w], rs.PerWorkerBits[w])
		c.trace.EndSpan(id)
	}
	c.trace.EndSpan(c.roundSpan)
	c.roundSpan = 0
}

// Join has every worker evaluate q over its stored runs — local
// computation, free in the MPC cost model, and one evaluator
// (localjoin.EvaluateRuns) — and keep the result under view. bindings
// maps atom names to store names when they differ. The last parameter is
// inert; callers pass 0.
func (c *Cluster) Join(ctx context.Context, q *query.Query, bindings map[string]string, view string, _ localjoin.Strategy /* pinned by bench/probes.go:474 */) error {
	defer c.trace.EndSpan(c.trace.StartSpan(0, "join", c.round, -1))
	c.arity[view] = q.NumVars()
	return c.submit(ctx, Op{Kind: OpJoin, Join: JoinSpec{Query: q.String(), View: view, Bindings: bindings}})
}

// Route has every worker project what it holds under view onto cols,
// drop the repeats and partition the rest through each of grids, and
// returns what that derived: one piece per worker, grid and destination
// that received rows, in worker order. It is a fence like a gather and
// charges nothing — a piece is paid for where it is received (Absorb).
// The reply is input: a piece for a grid the step did not name, for a
// point outside its grid, of another arity than cols, or not sealed is
// its sender's *WorkerError.
func (c *Cluster) Route(ctx context.Context, view string, cols []int, grids []*exchange.Grid) ([]Piece, error) {
	span := c.trace.StartSpan(0, "route", c.round, -1)
	defer c.trace.EndSpan(span)
	reply, err := c.run(ctx, Op{Kind: OpRoute, Route: wire.Route{View: view, Cols: cols, Grids: grids}})
	if err != nil {
		return nil, err
	}
	delete(c.arity, view)
	rows := 0
	for _, pc := range reply.Pieces {
		switch {
		case pc.Target < 0 || pc.Target >= len(grids):
			err = fmt.Errorf("dist: route of %q answered with a piece for grid %d of %d", view, pc.Target, len(grids))
		case pc.To < 0 || pc.To >= grids[pc.Target].Size():
			err = fmt.Errorf("dist: route of %q answered with a piece for point %d of a %d-point grid", view, pc.To, grids[pc.Target].Size())
		case pc.Buf == nil || pc.Buf.Arity() != len(cols):
			err = fmt.Errorf("dist: route of %q onto %d columns answered with a piece of another arity", view, len(cols))
		case !pc.Buf.Sealed():
			err = fmt.Errorf("dist: route of %q answered with an unsealed piece", view)
		default:
			rows += pc.Buf.Len()
			continue
		}
		return nil, &WorkerError{Worker: pc.From, Err: err}
	}
	if c.trace != nil {
		c.trace.SetSpanLoad(span, int64(rows), 0)
	}
	return reply.Pieces, nil
}

// Gather returns the union of what every worker holds under view — the
// cluster-wide answer of a query whose per-worker outputs were stored by
// Join — as one sealed, deduplicated run: the per-worker sorted runs
// k-way merge (relation.Merge, on either layout), and the coordinator
// diffs, projects, folds, re-scatters or replies from that run without
// building tuples. The run is nil when no worker holds anything under
// view. It is GatherPrefix with no limit.
func (c *Cluster) Gather(ctx context.Context, view string) (*relation.Run, error) {
	run, _, err := c.GatherPrefix(ctx, view, 0)
	return run, err
}

// GatherPrefix is the one gather: the first limit rows of the union of
// what every worker holds under view, and how many rows that union
// holds. A zero limit gathers every row, as Gather, and counts the merged
// run. A positive limit has each worker stream only the first limit rows
// of its sealed view and report its full row count: the coordinator
// merges at most p·limit rows, keeps the first limit, and sums the
// counts. A negative limit gathers no row, only the counts.
//
// Under a limit the sum is the union's size, and the first rows of the
// union lie among the workers' first rows, only when no row is held by
// two workers. Every engine's join output is such a view — an answer
// exists only at the grid point its values hash to, or, under the skew
// engine, on the one server its split-side tuple was dealt to, whatever
// the input repeats — and a view whose workers may overlap is gathered
// whole.
func (c *Cluster) GatherPrefix(ctx context.Context, view string, limit int) (*relation.Run, int, error) {
	return c.GatherCells(ctx, view, limit, nil)
}

// GatherCells is GatherPrefix reading only the workers cells names (nil:
// every worker): the canonical cells of a grid, whose stores hold each
// row the grid placed exactly once, answer for the whole store under a
// limit.
func (c *Cluster) GatherCells(ctx context.Context, view string, limit int, cells []int) (*relation.Run, int, error) {
	span := c.trace.StartSpan(0, "gather", c.round, -1)
	defer c.trace.EndSpan(span)
	reply, err := c.gatherRuns(ctx, view, limit, cells)
	if err != nil {
		return nil, 0, err
	}
	merged := relation.Merge(reply.Runs)
	shipped, held := 0, 0
	for _, run := range reply.Runs {
		shipped += run.Len()
	}
	for _, n := range reply.Rows {
		held += n
	}
	c.gathered = shipped
	if c.trace != nil {
		c.trace.SetSpanLoad(span, int64(shipped), 0)
		c.trace.SetSpanNote(span, fmt.Sprintf("%d of %d rows shipped", shipped, held))
	}
	if limit == 0 {
		return merged, merged.Len(), nil
	}
	return merged.Prefix(limit), held, nil
}

// gatherRuns fetches the sealed runs every worker holds under view — at
// most limit rows from each, none for a negative limit — in worker
// order, behind whatever the round script still holds. The reply is
// input: every run must have the arity a Join of this cluster gave the
// view — or, for a view no Join filled, the arity of the others — before
// anything merges them, and no worker may stream more rows than it was
// asked for or than it counts.
func (c *Cluster) gatherRuns(ctx context.Context, view string, limit int, cells []int) (Reply, error) {
	reply, err := c.run(ctx, Op{Kind: OpGather, View: view, Limit: limit, Cells: cells})
	if err != nil {
		return Reply{}, err
	}
	want, joined := c.arity[view]
	delete(c.arity, view)
	streamed := make([]int, c.cfg.Workers)
	for i, run := range reply.Runs {
		if !joined {
			want, joined = run.Arity(), true
		}
		if run.Arity() != want {
			err := fmt.Errorf("dist: gather of %q answered with an arity-%d run, the view holds arity %d", view, run.Arity(), want)
			if i < len(reply.From) {
				err = &WorkerError{Worker: reply.From[i], Err: err}
			}
			return Reply{}, err
		}
		if i < len(reply.From) {
			streamed[reply.From[i]] += run.Len()
		}
	}
	for w, n := range streamed {
		counted := 0
		if w < len(reply.Rows) {
			counted = reply.Rows[w]
		}
		switch {
		case limit > 0 && n > limit, limit < 0 && n > 0:
			err = fmt.Errorf("dist: gather of %q with a limit of %d rows answered with %d", view, max(limit, 0), n)
		case n > counted:
			err = fmt.Errorf("dist: gather of %q answered with %d rows, the worker counts %d", view, n, counted)
		default:
			continue
		}
		return Reply{}, &WorkerError{Worker: w, Err: err}
	}
	return reply, nil
}

// Flush sends the round script without gathering anything: the fence of
// a step that ends at its barrier, so that no caller returns with work
// still queued (a retraction-only maintenance batch has no view to
// gather). It is a no-op with nothing queued — always, on a stepped
// cluster.
func (c *Cluster) Flush(ctx context.Context) error {
	_, err := c.run(ctx)
	return err
}

// Close closes the underlying transport session.
func (c *Cluster) Close() error { return c.tr.Close() }
