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
	// trace is the per-query span recorder; nil until EnableTracing.
	trace *trace.Trace
	// roundSpan is the open round's span id (0 between rounds).
	roundSpan uint64
	// traceSent is the last round whose span context was announced to
	// the workers.
	traceSent int
	// snap is Env.Snapshot; attaching holds the open round's scatters
	// believed resident until its barrier (resident.go).
	snap      *Snapshot
	attaching []*residentScatter
	// arity is what Join said each view not yet gathered holds: what a
	// gather reply is checked against.
	arity map[string]int
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

// Env says where and how an execution's rounds run — everything about
// an execution that is neither the query, the data, nor the model
// parameters of mpc.Config. The zero value runs in this process:
// loopback workers, no deadline, no recovery, untraced. Engines and
// front ends hand an Env through to Open unchanged, so a policy set at
// the top (a service's recovery policy, a query's trace) reaches every
// cluster the execution opens.
type Env struct {
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
	Snapshot *Snapshot
}

// Open turns an Env and the model parameters into a ready cluster,
// plus the context its rounds run under. It is the one way an engine
// starts an execution; the caller that supplied env.Transport closes
// it.
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
func Open(env Env, cfg mpc.Config) (*Cluster, context.Context, error) {
	ctx, tr := env.Context, env.Transport
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
	if env.Recovery.Enabled {
		if err := c.EnableRecovery(env.Recovery); err != nil {
			return nil, nil, err
		}
	}
	c.fused = true
	if env.Trace != nil {
		c.EnableTracing(env.Trace)
	}
	c.snap = env.Snapshot
	return c, ctx, nil
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
}

// Outcome returns the cluster's record so far: its statistics, whether
// a round it closed broke the budget, and its replacements.
func (c *Cluster) Outcome() Outcome {
	return Outcome{Stats: &c.stats, CapExceeded: c.capExceeded, Replacements: c.Replacements()}
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
	c.traceBeginRound()
}

// Scatter partitions rel's sealed run through part into per-destination
// sealed runs — parallel sender shards, exactly the in-process shuffle
// path; from a sorted source every shard's runs are in order already —
// accounts their receipt against the open round (opening a fresh
// round if none is), and ships them to the workers under store name
// as.
//
// Under an Env.Snapshot, a scatter through an exchange.Keyed partitioner
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
			rs, lone := c.receivingRound()
			bits := int64(rel.Arity() * relation.BitsPerValue(c.cfg.DomainN))
			for w, n := range tuples {
				if n > 0 {
					rs.Account(w, n, n*bits)
				}
			}
			return c.ship(ctx, rs, lone, Op{Kind: OpDeliver, Round: c.round,
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
	return c.deliver(ctx, ds)
}

// ScatterRun is Scatter from a sealed run — a view gathered by
// Gather goes back out for the next round without ever becoming
// tuples. Routing, accounting, journaling and delivery are Scatter's:
// the partitioned buffers are bit-identical to scattering the run's
// materialized tuples. A nil run scatters nothing (the round still
// opens and closes as it would for an empty relation).
func (c *Cluster) ScatterRun(ctx context.Context, run *relation.Run, as string, part exchange.Partitioner) error {
	ds, err := exchange.PartitionRun(as, run, c.cfg.Workers, part)
	if err != nil {
		return fmt.Errorf("dist: scatter: %w", err)
	}
	return c.deliver(ctx, ds)
}

// deliver accounts the partitioned runs' receipt against the open
// round (opening a lone round if none is) and ships them.
func (c *Cluster) deliver(ctx context.Context, ds []exchange.Delivery) error {
	rs, lone := c.receivingRound()
	bitsPer := relation.BitsPerValue(c.cfg.DomainN)
	for _, d := range ds {
		if n := int64(d.Buf.Len()); n > 0 {
			rs.Account(d.To, n, d.Buf.Bits(bitsPer))
		}
	}
	return c.ship(ctx, rs, lone, Op{Kind: OpDeliver, Round: c.round, Deliveries: ds})
}

// ScatterDelta partitions a sealed run of delta tuples through part —
// the same partitioner as the base scatter, so each delta tuple reaches
// exactly the workers that replicate it — and ships them as delta
// deliveries maintaining store: retractions (del) tombstone, and
// extensions append, additionally registering under view when it is
// non-empty. The run is routed as it is (exchange.PartitionRun), every
// row received, a repeated one once per occurrence. Receipt is accounted
// against the open round exactly like Scatter; the
// incremental-maintenance cost bound (replication factor per tuple, not
// O(N)) is thereby measured, not assumed.
func (c *Cluster) ScatterDelta(ctx context.Context, run *relation.Run, store, view string, del bool, part exchange.Partitioner) error {
	ds, err := exchange.PartitionRun(store, run, c.cfg.Workers, part)
	if err != nil {
		return fmt.Errorf("dist: scatter delta: %w", err)
	}
	rs, lone := c.receivingRound()
	bitsPer := relation.BitsPerValue(c.cfg.DomainN)
	dds := make([]DeltaDelivery, 0, len(ds))
	for _, d := range ds {
		if n := int64(d.Buf.Len()); n > 0 {
			rs.Account(d.To, n, d.Buf.Bits(bitsPer))
			dds = append(dds, DeltaDelivery{To: d.To, Store: store, View: view, Del: del, Buf: d.Buf})
		}
	}
	return c.ship(ctx, rs, lone, Op{Kind: OpDelta, Round: c.round, Deltas: dds})
}

// receivingRound returns the record of the round a scatter is received
// in: the open round, or a lone round of its own — which ship then
// closes — when none is.
func (c *Cluster) receivingRound() (rs *mpc.RoundStats, lone bool) {
	if lone = !c.open; lone {
		c.BeginRound()
		c.open = false
	}
	return &c.stats.Rounds[len(c.stats.Rounds)-1], lone
}

// ship submits one already-accounted scatter of the current round — a
// delivery or a delta. A lone scatter is a round of its own, so it also
// closes it.
func (c *Cluster) ship(ctx context.Context, rs *mpc.RoundStats, lone bool, op Op) error {
	if lone {
		defer c.traceCloseRound(rs)
	}
	if err := c.traceAnnounce(ctx); err != nil {
		return err
	}
	if op.lazy != nil {
		// Believed resident: the round's close asks the workers, and
		// journals the scatter once it has.
		c.attaching = append(c.attaching, op.lazy)
	} else if err := c.submit(ctx, op); err != nil {
		return err
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
	defer c.traceCloseRound(rs)
	return c.closeRound(ctx, rs)
}

// Join has every worker evaluate q over its stored runs — local
// computation, free in the MPC cost model, and one evaluator
// (localjoin.EvaluateRuns) — and keep the result under view. bindings
// maps atom names to store names when they differ. The last parameter is
// inert; callers pass 0.
func (c *Cluster) Join(ctx context.Context, q *query.Query, bindings map[string]string, view string, _ localjoin.Strategy /* pinned by bench/probes.go:474 */) error {
	span := c.tracePhase("join")
	defer c.tracePhaseEnd(span)
	c.arity[view] = q.NumVars()
	return c.submit(ctx, Op{Kind: OpJoin, Join: JoinSpec{Query: q.String(), View: view, Bindings: bindings}})
}

// Gather returns the union of what every worker holds under view — the
// cluster-wide answer of a query whose per-worker outputs were stored by
// Join — as one sealed, deduplicated run: the per-worker sorted runs
// k-way merge (relation.Merge, on either layout), and the coordinator
// diffs, projects, folds, re-scatters or replies from that run without
// building tuples. The run is nil when no worker holds anything under
// view.
func (c *Cluster) Gather(ctx context.Context, view string) (*relation.Run, error) {
	span := c.tracePhase("gather")
	defer c.tracePhaseEnd(span)
	runs, err := c.gatherRuns(ctx, view)
	if err != nil {
		return nil, err
	}
	return relation.Merge(runs), nil
}

// gatherRuns fetches the sealed runs every worker holds under view, in
// worker order, behind whatever the round script still holds. The reply
// is input: every run must have the arity a Join of this cluster gave
// the view — or, for a view no Join filled, the arity of the others —
// before anything merges them.
func (c *Cluster) gatherRuns(ctx context.Context, view string) ([]*relation.Run, error) {
	reply, err := c.run(ctx, Op{Kind: OpGather, View: view})
	if err != nil {
		return nil, err
	}
	want, joined := c.arity[view]
	delete(c.arity, view)
	for i, run := range reply.Runs {
		if !joined {
			want, joined = run.Arity(), true
		}
		if run.Arity() != want {
			err := fmt.Errorf("dist: gather of %q answered with an arity-%d run, the view holds arity %d", view, run.Arity(), want)
			if i < len(reply.From) {
				err = &WorkerError{Worker: reply.From[i], Err: err}
			}
			return nil, err
		}
	}
	return reply.Runs, nil
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
