package dist

import (
	"context"

	"repro/internal/mpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// EnableTracing attaches a per-query trace to the cluster: every round
// records one "round" span plus one "worker" child span per worker
// carrying the actual received load (tuples and bits) that the
// planner's predicted L bounds, joins and gathers record phase spans,
// and recovery replacements record events. The span context is
// propagated coordinator→worker once per round, as an OpTrace step
// ahead of the round's first scatter. Call it before the first round; a
// nil trace disables tracing.
//
// A "join" span covers submitting the join: on a fused cluster the
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

// traceBeginRound opens the round span; BeginRound calls it.
func (c *Cluster) traceBeginRound() {
	if c.trace == nil {
		return
	}
	c.roundSpan = c.trace.StartSpan(0, "round", c.round, -1)
}

// traceAnnounce puts the current round's span context into the round
// script, once per round, so the header precedes the round's data frames
// in each worker's stream. It is not journaled: a replacement worker
// gets fresh data frames from replay, and the header is observability,
// not state.
func (c *Cluster) traceAnnounce(ctx context.Context) error {
	if c.trace == nil || c.traceSent == c.round {
		return nil
	}
	c.traceSent = c.round
	return c.enqueue(ctx, Op{Kind: OpTrace, Trace: wire.TraceHeader{
		TraceID: c.trace.TraceID,
		Span:    c.roundSpan,
		Round:   uint32(c.round),
		QueryID: c.trace.QueryID,
	}})
}

// traceCloseRound emits one "worker" span per worker carrying the
// round's actual received load from the coordinator-side accounting,
// then closes the round span. Zero-load workers get a span too: the
// trace answers "what did every worker receive this round", and a zero
// is an answer.
func (c *Cluster) traceCloseRound(rs *mpc.RoundStats) {
	if c.trace == nil || c.roundSpan == 0 {
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

// tracePhase opens a coordinator-side phase span ("join", "gather")
// and returns its id, 0 when tracing is off.
func (c *Cluster) tracePhase(name string) uint64 {
	if c.trace == nil {
		return 0
	}
	return c.trace.StartSpan(0, name, c.round, -1)
}

// tracePhaseEnd closes a phase span opened by tracePhase.
func (c *Cluster) tracePhaseEnd(id uint64) {
	if c.trace == nil || id == 0 {
		return
	}
	c.trace.EndSpan(id)
}

// traceEvent records a recovery event on the trace.
func (c *Cluster) traceEvent(name string, worker int, note string) {
	if c.trace == nil {
		return
	}
	c.trace.Event(0, name, worker, note)
}
