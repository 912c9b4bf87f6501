package dist

import (
	"context"
	"fmt"

	"repro/internal/exchange"
)

// This file is the compute/communication overlap of the distributed
// runtime. In the plain BSP execution every phase is a pool-wide
// round trip: scatter, barrier-ack, join-ack, gather — four
// serialized synchronization points per round, during which workers
// that already hold their data sit idle. The paper charges only
// communication, so the runtime should be limited by bytes on the
// wire, not by coordinator round trips.
//
// A pipelined Cluster instead defers every transport operation
// between two Gather calls into a round script. At the Gather — the
// only point whose result the coordinator actually consumes — the
// script is executed as one per-worker stream: each worker receives
// its data frames, barrier, join command and gather request
// back-to-back and answers them in order, so it starts its local join
// the moment its own data has arrived, while other workers' frames
// are still in flight. The BSP barrier is thereby reduced to a
// completion fence inside each worker's stream rather than a
// pool-wide stall, without changing what any worker computes: frames
// on a session are processed in order, so per-worker semantics are
// identical to the unpipelined schedule.
//
// Statistics are unaffected by construction — the coordinator
// accounts received bits when it partitions, before any transport —
// and the journal/recovery path composes: deferred operations are
// journaled when deferred, a worker that dies mid-stream is replaced
// and replayed from the journal exactly as in sync mode, and the
// fence then retries only the idempotent gather. Transports that
// cannot stream a script (Loopback, disttest.FaultTransport) fall back
// to executing the deferred operations through the ordinary primitive
// methods at the fence — same calls, same order, same fault
// semantics, just relocated.

// scriptTransport is implemented by transports that can execute a
// whole deferred round script as one pipelined stream per worker,
// ending in a gather of view. Implementations must preserve the
// per-worker frame order of the script and return the gathered runs
// in worker order, exactly like Gather.
type scriptTransport interface {
	RunScript(ctx context.Context, ops []recOp, view string) ([]*exchange.Buffer, error)
}

// EnablePipelining switches the cluster to deferred, overlapped
// execution: Scatter, EndRound and Join queue their transport work,
// and the next Gather executes the whole script — as one stream per
// worker on transports that support it (TCP), or through the
// ordinary primitives otherwise. Results, statistics and recovery
// behavior are identical to the unpipelined schedule; only the
// synchronization structure changes. Call it before the first round;
// work still pending when the cluster is closed without a final
// Gather is discarded.
func (c *Cluster) EnablePipelining() {
	c.pipe = true
}

// Pipelined reports whether EnablePipelining was called.
func (c *Cluster) Pipelined() bool { return c.pipe }

// enqueue queues op for the next fence.
func (c *Cluster) enqueue(op recOp) {
	c.pending = append(c.pending, op)
}

// gatherPipelined is the fence: it executes every deferred operation
// followed by a gather of view.
func (c *Cluster) gatherPipelined(ctx context.Context, view string) ([]*exchange.Buffer, error) {
	ops := c.pending
	c.pending = nil
	var runs []*exchange.Buffer
	if st, ok := c.tr.(scriptTransport); ok {
		first := true
		err := c.attempt(ctx, true, func(ctx context.Context) error {
			var err error
			if first {
				first = false
				runs, err = st.RunScript(ctx, ops, view)
				return err
			}
			// A worker died mid-stream and was healed: its deliveries
			// and joins were replayed from the journal, and every
			// worker the script did not fail on has already run its
			// slice to completion, so only the idempotent gather is
			// retried — re-running the script would duplicate state.
			runs, err = c.tr.Gather(ctx, view)
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		if err := c.runScriptFallback(ctx, ops); err != nil {
			return nil, err
		}
		err := c.attempt(ctx, true, func(ctx context.Context) error {
			var err error
			runs, err = c.tr.Gather(ctx, view)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// Flush executes the deferred script without gathering anything: the
// fence of a step that ends at its barrier, so that no caller returns
// with work still queued (a retraction-only maintenance batch has no
// view to gather). It is a no-op with nothing pending — always, on the
// synchronous schedule.
func (c *Cluster) Flush(ctx context.Context) error {
	ops := c.pending
	c.pending = nil
	return c.runScriptFallback(ctx, ops)
}

// runScriptFallback executes deferred operations through the
// primitive transport methods with the same attempt/heal policy as
// the sync path — the pipelined schedule on a
// non-streaming transport is the sync schedule relocated to the
// fence, which keeps fault-injection counters and recovery semantics
// byte-compatible.
func (c *Cluster) runScriptFallback(ctx context.Context, ops []recOp) error {
	for _, op := range ops {
		op := op
		var err error
		switch op.kind {
		case opDeliver:
			err = c.attempt(ctx, false, func(ctx context.Context) error {
				return c.tr.Deliver(ctx, op.round, op.ds)
			})
		case opDelta:
			err = c.attempt(ctx, false, func(ctx context.Context) error {
				return c.tr.ApplyDelta(ctx, op.round, op.dds)
			})
		case opBarrier:
			err = c.attempt(ctx, true, func(ctx context.Context) error {
				return c.tr.Barrier(ctx, op.round)
			})
		case opJoin:
			err = c.attempt(ctx, false, func(ctx context.Context) error {
				return c.tr.Join(ctx, op.spec)
			})
		case opTrace:
			if tt, ok := c.tr.(traceTransport); ok {
				err = c.attempt(ctx, false, func(ctx context.Context) error {
					return tt.SendTrace(ctx, op.hdr)
				})
			}
		default:
			err = fmt.Errorf("dist: unknown deferred op kind %d", op.kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
