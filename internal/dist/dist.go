// Package dist is the distributed worker runtime of the reproduction:
// it runs the MPC(ε) bulk-synchronous rounds — scatter, barrier, local
// join, gather — across a pool of workers that may be goroutines in
// this process or separate processes reached over TCP.
//
// The paper's model is a cluster of p servers exchanging data in
// synchronous communication rounds. The engines (hypercube,
// multiround, skew) express exactly that shape, so the package
// factors it into three pieces:
//
//   - Transport: how sealed columnar runs and BSP commands reach the
//     pool. Loopback keeps everything in-process (what the paper's
//     experiments, the tests and an unconfigured engine run on); TCP
//     ships length-prefixed wire frames (internal/wire) to
//     cmd/mpcworker processes, one connection per worker.
//   - Cluster: the coordinator. It partitions relations through the
//     columnar exchange layer, performs the per-round MPC(ε) receive
//     accounting coordinator-side — so statistics are identical
//     across transports by construction — and drives the transport.
//   - the worker session (Serve/ServeConn): the remote half. Each
//     accepted connection is an isolated session with its own store,
//     so one worker process can serve many concurrent executions.
//     What the process keeps between sessions is a read-only store of
//     scatter slices it was asked to retain, which a later execution
//     of the same scatter attaches to (resident.go).
//
// Communication accounting never depends on the transport: a run of t
// tuples costs t·arity·⌈log2(n+1)⌉ bits whether it crosses a socket
// or a pointer, which is what lets the differential tests demand
// byte-identical answers and round statistics from both paths.
package dist

import (
	"context"

	"repro/internal/exchange"
)

// JoinSpec instructs every worker to evaluate a conjunctive query
// over its stored tuples and store the result locally under a view
// name.
type JoinSpec struct {
	// Query is the query in query.Parse syntax.
	Query string
	// View is the store name the per-worker result lands under.
	View string
	// Bindings maps atom names to store names when they differ; atoms
	// without an entry read the store of their own name.
	Bindings map[string]string
	// Strategy is the numeric value of the localjoin.Strategy the
	// workers must use.
	Strategy uint8
}

// DeltaDelivery ships one sealed delta run to one worker as part of
// incremental view maintenance: the tuples either retract from (Del)
// or extend the store named Store. An extending delta additionally
// registers its run under View when View is non-empty, so a
// maintenance join can bind one atom to exactly the fresh tuples
// without rescanning the store.
type DeltaDelivery struct {
	// To is the destination worker.
	To int
	// Store is the store name the delta maintains.
	Store string
	// View, when non-empty and Del is false, is an extra store name the
	// run is also registered under (the Δ-relation of a delta join).
	View string
	// Del marks a retraction: the tuples are tombstoned out of Store.
	Del bool
	// Buf is the sealed columnar run of delta tuples.
	Buf *exchange.Buffer
}

// Transport carries the BSP primitives of one execution to a pool of
// workers. Implementations must tolerate concurrent calls from the
// per-worker goroutines a Cluster fans out, and every method must
// honor ctx: cancellation or deadline expiry surfaces as an error
// instead of a hang, even when a worker is stuck or its connection
// has died.
//
// A Transport instance represents one execution session: workers
// accumulate state (received runs, materialized views) across calls
// and drop it when the transport closes — all but the runs a Delivery
// flagged to be retained, which an Attacher's workers keep.
type Transport interface {
	// Workers returns the pool size p.
	Workers() int
	// Deliver ships sealed runs to their destination workers as part
	// of the given round.
	Deliver(ctx context.Context, round int, ds []exchange.Delivery) error
	// ApplyDelta ships delta runs to their destination workers as part
	// of the given round: retractions tombstone tuples out of their
	// store, extensions append (and register the Δ view). Like Deliver
	// it is unacknowledged; the round's Barrier is the ingestion fence.
	ApplyDelta(ctx context.Context, round int, ds []DeltaDelivery) error
	// Barrier blocks until every worker has ingested all runs
	// delivered for the round.
	Barrier(ctx context.Context, round int) error
	// Join runs the local-evaluation command on every worker.
	Join(ctx context.Context, spec JoinSpec) error
	// Gather returns the sealed runs every worker holds under the
	// view, in worker order.
	Gather(ctx context.Context, view string) ([]*exchange.Buffer, error)
	// Close ends the session and releases its resources.
	Close() error
}
