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
//   - Transport: runs a round script — a list of Op steps — on the
//     pool, every worker getting its slice as one ordered stream, and
//     returns what the answered steps replied. Both links reach the
//     same worker session: Loopback holds p of them in this process
//     and hands them their frames unencoded (what the paper's
//     experiments, the tests and an unconfigured engine run on); TCP
//     ships length-prefixed wire frames (internal/wire) to
//     cmd/mpcworker processes, one connection per worker. What
//     answers are checked against is core.GroundTruth, not a link.
//   - Cluster: the coordinator. It partitions relations through the
//     columnar exchange layer, performs the per-round MPC(ε) receive
//     accounting coordinator-side — so statistics are identical
//     across transports by construction — and turns Scatter, EndRound,
//     Join and Gather into steps: journaled for replay, queued until
//     the next step whose reply it needs (Open), or sent one at a time
//     (a bare NewCluster). A failed worker is healed by more scripts —
//     an epoch step, a replay closed by a ping (recovery.go) — each,
//     like every script, under the policy's phase bound.
//   - the worker session: the worker, and the only code that interprets
//     a step (session.handle takes a frame and returns its answer).
//     Serve/ServeConn put it behind a connection: each accepted
//     connection is an isolated session with its own store, so one
//     worker process can serve many concurrent executions, and
//     a session an OpReset emptied serves the next execution without a
//     new dial (Registry parks such sessions between queries). A
//     store holds sealed runs (relation.Run) and nothing else — what
//     arrived, what the one local evaluator (localjoin.EvaluateRuns)
//     produced, and per store one run of tombstones that reads
//     subtract — so no tuple exists on a worker between wire decode
//     and wire encode.
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
	"fmt"

	"repro/internal/exchange"
	"repro/internal/relation"
	"repro/internal/wire"
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
}

// Piece is one sealed run a route step derived: the rows the step's
// grid Target sends to worker To, as worker From projected them.
type Piece struct {
	From, Target, To int
	Buf              *relation.Run
}

// OpKind names one step of a round script.
type OpKind uint8

// The steps a script is made of. A delivery is unacknowledged; a
// barrier, a join, an attach, a gather, an epoch, a ping, a reset and a
// route are each answered, so a script holding one of them is an
// exchange.
const (
	// OpDeliver ships sealed runs to their destination workers: every
	// run of the step lands as its View, Del and Absorb say.
	OpDeliver OpKind = iota
	// OpBarrier fences the round: every worker has ingested what was
	// delivered for it and publishes the runs it was asked to retain.
	OpBarrier
	// OpJoin runs the local-evaluation command on every worker.
	OpJoin
	// OpGather fetches the sealed runs every worker holds under a view —
	// all of them, or under a row limit a prefix of each worker's — and
	// each worker's full row count.
	OpGather
	// OpAttach asks every worker to bind the runs it keeps beyond its
	// sessions into this session's store (resident.go).
	OpAttach
	// OpEpoch announces the coordinator's recovery epoch, carried in
	// Round: a worker acks it, or refuses one lower than it was last told
	// as a stale coordinator's.
	OpEpoch
	// OpPing round-trips a heartbeat, its sequence number in Round. Frames
	// on a session are processed in order, so the answer also proves the
	// worker ingested everything sent before it.
	OpPing
	// OpReset returns every worker's session to its post-hello state: its
	// stores — and the runs of a round whose barrier has not published them
	// — dropped, epoch 0; what the process keeps beyond its sessions
	// stays. Round carries a tag the acks echo. It ends an execution, so
	// the next one can run on the same session.
	OpReset
	// OpRoute has every worker project a view, drop the repeats and
	// partition the rest through a list of grids, and answer with the
	// pieces: a fixpoint's derivations on their way to the workers that
	// keep them.
	OpRoute
)

// String names the step.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

var opNames = [...]string{"deliver", "barrier", "join", "gather", "attach", "epoch", "ping", "reset", "route"}

// Op is one step of a round script — what the coordinator journals for
// replay, defers to the next fence, and hands to a Transport are all
// lists of these. Kind says which of the other fields the step reads.
type Op struct {
	Kind OpKind
	// Round is the round a delivery or barrier belongs to, the epoch of an
	// OpEpoch, the sequence number of an OpPing, the tag of an OpReset.
	Round int
	// Deliveries are the runs of an OpDeliver. Each is appended to its
	// store — and registered under View when that is not empty — unless
	// Del retracts them (tombstones) or Absorb has the receiver keep only
	// the rows its store does not hold yet.
	Deliveries  []exchange.Delivery
	Del, Absorb bool
	// Join is the command of an OpJoin.
	Join JoinSpec
	// View is the store an OpGather reads, or the Δ view an OpDeliver's
	// runs are also registered under. Limit is how many rows of a gathered
	// view each worker streams: 0 all, k > 0 the first k of its sealed
	// run, a negative limit none (the worker still counts them). Cells,
	// when not nil, are the only workers the gather reads.
	View  string
	Limit int
	Cells []int
	// Route is the command of an OpRoute.
	Route wire.Route
	// Attach lists what an OpAttach binds, every attachment of the round
	// in the one step.
	Attach []Attachment
	// lazy stands in for Deliveries in the journal entry of a resident
	// scatter: nothing was partitioned, so replay partitions the replaced
	// worker's slice.
	lazy *residentScatter
}

// Reply is what a script's answered steps returned.
type Reply struct {
	// Runs are the gathered runs in worker order (all of worker 0's,
	// then worker 1's, …), so gathers are deterministic.
	Runs []*relation.Run
	// From[i] is the worker Runs[i] came from; a gather reply is input,
	// and this is who to hold to it.
	From []int
	// Rows[w] is how many rows the views worker w gathered hold in full —
	// what it streamed, or more under a limit; nil when nothing was
	// gathered.
	Rows []int
	// Attached[w][i] is worker w's answer to the i-th attachment; nil for
	// a worker that failed the script.
	Attached [][]wire.Attach
	// Pieces are what the script's route steps derived, in worker order.
	Pieces []Piece
}

// Transport carries round scripts to a pool of workers: Run gives every
// worker its slice of the script — its own deliveries, every other step —
// as one stream, processed in order, and returns what the answered steps
// replied. A worker that fails is named by a *WorkerError
// in the returned error while the healthy pool runs its slices to the
// end; an unattributed error (a destination out of range, checked
// before any step runs) means the script was refused. A step a worker
// refuses (a join it cannot parse, a run of the wrong arity) is
// unattributed only in process, where the Loopback's sessions live on;
// over TCP the worker's Error frame ends its session and the refusal is
// that worker's *WorkerError. Run must honor ctx:
// cancellation or deadline expiry surfaces as an error instead of a
// hang, even when a worker is stuck or its connection has died.
//
// A Transport instance is a session: workers accumulate state (received
// runs, materialized views) across scripts and drop it at an OpReset or
// when the transport closes — all but the runs a Delivery flagged to be
// retained, which a worker process keeps for later sessions to attach
// to. One execution runs on a session at a time; a session reset after
// one execution serves the next (Registry.Session).
type Transport interface {
	// Workers returns the pool size p.
	Workers() int
	// Run executes the script on the pool.
	Run(ctx context.Context, ops []Op) (Reply, error)
	// Close ends the session and releases its resources.
	Close() error
}
