// Package wire defines the length-prefixed frame format spoken
// between the distributed MPC coordinator and its worker processes
// (internal/dist, cmd/mpcworker).
//
// Every frame is
//
//	type   byte   — a Type constant
//	length uint32 — payload size in bytes, big-endian, ≤ MaxPayload
//	payload       — type-specific, all integers big-endian
//
// The payload that matters is the columnar one: a Data frame carries
// one sealed relation.Run — the unit the exchange layer ships
// between workers — as the round id, the destination shard, the store
// name, the Δ view and retain key it may also land under, how it lands
// (appended, retracted or absorbed), and the buffer body: the run's
// stride (words a row) and its words as raw little-endian memory; a
// Piece carries what a worker's route step derived for one destination
// the same way. Control frames carry the BSP protocol
// around the data (Hello, Barrier, Join, Gather, Route, Ack, Done,
// Error), the recovery handshake (Ping, Pong, Epoch), the resident
// scatter (Attach) and a session's reuse (Reset). Every frame type has a reader on the
// receiving side: a frame nothing consumes does not belong in the
// protocol.
//
// There is one codec. AppendFrames (behind Writer) is the only encoder:
// it appends headers and inline payloads to one buffer and hands raw
// word payloads back as segments aliasing the buffers, for one vectored
// write. Reader is the only decoder, for a coordinator's frames and a
// worker's alike: it copies each run out of the payload once and
// validates it there — a stride that lays out the arity, rows in order,
// no bit outside a field, no negative value in a 64-bit field, counts
// against lengths, no trailing bytes — and rejects what fails; it repairs
// nothing and there is no way to decode a frame unvalidated. Any
// malformed or truncated frame yields an error, never a panic, and
// allocation is bounded by the bytes that actually arrive (a length
// prefix larger than the available input cannot force a large
// allocation). FuzzDecodeFrame in this package holds the codec to that
// contract; dist's FuzzWorkerSession holds a live session to it.
package wire

import (
	"fmt"
	"math"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// Type enumerates the frame kinds of the protocol.
type Type uint8

// Frame types. The coordinator sends Hello, Data, Barrier, Join,
// Gather, Route, Ping, Epoch, Attach and Reset; a worker replies with
// Ack, Data, Piece, Done, Pong, Attach and Error. The values are contiguous from 1 —
// retiring a type renumbers the ones after it and bumps Version.
const (
	// TypeHello opens a session: protocol version, worker id, pool
	// size. The worker replies with an Ack.
	TypeHello Type = 1 + iota
	// TypeData carries one sealed columnar run for one destination
	// shard. Sent coordinator→worker during scatter rounds — a base
	// scatter, a maintenance batch, a fixpoint's relay alike; its mode
	// says how the run lands — and worker→coordinator while answering a
	// Gather.
	TypeData
	// TypeBarrier ends a communication round; the worker acks it after
	// it has ingested every preceding Data frame (frames on one
	// connection are processed in order).
	TypeBarrier
	// TypeJoin instructs the worker to evaluate a conjunctive query
	// over its stored relations and store the result under a view name.
	TypeJoin
	// TypeGather asks the worker to stream the runs it holds under a
	// view name back as Data frames, terminated by a Done frame — all of
	// them, or under a row limit a prefix of the view's one sealed run.
	TypeGather
	// TypeAck acknowledges a Hello, Barrier, Join, Epoch or Reset, echoing
	// a tag: the round number for barriers, the epoch for announcements,
	// the reset's own tag for a reset, zero otherwise.
	TypeAck
	// TypeDone terminates a Gather stream and reports the number of
	// Data frames that preceded it and the view's full row count.
	TypeDone
	// TypeError reports a worker-side failure; the session is dead
	// afterwards.
	TypeError
	// TypePing is a coordinator heartbeat carrying a sequence tag in
	// Round; a live worker echoes it back as a Pong.
	TypePing
	// TypePong answers a Ping, echoing the sequence tag in Round.
	TypePong
	// TypeEpoch announces the coordinator's recovery epoch in Round.
	// Epochs only ever grow: a worker rejects a decreasing epoch as a
	// stale coordinator and acks an accepted one, echoing the epoch.
	TypeEpoch
	// TypeAttach asks a worker to bind the runs its process keeps under
	// an opaque key into the session's store; the worker answers with an
	// Attach of its own.
	TypeAttach
	// TypeReset returns the session to the state its hello left it in —
	// no stores, epoch 0 — so one connection serves one
	// execution after another; what the process keeps beyond its sessions
	// is untouched. The worker acks it, echoing the tag in Round.
	TypeReset
	// TypeRoute asks the worker to project the run it holds under a view
	// onto some of its columns and partition the distinct rows through
	// each of a list of grids; the worker answers with one Piece per
	// (grid, destination) that received rows, terminated by a Done.
	TypeRoute
	// TypePiece carries one sealed run a route step derived for one
	// destination of one of the route's grids.
	TypePiece
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeData:
		return "data"
	case TypeBarrier:
		return "barrier"
	case TypeJoin:
		return "join"
	case TypeGather:
		return "gather"
	case TypeAck:
		return "ack"
	case TypeDone:
		return "done"
	case TypeError:
		return "error"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeEpoch:
		return "epoch"
	case TypeAttach:
		return "attach"
	case TypeReset:
		return "reset"
	case TypeRoute:
		return "route"
	case TypePiece:
		return "piece"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Version is the protocol version carried by Hello frames; a worker
// rejects a coordinator speaking a different version. Version 2 added
// the raw and delta-varint Data encodings; version 3 the Delta frame of
// incremental view maintenance; version 4 the Trace frame of per-round
// distributed tracing; version 5 retired a per-barrier state broadcast
// that no receiver read, renumbering Delta and Trace; version 6 added
// the Attach frame and the Retain key of Data; version 7 retired the
// big-endian packed encoding no sender emitted, and a receiver rejects
// an unsorted or out-of-width run where version 6 re-sorted it; version
// 8 dropped the strategy byte of Join — a worker has one evaluator;
// version 9 added the Reset frame, so a session outlives an execution;
// version 10 retired the Trace frame — a trace stays on the coordinator —
// renumbering Attach and Reset; version 11 retired the delta-varint
// encoding; version 12 added the row limit of Gather and the row count
// of Done, so a view's rows may stay on the worker that holds them;
// version 13 added the Route step, its Piece reply and the absorb flag of
// Delta, so a fixpoint's state stays on the workers; version 14 folded
// Delta into Data — a Data frame carries Delta's view and mode byte — and
// renumbered the four types after it; version 15 gave a run one layout —
// the raw body states its stride, and the flat body is retired.
const Version = 15

// MaxPayload bounds a frame's declared payload size (128 MiB). A
// larger length prefix is rejected before any payload is read.
const MaxPayload = 1 << 27

// maxName bounds store/view name and query-text lengths inside
// payloads (they are length-prefixed with uint16, so this is also the
// encoding limit).
const maxName = math.MaxUint16

// Hello is the session-opening payload.
type Hello struct {
	// Version is the sender's protocol version (must equal Version).
	Version uint16
	// Worker is the id this connection plays in the pool, in [0, P).
	Worker uint32
	// P is the worker-pool size.
	P uint32
}

// Data is one sealed columnar run in flight. A gathered run carries no
// view, retain key or mode: those say how a delivered run lands.
type Data struct {
	// Round is the communication round the run belongs to (0 for
	// gather replies).
	Round uint32
	// Dest is the destination shard (worker id). A worker rejects a
	// Data frame whose Dest is not its own id — catching routing bugs
	// at the wire instead of as silently wrong answers.
	Dest uint32
	// Rel is the store name the run lands under.
	Rel string
	// View, when non-empty, is the Δ-relation an appended or absorbed run
	// is also registered under — what a maintenance join reads.
	View string
	// Retain, when non-empty, is the key the worker also keeps the run
	// under for later sessions to Attach to, from the round's barrier on.
	Retain string
	// Del and Absorb are the mode (byte 0 append, 1 retract, 2 absorb):
	// a retraction tombstones the run's rows out of Rel; an absorbed run
	// keeps only the rows Rel does not hold yet. Never both.
	Del, Absorb bool
	// Buf is the run itself.
	Buf *relation.Run
}

// Attach is the resident-scatter request and its reply.
type Attach struct {
	// Key names the resident runs, Store the session store they are bound
	// under; a reply leaves both empty.
	Key, Store string
	// Tuples is how many tuples the key must hold to be a hit (request;
	// zero: nothing to bind), and how many the worker held (reply).
	Tuples uint64
	// Hit reports, in a reply, that the runs are bound.
	Hit bool
}

// Route is the route step: the rows a worker holds under View,
// projected onto Cols and deduplicated, partitioned through each of
// Grids.
type Route struct {
	View  string
	Cols  []int
	Grids []*exchange.Grid
}

// Piece is what a route step derived for one destination: the rows of
// the projection that grid Target of the route sends to worker Dest.
type Piece struct {
	Target, Dest uint32
	Buf          *relation.Run
}

// Join is the local-evaluation command.
type Join struct {
	// Query is the conjunctive query in query.Parse syntax.
	Query string
	// View is the store name the evaluation result lands under.
	View string
	// Bindings maps atom names to store names when they differ (the
	// multiround executor stores inputs under view-prefixed names).
	// Atoms without an entry read the store of their own name.
	Bindings [][2]string
}

// Frame is one decoded protocol frame; the field matching Type is
// meaningful, the rest are zero.
type Frame struct {
	// Type discriminates the payload.
	Type Type
	// Hello is set for TypeHello.
	Hello Hello
	// Data is set for TypeData.
	Data Data
	// Join is set for TypeJoin.
	Join Join
	// Route is set for TypeRoute, Piece for TypePiece.
	Route Route
	Piece Piece
	// Round is set for TypeBarrier and TypeAck (the echoed tag), for
	// TypePing and TypePong (the heartbeat sequence), for TypeEpoch (the
	// announced epoch) and for TypeReset (its tag).
	Round uint32
	// View and Limit are set for TypeGather: the view to stream, and how
	// many rows of it — 0 all of them, k > 0 the first k rows of its
	// sealed run, a negative limit none (the Done frame still counts them).
	View  string
	Limit int64
	// Count and Rows are set for TypeDone: the number of Data (or Piece)
	// frames streamed, and the rows the gathered view holds — every one of
	// them, however many the frames carried — or the distinct rows a route
	// projected.
	Count uint32
	Rows  uint64
	// Msg is set for TypeError.
	Msg string
	// Attach is set for TypeAttach.
	Attach Attach
}
