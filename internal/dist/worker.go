package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/exchange"
	"repro/internal/query"
	"repro/internal/wire"
)

// Serve accepts coordinator connections on ln and serves each as an
// isolated worker session until ctx is done or the listener fails.
// Sessions are independent: concurrent executions (e.g. parallel
// mpcserve queries sharing one worker pool) never see each other's
// stores. What they share is one ResidentStore: the scatter slices a
// coordinator asked this process to keep, for later sessions to attach to.
func Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	rs := NewResidentStore()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			_ = serveConn(ctx, conn, rs, handshakeTimeout)
		}()
	}
}

// handshakeTimeout is how long a dialer has to say hello before the
// worker hangs up on it.
const handshakeTimeout = 10 * time.Second

// ServeConn runs one worker session over conn: it expects a Hello within
// handshakeTimeout, acks it, then processes the coordinator's frames in
// order — Data and Delta (unacknowledged; the barrier fences them),
// Barrier, Join, Epoch and Reset (acked), Ping (a Pong), Attach (an
// Attach) and Gather (a Data stream closed by a Done) — until the
// coordinator closes the connection. Every frame, the hello included, is
// validated as it is decoded; whoever dialled is not authenticated.
// Cancelling ctx aborts the session by poisoning the connection
// deadline. Malformed frames, protocol violations and evaluation
// failures are reported to the peer as an Error frame and returned, and
// end the session; the session knows no query, so the coordinator that
// reads the Error frame attributes it. A session served alone keeps
// nothing beyond itself.
func ServeConn(ctx context.Context, conn net.Conn) error {
	return serveConn(ctx, conn, nil, handshakeTimeout)
}

// serveConn is ServeConn in a process that keeps retained runs in rs,
// giving the dialer hello to complete the handshake.
func serveConn(ctx context.Context, conn net.Conn, rs *ResidentStore, hello time.Duration) error {
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	br := bufio.NewReaderSize(conn, 1<<16)
	rd := wire.NewReader(br)
	// w queues the session's replies: they leave, in order, in the one
	// vectored write of its next Flush.
	w := wire.NewWriter(conn)
	var s session
	// abort reports err to the coordinator as an Error frame (best effort)
	// and returns it.
	abort := func(err error) error {
		// The frame is cut to fit: a defect that quotes the peer's input (a
		// query text) must not grow past what an Error frame can carry.
		msg := err.Error()
		_ = w.Flush(&wire.Frame{Type: wire.TypeError, Msg: msg[:min(len(msg), 1<<10)]})
		return fmt.Errorf("dist: worker %d: %w", s.id, err)
	}

	// An idle connect must not pin a goroutine and a socket: a dialer that
	// has not been acked in time is cut off the way a cancelled ctx cuts a
	// session off.
	late := time.AfterFunc(hello, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer late.Stop()
	f, err := rd.Next()
	if err != nil {
		return abort(fmt.Errorf("handshake: %w", err))
	}
	if f.Type != wire.TypeHello {
		return abort(fmt.Errorf("first frame is %s, want hello", f.Type))
	}
	if f.Hello.Version != wire.Version {
		return abort(fmt.Errorf("protocol version %d, worker speaks %d", f.Hello.Version, wire.Version))
	}
	if f.Hello.P == 0 || f.Hello.Worker >= f.Hello.P {
		return abort(fmt.Errorf("worker id %d out of pool [0,%d)", f.Hello.Worker, f.Hello.P))
	}
	s = newSession(residentHome{rs, int(f.Hello.Worker), int(f.Hello.P)})
	if err := w.Flush(&wire.Frame{Type: wire.TypeAck}); err != nil {
		return err
	}
	if !late.Stop() {
		return fmt.Errorf("dist: worker %d: handshake timed out", s.id)
	}

	// reply is the session's answer to the frame in hand, declared once:
	// its address reaches the encoder, which would otherwise put a fresh
	// one on the heap for every frame.
	var reply wire.Frame
	var stream []wire.Frame
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil // coordinator closed the session
		}
		if err == nil {
			reply, stream, err = s.handle(f)
		}
		switch {
		case err != nil:
		case reply.Type == wire.TypeDone:
			// A gather or a route streams its runs and its Done in one
			// write, which carries the acks queued ahead of it.
			frames := make([]*wire.Frame, 0, len(stream)+1)
			for i := range stream {
				frames = append(frames, &stream[i])
			}
			err = w.Flush(append(frames, &reply)...)
		case reply.Type != 0:
			err = w.Queue(&reply)
		}
		if err != nil {
			return abort(err)
		}
		// Replies leave when the session is about to block for input. A
		// step sent alone is followed by nothing until it is answered, so
		// its ack goes out at once; the acks of a fused round script
		// wait for the script's last frame and leave with the gather.
		if br.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}

// session is one worker: what it holds for one coordinator, and what a
// frame from it does there. A worker process runs one per connection
// (serveConn), the in-process Loopback p of them; handle is the only
// place a step is interpreted.
type session struct {
	id    uint32
	store *workerStore
	// epoch is the last recovery epoch the coordinator announced on
	// this session; announcements may only grow it.
	epoch uint32
	// joinText and joinQuery are the query text of the last join frame
	// and what it parsed into.
	joinText  string
	joinQuery *query.Query
	// stream is the scratch the frames of a gather or route reply are
	// built in: they are sent, or copied out, before the next frame.
	stream []wire.Frame
}

// newSession returns the session a hello opens for the slot home names:
// an empty store, epoch 0.
func newSession(home residentHome) session {
	return session{id: uint32(home.slot), store: newWorkerStore(home)}
}

// parseQuery is query.Parse remembering its last result, matched by
// text: a fixpoint sends the same rule body every iteration.
func (s *session) parseQuery(text string) (*query.Query, error) {
	if s.joinQuery == nil || text != s.joinText {
		q, err := query.Parse(text)
		if err != nil {
			return nil, err
		}
		s.joinText, s.joinQuery = text, q
	}
	return s.joinQuery, nil
}

// handle processes one post-handshake frame and returns the session's
// answer to it: an Ack, a Pong or an Attach; for a gather or a route the
// Done closing the Data or Piece frames it streams ahead of it; for the
// frames nothing answers (Data, Delta) a reply of type zero. An error
// refuses the frame.
func (s *session) handle(f *wire.Frame) (reply wire.Frame, stream []wire.Frame, err error) {
	switch f.Type {
	case wire.TypeData:
		if f.Data.Dest != s.id {
			return reply, nil, fmt.Errorf("data frame for shard %d delivered to worker %d", f.Data.Dest, s.id)
		}
		err = s.store.receive(exchange.Delivery{Rel: f.Data.Rel, Buf: f.Data.Buf, Retain: f.Data.Retain})
	case wire.TypeAttach:
		reply.Type = wire.TypeAttach
		reply.Attach, err = s.store.attach(f.Attach.Key, f.Attach.Store, int64(f.Attach.Tuples))
	case wire.TypeDelta:
		if f.Delta.Dest != s.id {
			return reply, nil, fmt.Errorf("delta frame for shard %d delivered to worker %d", f.Delta.Dest, s.id)
		}
		err = s.store.applyDelta(f.Delta)
	case wire.TypeBarrier:
		// Frames on the connection are processed in order, so reaching
		// the barrier means every preceding Data frame is ingested — and
		// every run flagged to be retained is complete.
		s.store.publish()
		reply = wire.Frame{Type: wire.TypeAck, Round: f.Round}
	case wire.TypeJoin:
		var q *query.Query
		if q, err = s.parseQuery(f.Join.Query); err != nil {
			return reply, nil, fmt.Errorf("dist: join query: %w", err)
		}
		if f.Join.View == "" {
			return reply, nil, errors.New("dist: join with empty view name")
		}
		reply.Type = wire.TypeAck
		err = s.store.join(q, f.Join.Bindings, f.Join.View)
	case wire.TypePing:
		// A pong proves liveness and — frames being processed in order —
		// ingestion of everything the coordinator sent before the ping.
		reply = wire.Frame{Type: wire.TypePong, Round: f.Round}
	case wire.TypeReset:
		// Back to what the hello left: a fresh store on the same home —
		// what the process keeps beyond its sessions stays, and runs a
		// barrier has not published yet are dropped with their store —
		// epoch 0.
		*s = newSession(s.store.home)
		reply = wire.Frame{Type: wire.TypeAck, Round: f.Round}
	case wire.TypeEpoch:
		if f.Round < s.epoch {
			return reply, nil, fmt.Errorf("stale epoch %d announced, session at %d", f.Round, s.epoch)
		}
		s.epoch = f.Round
		reply = wire.Frame{Type: wire.TypeAck, Round: f.Round}
	case wire.TypeGather:
		runs, rows := s.store.gather(f.View, f.Limit)
		stream = s.stream[:0]
		for _, run := range runs {
			stream = append(stream, wire.Frame{Type: wire.TypeData, Data: wire.Data{Dest: s.id, Rel: f.View, Buf: run}})
		}
		s.stream = stream
		reply = wire.Frame{Type: wire.TypeDone, Count: uint32(len(stream)), Rows: uint64(rows)}
	case wire.TypeRoute:
		var rows int
		if stream, rows, err = s.store.route(s.stream[:0], &f.Route); err != nil {
			return reply, nil, fmt.Errorf("dist: route of %q: %w", f.Route.View, err)
		}
		s.stream = stream
		reply = wire.Frame{Type: wire.TypeDone, Count: uint32(len(stream)), Rows: uint64(rows)}
	default:
		err = fmt.Errorf("unexpected %s frame", f.Type)
	}
	return reply, stream, err
}
