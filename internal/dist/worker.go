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
// order — Data, Delta and Trace (unacknowledged; the barrier fences
// them), Barrier, Join, Epoch and Reset (acked), Ping (a Pong), Attach (an
// Attach) and Gather (a Data stream closed by a Done) — until the
// coordinator closes the connection. Every frame, the hello included, is
// validated as it is decoded; whoever dialled is not authenticated.
// Cancelling ctx aborts the session by poisoning the connection
// deadline. Malformed frames, protocol violations and evaluation
// failures are reported to the peer as an Error frame and returned, and
// end the session. A session served alone keeps nothing beyond itself.
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
	s := &session{w: wire.NewWriter(conn)}

	// An idle connect must not pin a goroutine and a socket: a dialer that
	// has not been acked in time is cut off the way a cancelled ctx cuts a
	// session off.
	late := time.AfterFunc(hello, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer late.Stop()
	f, err := rd.Next()
	if err != nil {
		return s.abort(fmt.Errorf("handshake: %w", err))
	}
	if f.Type != wire.TypeHello {
		return s.abort(fmt.Errorf("first frame is %s, want hello", f.Type))
	}
	if f.Hello.Version != wire.Version {
		return s.abort(fmt.Errorf("protocol version %d, worker speaks %d", f.Hello.Version, wire.Version))
	}
	if f.Hello.P == 0 || f.Hello.Worker >= f.Hello.P {
		return s.abort(fmt.Errorf("worker id %d out of pool [0,%d)", f.Hello.Worker, f.Hello.P))
	}
	s.id = f.Hello.Worker
	s.store = newWorkerStore(residentHome{rs, int(s.id), int(f.Hello.P)})
	if err := s.w.Flush(&wire.Frame{Type: wire.TypeAck}); err != nil {
		return err
	}
	if !late.Stop() {
		return fmt.Errorf("dist: worker %d: handshake timed out", s.id)
	}

	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil // coordinator closed the session
		}
		if err == nil {
			err = s.handle(f)
		}
		if err != nil {
			return s.abort(err)
		}
		// Replies leave when the session is about to block for input. A
		// step sent alone is followed by nothing until it is answered, so
		// its ack goes out at once; the acks of a fused round script
		// wait for the script's last frame and leave with the gather.
		if br.Buffered() == 0 {
			if err := s.w.Flush(); err != nil {
				return err
			}
		}
	}
}

// session is the per-connection worker state.
type session struct {
	id    uint32
	store *workerStore
	// w queues the session's replies: they leave, in order, in the one
	// vectored write of its next Flush.
	w *wire.Writer
	// epoch is the last recovery epoch the coordinator announced on
	// this session; announcements may only grow it.
	epoch uint32
	// trace is the most recent span context the coordinator announced;
	// worker-side failures are attributed to its query id.
	trace wire.TraceHeader
	// joinText and joinQuery are the query text of the last join frame
	// and what it parsed into.
	joinText  string
	joinQuery *query.Query
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

// abort reports err to the coordinator as an Error frame (best
// effort) and returns it, attributed to the traced query when the
// session has seen a span context.
func (s *session) abort(err error) error {
	if s.trace.QueryID != "" {
		err = fmt.Errorf("query %s: %w", s.trace.QueryID, err)
	}
	// The frame is cut to fit: a defect that quotes the peer's input (a
	// query text) must not grow past what an Error frame can carry.
	msg := err.Error()
	_ = s.w.Flush(&wire.Frame{Type: wire.TypeError, Msg: msg[:min(len(msg), 1<<10)]})
	return fmt.Errorf("dist: worker %d: %w", s.id, err)
}

// handle processes one post-handshake frame.
func (s *session) handle(f *wire.Frame) error {
	switch f.Type {
	case wire.TypeData:
		if f.Data.Dest != s.id {
			return fmt.Errorf("data frame for shard %d delivered to worker %d", f.Data.Dest, s.id)
		}
		return s.store.receive(exchange.Delivery{Rel: f.Data.Rel, Buf: f.Data.Buf, Retain: f.Data.Retain})
	case wire.TypeAttach:
		reply, err := s.store.attach(f.Attach.Key, f.Attach.Store, int64(f.Attach.Tuples))
		if err != nil {
			return err
		}
		return s.w.Queue(&wire.Frame{Type: wire.TypeAttach, Attach: reply})
	case wire.TypeDelta:
		if f.Delta.Dest != s.id {
			return fmt.Errorf("delta frame for shard %d delivered to worker %d", f.Delta.Dest, s.id)
		}
		return s.store.applyDelta(f.Delta.Store, f.Delta.View, f.Delta.Del, f.Delta.Buf)
	case wire.TypeTrace:
		// Unacknowledged, like Data: the session records the most recent
		// span context so its work (and any failure) is attributable to
		// the traced query; the round barrier is the fence.
		s.trace = f.Trace
		return nil
	case wire.TypeBarrier:
		// Frames on the connection are processed in order, so reaching
		// the barrier means every preceding Data frame is ingested — and
		// every run flagged to be retained is complete.
		s.store.publish()
		return s.w.Queue(&wire.Frame{Type: wire.TypeAck, Round: f.Round})
	case wire.TypeJoin:
		spec := JoinSpec{
			Query: f.Join.Query,
			View:  f.Join.View,
		}
		if len(f.Join.Bindings) > 0 {
			spec.Bindings = make(map[string]string, len(f.Join.Bindings))
			for _, b := range f.Join.Bindings {
				spec.Bindings[b[0]] = b[1]
			}
		}
		q, err := parseJoinSpec(spec, s.parseQuery)
		if err != nil {
			return err
		}
		if err := s.store.join(q, spec.Bindings, spec.View); err != nil {
			return err
		}
		return s.w.Queue(&wire.Frame{Type: wire.TypeAck})
	case wire.TypePing:
		// A pong proves liveness and — frames being processed in order —
		// ingestion of everything the coordinator sent before the ping.
		return s.w.Queue(&wire.Frame{Type: wire.TypePong, Round: f.Round})
	case wire.TypeReset:
		// Back to what the hello left: a fresh store on the same home —
		// what the process keeps beyond its sessions stays, and runs a
		// barrier has not published yet are dropped with their store —
		// epoch 0, no span context.
		s.store = newWorkerStore(s.store.home)
		s.epoch, s.trace = 0, wire.TraceHeader{}
		return s.w.Queue(&wire.Frame{Type: wire.TypeAck, Round: f.Round})
	case wire.TypeEpoch:
		if f.Round < s.epoch {
			return fmt.Errorf("stale epoch %d announced, session at %d", f.Round, s.epoch)
		}
		s.epoch = f.Round
		return s.w.Queue(&wire.Frame{Type: wire.TypeAck, Round: f.Round})
	case wire.TypeGather:
		runs := s.store.runs(f.View)
		frames := make([]*wire.Frame, 0, len(runs)+1)
		for _, run := range runs {
			frames = append(frames, &wire.Frame{Type: wire.TypeData, Data: wire.Data{
				Dest: s.id,
				Rel:  f.View,
				Buf:  run,
			}})
		}
		frames = append(frames, &wire.Frame{Type: wire.TypeDone, Count: uint32(len(runs))})
		// The reply carries the acks queued ahead of it in the same write.
		return s.w.Flush(frames...)
	default:
		return fmt.Errorf("unexpected %s frame", f.Type)
	}
}
