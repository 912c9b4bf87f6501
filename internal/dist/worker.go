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
			_ = serveConn(ctx, conn, rs)
		}()
	}
}

// ServeConn runs one worker session over conn: it expects a Hello,
// then processes Data, Barrier, Join and Gather frames in order until
// the coordinator closes the connection. Cancelling ctx aborts the
// session by poisoning the connection deadline. Protocol violations
// and evaluation failures are reported to the coordinator as Error
// frames and returned. A session served alone keeps nothing beyond
// itself.
func ServeConn(ctx context.Context, conn net.Conn) error {
	return serveConn(ctx, conn, nil)
}

// serveConn is ServeConn in a process that keeps retained runs in rs.
func serveConn(ctx context.Context, conn net.Conn, rs *ResidentStore) error {
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	br := bufio.NewReaderSize(conn, 1<<16)
	s := &session{conn: conn}

	// The handshake frame comes from an unauthenticated dialer, so it
	// goes through the validating decoder; everything after it is our
	// own coordinator speaking the fast path.
	hello, err := wire.Decode(br)
	if err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if hello.Type != wire.TypeHello {
		return s.abort(fmt.Errorf("first frame is %s, want hello", hello.Type))
	}
	if hello.Hello.Version != wire.Version {
		return s.abort(fmt.Errorf("protocol version %d, worker speaks %d", hello.Hello.Version, wire.Version))
	}
	if hello.Hello.P == 0 || hello.Hello.Worker >= hello.Hello.P {
		return s.abort(fmt.Errorf("worker id %d out of pool [0,%d)", hello.Hello.Worker, hello.Hello.P))
	}
	s.id = hello.Hello.Worker
	s.store = newWorkerStore(residentHome{rs, int(s.id), int(hello.Hello.P)})
	if err := s.flush(&wire.Frame{Type: wire.TypeAck}); err != nil {
		return err
	}

	rd := wire.NewTrustedReader(br)
	for {
		f, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // coordinator closed the session
			}
			return fmt.Errorf("dist: worker %d: %w", s.id, err)
		}
		if err := s.handle(f); err != nil {
			return s.abort(err)
		}
		// Replies leave when the session is about to block for input. A
		// synchronous command is followed by nothing until it is answered,
		// so its ack goes out at once; the acks of a fused round script
		// wait for the script's last frame and leave with the gather.
		if br.Buffered() == 0 && len(s.out) > 0 {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
}

// session is the per-connection worker state.
type session struct {
	id    uint32
	store *workerStore
	conn  net.Conn
	// out holds the fast-encoded replies not yet written, and doubles
	// as the reusable encoder scratch.
	out []byte
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

// reply queues one control frame for the coordinator; it leaves with
// the next flush.
func (s *session) reply(f *wire.Frame) error {
	_, err := s.encode(f)
	return err
}

// encode fast-encodes frames behind the queued replies and returns the
// vectored write list of everything queued (Data payloads are zero-copy
// segments of it, so a list holding any must be written before the
// next encode). A frame that does not encode leaves the queue as it
// was.
func (s *session) encode(frames ...*wire.Frame) ([][]byte, error) {
	n := len(s.out)
	out, bufs, err := wire.AppendFrames(s.out, frames)
	if err != nil {
		s.out = out[:n]
		return nil, err
	}
	s.out = out
	return bufs, nil
}

// flush writes the queued replies, followed by frames, as one vectored
// write.
func (s *session) flush(frames ...*wire.Frame) error {
	bufs, err := s.encode(frames...)
	if err != nil || len(bufs) == 0 {
		return err
	}
	s.out = s.out[:0]
	nb := net.Buffers(bufs)
	_, err = nb.WriteTo(s.conn)
	return err
}

// abort reports err to the coordinator as an Error frame (best
// effort) and returns it, attributed to the traced query when the
// session has seen a span context.
func (s *session) abort(err error) error {
	if s.trace.QueryID != "" {
		err = fmt.Errorf("query %s: %w", s.trace.QueryID, err)
	}
	_ = s.flush(&wire.Frame{Type: wire.TypeError, Msg: err.Error()})
	return fmt.Errorf("dist: worker %d: %w", s.id, err)
}

// handle processes one post-handshake frame.
func (s *session) handle(f *wire.Frame) error {
	switch f.Type {
	case wire.TypeData:
		if f.Data.Dest != s.id {
			return fmt.Errorf("data frame for shard %d delivered to worker %d", f.Data.Dest, s.id)
		}
		s.store.receive(exchange.Delivery{Rel: f.Data.Rel, Buf: f.Data.Buf, Retain: f.Data.Retain})
		return nil
	case wire.TypeAttach:
		return s.reply(&wire.Frame{Type: wire.TypeAttach,
			Attach: s.store.attach(f.Attach.Key, f.Attach.Store, int64(f.Attach.Tuples))})
	case wire.TypeDelta:
		if f.Delta.Dest != s.id {
			return fmt.Errorf("delta frame for shard %d delivered to worker %d", f.Delta.Dest, s.id)
		}
		s.store.applyDelta(f.Delta.Store, f.Delta.View, f.Delta.Del, f.Delta.Buf)
		return nil
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
		return s.reply(&wire.Frame{Type: wire.TypeAck, Round: f.Round})
	case wire.TypeJoin:
		spec := JoinSpec{
			Query:    f.Join.Query,
			View:     f.Join.View,
			Strategy: f.Join.Strategy,
		}
		if len(f.Join.Bindings) > 0 {
			spec.Bindings = make(map[string]string, len(f.Join.Bindings))
			for _, b := range f.Join.Bindings {
				spec.Bindings[b[0]] = b[1]
			}
		}
		q, strategy, err := parseJoinSpec(spec, s.parseQuery)
		if err != nil {
			return err
		}
		if err := s.store.join(q, spec.Bindings, spec.View, strategy); err != nil {
			return err
		}
		return s.reply(&wire.Frame{Type: wire.TypeAck})
	case wire.TypePing:
		// A pong proves liveness and — frames being processed in order —
		// ingestion of everything the coordinator sent before the ping.
		return s.reply(&wire.Frame{Type: wire.TypePong, Round: f.Round})
	case wire.TypeEpoch:
		if f.Round < s.epoch {
			return fmt.Errorf("stale epoch %d announced, session at %d", f.Round, s.epoch)
		}
		s.epoch = f.Round
		return s.reply(&wire.Frame{Type: wire.TypeAck, Round: f.Round})
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
		return s.flush(frames...)
	default:
		return fmt.Errorf("unexpected %s frame", f.Type)
	}
}
