package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exchange"
	"repro/internal/wire"
)

// TCP is the socket Transport: one connection per worker, wire frames
// (internal/wire) for every primitive. A TCP value is one execution
// session — the workers' per-connection stores live exactly as long
// as it does — so callers that share a worker pool across concurrent
// executions dial one TCP transport per execution. Only what a worker
// process was asked to retain outlives it, for later sessions to Attach.
type TCP struct {
	conns []*workerConn
	// mu guards the address bookkeeping below, mutated only by the
	// (sequential) recovery path.
	mu sync.Mutex
	// addrs[i] is the address worker i currently runs at.
	addrs []string
	// spares are addresses of idle workers available for promotion when
	// a member dies; a replaced member's old address is recycled to the
	// back of this list.
	spares []string
	// dials counts the pool-wide dials and worker replacements this
	// session paid, exchanges its acknowledged pool-wide round trips; a
	// service adds them up across executions.
	dials, exchanges atomic.Int64
}

// Dials returns how many times the session dialled: one for DialTCP,
// one per ReplaceWorker.
func (t *TCP) Dials() int64 { return t.dials.Load() }

// Exchanges returns how many acknowledged pool-wide round trips the
// session made — every Barrier, Join, Gather, RunScript, Announce and
// Attach. A fused round (RunScript) is one; the synchronous schedule
// pays three, four in a round that attaches to resident scatters.
func (t *TCP) Exchanges() int64 { return t.exchanges.Load() }

// workerConn is the coordinator's end of one worker connection. The
// mutex serializes frame traffic per worker; distinct workers proceed
// in parallel.
type workerConn struct {
	id   int
	mu   sync.Mutex
	conn net.Conn
	// rd validates every frame the worker sends: a reply is input from
	// another process, whoever is expected to be running there.
	rd *wire.Reader
	// w queues and writes frames: whatever is queued leaves, in order, in
	// the one vectored write of the next Flush.
	w *wire.Writer
}

// ParseAddrs splits a comma-separated worker address list (the
// -workers flag of mpcrun and mpcserve): entries are trimmed, empty
// entries are rejected, and an all-whitespace input yields nil.
func ParseAddrs(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("dist: empty address in worker list %q", s)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// DialTCP connects to one mpcworker process per address and performs
// the session handshake; the pool size is len(addrs) and worker i is
// addrs[i]. All workers are dialled concurrently — a session costs one
// connect-and-handshake latency, not p of them. On any failure every
// connection that did open is closed and the error names each worker
// that could not be reached.
func DialTCP(ctx context.Context, addrs []string) (*TCP, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dist: no worker addresses")
	}
	t := &TCP{
		conns: make([]*workerConn, len(addrs)),
		addrs: append([]string(nil), addrs...),
	}
	t.dials.Add(1)
	err := eachWorker(len(addrs), func(i int) (err error) {
		t.conns[i], err = t.dialWorker(ctx, i)
		return err
	})
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// dialWorker connects worker slot i to its current address, falling
// back to spares (and recycling the dead address) when it is
// unreachable. The caller holds no lock; slot bookkeeping is guarded
// by t.mu.
func (t *TCP) dialWorker(ctx context.Context, i int) (*workerConn, error) {
	t.mu.Lock()
	candidates := append([]string{t.addrs[i]}, t.spares...)
	t.mu.Unlock()
	var firstErr error
	for _, addr := range candidates {
		wc, err := dialHandshake(ctx, i, len(t.conns), addr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.mu.Lock()
		if addr != t.addrs[i] {
			// A spare was promoted: remove it from the spare list and
			// recycle the dead member address behind the remaining spares.
			for j, s := range t.spares {
				if s == addr {
					t.spares = append(t.spares[:j], t.spares[j+1:]...)
					break
				}
			}
			t.spares = append(t.spares, t.addrs[i])
			t.addrs[i] = addr
		}
		t.mu.Unlock()
		return wc, nil
	}
	return nil, firstErr
}

// dialHandshake opens one worker connection and runs the session
// handshake for slot i of a pool of p.
func dialHandshake(ctx context.Context, i, p int, addr string) (*workerConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial worker %d at %s: %w", i, addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	wc := &workerConn{
		id:   i,
		conn: conn,
		rd:   wire.NewReader(bufio.NewReaderSize(conn, 1<<16)),
		w:    wire.NewWriter(conn),
	}
	hello := &wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{
		Version: wire.Version,
		Worker:  uint32(i),
		P:       uint32(p),
	}}
	if err := wc.control(ctx, hello, wire.TypeAck, 0); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake with worker %d at %s: %w", i, addr, err)
	}
	return wc, nil
}

// AddSpares appends spare worker addresses available for promotion by
// ReplaceWorker. Cluster.EnableRecovery calls this with
// RecoveryOptions.Spares.
func (t *TCP) AddSpares(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spares = append(t.spares, addrs...)
}

// Workers implements Transport.
func (t *TCP) Workers() int { return len(t.conns) }

// roundTrip runs op while ctx can interrupt the connection: if ctx is
// cancelled (or its deadline passes) the connection deadline is
// poisoned, so any blocked read or write inside op fails promptly
// instead of hanging on a stuck worker. The poison is scoped to the
// phase, not the connection: the next roundTrip starts by clearing the
// deadline, so a healthy connection that was collaterally poisoned by
// an expired per-phase context (recovery's PhaseTimeout) keeps working
// in later phases. Failures are attributed to the worker as a
// *WorkerError, which is what the recovery path keys on.
func (wc *workerConn) roundTrip(ctx context.Context, op func() error) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return &WorkerError{Worker: wc.id, Err: err}
	}
	wc.conn.SetDeadline(time.Time{})
	stop := context.AfterFunc(ctx, func() { wc.conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := op(); err != nil {
		if ctx.Err() != nil {
			return &WorkerError{Worker: wc.id, Err: ctx.Err()}
		}
		return &WorkerError{Worker: wc.id, Err: err}
	}
	return nil
}

// expect reads the next frame and requires it to be of type want
// echoing tag echo (the round of a barrier, the epoch of an
// announcement, the sequence of a ping; zero for the commands whose
// ack carries none); an Error frame becomes the worker's reported
// error.
func (wc *workerConn) expect(want wire.Type, echo uint32) error {
	f, err := wc.rd.Next()
	if err != nil {
		return err
	}
	switch {
	case f.Type == wire.TypeError:
		return fmt.Errorf("worker error: %s", f.Msg)
	case f.Type != want:
		return fmt.Errorf("unexpected %s frame, want %s", f.Type, want)
	case f.Round != echo:
		return fmt.Errorf("%s echoes %d, want %d", want, f.Round, echo)
	}
	return nil
}

// control is the one control round trip of the protocol: send f, wait
// for the worker's reply, and require its type and echo.
func (wc *workerConn) control(ctx context.Context, f *wire.Frame, want wire.Type, echo uint32) error {
	return wc.roundTrip(ctx, func() error {
		if err := wc.w.Flush(f); err != nil {
			return err
		}
		return wc.expect(want, echo)
	})
}

// eachWorker runs fn for every worker slot of a pool of n concurrently
// and joins the failures.
func eachWorker(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// eachConn is eachWorker over the session's connections.
func (t *TCP) eachConn(fn func(wc *workerConn) error) error {
	return eachWorker(len(t.conns), func(i int) error { return fn(t.conns[i]) })
}

// dataFrames converts one worker's deliveries to wire frames.
func dataFrames(frames []*wire.Frame, round int, ds []exchange.Delivery) []*wire.Frame {
	for _, d := range ds {
		frames = append(frames, &wire.Frame{Type: wire.TypeData, Data: wire.Data{
			Round:  uint32(round),
			Dest:   uint32(d.To),
			Rel:    d.Rel,
			Retain: d.Retain,
			Buf:    d.Buf,
		}})
	}
	return frames
}

// deltaFrames converts one worker's delta deliveries to wire frames.
func deltaFrames(frames []*wire.Frame, round int, ds []DeltaDelivery) []*wire.Frame {
	for _, d := range ds {
		frames = append(frames, &wire.Frame{Type: wire.TypeDelta, Delta: wire.Delta{
			Round: uint32(round),
			Dest:  uint32(d.To),
			Store: d.Store,
			View:  d.View,
			Del:   d.Del,
			Buf:   d.Buf,
		}})
	}
	return frames
}

// scatter is the body Deliver and ApplyDelta share: bucket the
// deliveries by destination worker (to reads it off one delivery), then
// frame each worker's bucket and write it to its connection as one
// vectored send (raw word payloads leave as segments aliasing the
// buffers), all workers in parallel. Nothing is acknowledged; Barrier is
// the ingestion fence.
func scatter[D any](ctx context.Context, t *TCP, ds []D, to func(D) int, frames func([]D) []*wire.Frame) error {
	byWorker := make([][]D, len(t.conns))
	for _, d := range ds {
		w := to(d)
		if w < 0 || w >= len(t.conns) {
			return fmt.Errorf("dist: delivery to worker %d out of range [0,%d)", w, len(t.conns))
		}
		byWorker[w] = append(byWorker[w], d)
	}
	return t.eachConn(func(wc *workerConn) error {
		mine := byWorker[wc.id]
		if len(mine) == 0 {
			return nil
		}
		return wc.roundTrip(ctx, func() error {
			return wc.w.Flush(frames(mine)...)
		})
	})
}

// ApplyDelta implements Transport.
func (t *TCP) ApplyDelta(ctx context.Context, round int, ds []DeltaDelivery) error {
	return scatter(ctx, t, ds, func(d DeltaDelivery) int { return d.To },
		func(mine []DeltaDelivery) []*wire.Frame { return deltaFrames(nil, round, mine) })
}

// Deliver implements Transport.
func (t *TCP) Deliver(ctx context.Context, round int, ds []exchange.Delivery) error {
	return scatter(ctx, t, ds, func(d exchange.Delivery) int { return d.To },
		func(mine []exchange.Delivery) []*wire.Frame { return dataFrames(nil, round, mine) })
}

// Attach implements Attacher: one write and one reply per attachment on
// every connection — one exchange, however many scatters attach.
func (t *TCP) Attach(ctx context.Context, atts []Attachment) ([][]wire.Attach, error) {
	t.exchanges.Add(1)
	replies := make([][]wire.Attach, len(t.conns))
	err := t.eachConn(func(wc *workerConn) error {
		return wc.roundTrip(ctx, func() error {
			frames := make([]*wire.Frame, len(atts))
			for i, a := range atts {
				frames[i] = &wire.Frame{Type: wire.TypeAttach, Attach: wire.Attach{
					Key: a.Key, Store: a.Store, Tuples: uint64(a.Tuples[wc.id])}}
			}
			if err := wc.w.Flush(frames...); err != nil {
				return err
			}
			for range atts {
				f, err := wc.rd.Next()
				if err == nil && f.Type != wire.TypeAttach {
					err = fmt.Errorf("unexpected %s frame answering an attach: %s", f.Type, f.Msg)
				}
				if err != nil {
					return err
				}
				replies[wc.id] = append(replies[wc.id], f.Attach)
			}
			return nil
		})
	})
	return replies, err
}

// Barrier implements Transport: every connection writes its queued
// frames and the barrier, and waits for the worker's ack.
func (t *TCP) Barrier(ctx context.Context, round int) error {
	t.exchanges.Add(1)
	f := &wire.Frame{Type: wire.TypeBarrier, Round: uint32(round)}
	return t.eachConn(func(wc *workerConn) error {
		return wc.control(ctx, f, wire.TypeAck, uint32(round))
	})
}

// joinFrame builds the wire frame for a local-evaluation command.
func joinFrame(spec JoinSpec) *wire.Frame {
	f := &wire.Frame{Type: wire.TypeJoin, Join: wire.Join{
		Query:    spec.Query,
		View:     spec.View,
		Strategy: spec.Strategy,
	}}
	for atom, store := range spec.Bindings {
		f.Join.Bindings = append(f.Join.Bindings, [2]string{atom, store})
	}
	return f
}

// Join implements Transport.
func (t *TCP) Join(ctx context.Context, spec JoinSpec) error {
	t.exchanges.Add(1)
	f := joinFrame(spec)
	return t.eachConn(func(wc *workerConn) error {
		return wc.control(ctx, f, wire.TypeAck, 0)
	})
}

// readGatherStream consumes one worker's gather reply — Data frames
// terminated by a Done carrying the run count — and returns the runs.
// The caller holds wc.mu via roundTrip.
func (wc *workerConn) readGatherStream(view string) ([]*exchange.Buffer, error) {
	var runs []*exchange.Buffer
	for {
		f, err := wc.rd.Next()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case wire.TypeData:
			if f.Data.Rel != view {
				return nil, fmt.Errorf("gather of %q answered with run for %q", view, f.Data.Rel)
			}
			runs = append(runs, f.Data.Buf)
		case wire.TypeDone:
			if int(f.Count) != len(runs) {
				return nil, fmt.Errorf("gather of %q: %d runs streamed, done frame says %d",
					view, len(runs), f.Count)
			}
			return runs, nil
		case wire.TypeError:
			return nil, fmt.Errorf("worker error: %s", f.Msg)
		default:
			return nil, fmt.Errorf("unexpected %s frame in gather stream", f.Type)
		}
	}
}

// Gather implements Transport: every worker streams its runs back in
// parallel; the result keeps worker order (all of worker 0's runs,
// then worker 1's, …) so gathers are deterministic.
func (t *TCP) Gather(ctx context.Context, view string) ([]*exchange.Buffer, error) {
	t.exchanges.Add(1)
	perWorker := make([][]*exchange.Buffer, len(t.conns))
	err := t.eachConn(func(wc *workerConn) error {
		return wc.roundTrip(ctx, func() error {
			if err := wc.w.Flush(&wire.Frame{Type: wire.TypeGather, View: view}); err != nil {
				return err
			}
			runs, err := wc.readGatherStream(view)
			if err != nil {
				return err
			}
			perWorker[wc.id] = runs
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	var runs []*exchange.Buffer
	for _, rs := range perWorker {
		runs = append(runs, rs...)
	}
	return runs, nil
}

// RunScript implements scriptTransport: the pipelined fence. Each
// worker's whole slice of the deferred round script — data frames,
// barriers, joins, and the final gather — is written as one burst of
// vectored sends with no intermediate round trips, then the worker's
// replies (barrier and join acks, then the gather stream) are read
// back. Because frames on a session are processed in order, a worker
// starts its local join the moment its own data has arrived,
// regardless of how far the coordinator has gotten with the other
// workers: compute overlaps communication across the pool, and the
// BSP barrier degrades to a per-worker completion fence.
func (t *TCP) RunScript(ctx context.Context, ops []recOp, view string) ([]*exchange.Buffer, error) {
	for _, op := range ops {
		for _, d := range op.ds {
			if d.To < 0 || d.To >= len(t.conns) {
				return nil, fmt.Errorf("dist: delivery to worker %d out of range [0,%d)", d.To, len(t.conns))
			}
		}
		for _, d := range op.dds {
			if d.To < 0 || d.To >= len(t.conns) {
				return nil, fmt.Errorf("dist: delta to worker %d out of range [0,%d)", d.To, len(t.conns))
			}
		}
	}
	t.exchanges.Add(1)
	perWorker := make([][]*exchange.Buffer, len(t.conns))
	err := t.eachConn(func(wc *workerConn) error {
		return wc.roundTrip(ctx, func() error {
			var frames []*wire.Frame
			for _, op := range ops {
				switch op.kind {
				case opDeliver:
					var mine []exchange.Delivery
					for _, d := range op.ds {
						if d.To == wc.id {
							mine = append(mine, d)
						}
					}
					frames = dataFrames(frames, op.round, mine)
				case opDelta:
					var mine []DeltaDelivery
					for _, d := range op.dds {
						if d.To == wc.id {
							mine = append(mine, d)
						}
					}
					frames = deltaFrames(frames, op.round, mine)
				case opBarrier:
					frames = append(frames, &wire.Frame{Type: wire.TypeBarrier, Round: uint32(op.round)})
				case opJoin:
					frames = append(frames, joinFrame(op.spec))
				case opTrace:
					frames = append(frames, &wire.Frame{Type: wire.TypeTrace, Trace: op.hdr})
				}
			}
			frames = append(frames, &wire.Frame{Type: wire.TypeGather, View: view})
			if err := wc.w.Flush(frames...); err != nil {
				return err
			}
			// The worker answers in script order: one ack per barrier and
			// join, then the gather stream. Acks are tiny, so reading them
			// only after the full write cannot deadlock; the gather reply
			// itself starts only after the worker consumed our entire
			// script.
			for _, op := range ops {
				switch op.kind {
				case opBarrier:
					if err := wc.expect(wire.TypeAck, uint32(op.round)); err != nil {
						return err
					}
				case opJoin:
					if err := wc.expect(wire.TypeAck, 0); err != nil {
						return err
					}
				}
			}
			runs, err := wc.readGatherStream(view)
			if err != nil {
				return err
			}
			perWorker[wc.id] = runs
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	var runs []*exchange.Buffer
	for _, rs := range perWorker {
		runs = append(runs, rs...)
	}
	return runs, nil
}

// SendTrace implements traceTransport: the round's span context is
// queued on every connection unacknowledged, ahead of the round's Data
// frames. It costs no write of its own — a thin round would otherwise
// wake every worker once just for the header — and leaves in the
// connection's next write, at the latest the round barrier's, which is
// also the fence that proves ingestion.
func (t *TCP) SendTrace(_ context.Context, h wire.TraceHeader) error {
	f := &wire.Frame{Type: wire.TypeTrace, Trace: h}
	var errs []error
	for _, wc := range t.conns {
		wc.mu.Lock()
		err := wc.w.Queue(f)
		wc.mu.Unlock()
		if err != nil {
			errs = append(errs, &WorkerError{Worker: wc.id, Err: err})
		}
	}
	return errors.Join(errs...)
}

// ReplaceWorker implements Replaceable: it closes worker w's dead
// connection and installs a fresh session, re-dialing the worker's
// address with spare fallback. The new session is empty; the caller
// (Cluster.heal) replays journaled state into it.
func (t *TCP) ReplaceWorker(ctx context.Context, w int) error {
	if w < 0 || w >= len(t.conns) {
		return fmt.Errorf("dist: replace worker %d out of range [0,%d)", w, len(t.conns))
	}
	t.dials.Add(1)
	old := t.conns[w]
	wc, err := t.dialWorker(ctx, w)
	if err != nil {
		return err
	}
	t.conns[w] = wc
	if old != nil && old.conn != nil {
		old.conn.Close()
	}
	return nil
}

// JoinWorker implements Replaceable: the local-evaluation command for
// worker w only, used when replaying a replaced worker.
func (t *TCP) JoinWorker(ctx context.Context, w int, spec JoinSpec) error {
	if w < 0 || w >= len(t.conns) {
		return fmt.Errorf("dist: join worker %d out of range [0,%d)", w, len(t.conns))
	}
	return t.conns[w].control(ctx, joinFrame(spec), wire.TypeAck, 0)
}

// Ping implements Replaceable: a heartbeat round trip through worker
// w. Its returned Pong also proves the worker ingested every frame
// sent before it on the session.
func (t *TCP) Ping(ctx context.Context, w int, seq uint32) error {
	if w < 0 || w >= len(t.conns) {
		return fmt.Errorf("dist: ping worker %d out of range [0,%d)", w, len(t.conns))
	}
	return t.conns[w].control(ctx, &wire.Frame{Type: wire.TypePing, Round: seq}, wire.TypePong, seq)
}

// Announce implements Replaceable: broadcast the recovery epoch, every
// worker acking it (echoing the epoch) or rejecting it as stale.
func (t *TCP) Announce(ctx context.Context, epoch uint32) error {
	t.exchanges.Add(1)
	f := &wire.Frame{Type: wire.TypeEpoch, Round: epoch}
	return t.eachConn(func(wc *workerConn) error {
		return wc.control(ctx, f, wire.TypeAck, epoch)
	})
}

// Close implements Transport: all connections are closed; workers
// drop the session stores when they observe the close.
func (t *TCP) Close() error {
	var errs []error
	for _, wc := range t.conns {
		if wc != nil && wc.conn != nil {
			if err := wc.conn.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
