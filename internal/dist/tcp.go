package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/wire"
)

// TCP is the socket Transport: one connection per worker, wire frames
// (internal/wire) for every step. A TCP value is a session: it carries
// one execution at a time, and the workers' per-connection stores live
// until an OpReset empties them or the connections close. Callers that
// share a worker pool across concurrent executions borrow one session per
// execution from a Registry, which dials a session only when none is
// parked and parks each one, reset, when its execution is done (Close).
// Only what a worker process was asked to retain outlives a reset, for
// later executions to attach to. A session keeps no membership of its
// own: a lent one dials every slot, first or as a replacement, through
// its Registry, which may promote a spare; one DialTCP made re-dials
// only its own addresses.
type TCP struct {
	conns []*workerConn
	// mu guards addrs, which a lent session's slot dials update.
	mu sync.Mutex
	// addrs[i] is the address worker i currently runs at.
	addrs []string
	// dials counts the pool-wide dials and worker replacements this
	// borrow of the session paid, exchanges its acknowledged pool-wide
	// round trips; a lent session adds both to its registry's Usage too.
	// promoted counts the spares its dials promoted into the registry's
	// members.
	dials, exchanges, promoted atomic.Int64
	// reg is the Registry that dials the session's slots (nil: DialTCP's
	// own, hung up at Close); lent says it lent the session to a borrower
	// and reused that it lent one it had parked.
	reg          *Registry
	lent, reused bool
	// failed is whether the last script, replay or replacement failed: a
	// session whose execution ended there is in no known state. closed
	// makes Close act once.
	failed, closed atomic.Bool
}

// Dials returns how many times this borrow of the session dialled: one
// for DialTCP, none for a session a Registry lent out of its parked ones,
// one per ReplaceWorker.
func (t *TCP) Dials() int64 { return t.dials.Load() }

// Exchanges returns how many acknowledged pool-wide round trips this
// borrow of the session made: every Run that reads a reply — one per
// fence, so a one-shot round is one, a round that attaches to resident
// scatters two, and the epoch step of a heal one more. The reset that
// parks a session is no borrower's.
func (t *TCP) Exchanges() int64 { return t.exchanges.Load() }

// Reused reports whether a Registry lent this session out of its parked
// ones instead of dialling it.
func (t *TCP) Reused() bool { return t.reused }

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
	// w writes a script slice's frames in one vectored write.
	w *wire.Writer
	// slice and out are the scratch a script slice's frames are built in;
	// a connection runs one script at a time.
	slice []wire.Frame
	out   []*wire.Frame
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
	t, _, err := dialTCP(ctx, addrs, nil)
	return t, err
}

// dialTCP is DialTCP for a session reg lends (nil: none), whose slots
// reg's dial connects; it also returns how many spares that promoted.
func dialTCP(ctx context.Context, addrs []string, reg *Registry) (*TCP, int, error) {
	if len(addrs) == 0 {
		return nil, 0, errors.New("dist: no worker addresses")
	}
	t := &TCP{
		conns: make([]*workerConn, len(addrs)),
		addrs: append([]string(nil), addrs...),
		reg:   reg,
	}
	t.dials.Add(1)
	err := eachWorker(len(addrs), func(i int) (err error) {
		t.conns[i], err = t.dialWorker(ctx, i)
		return err
	})
	promoted := int(t.promoted.Load())
	if err != nil {
		t.hangUp()
		return nil, promoted, err
	}
	return t, promoted, nil
}

// HelloTimeout bounds one candidate's connect and hello — a constant,
// not a setting. A worker acks a hello in milliseconds; one that accepts
// the connection and never answers — a stopped process — would otherwise
// hold a dial for as long as its caller's context lives, which for a
// /query whose client set no deadline is forever.
const HelloTimeout = 3 * time.Second

// dialWorker connects worker slot i: through the lending registry's dial,
// or, for a session of its own, at the slot's address alone.
func (t *TCP) dialWorker(ctx context.Context, i int) (*workerConn, error) {
	if t.reg != nil {
		return t.reg.dial(ctx, t, i)
	}
	return dialSlot(ctx, i, len(t.conns), t.addrs[i:i+1], nil)
}

// dialSlot connects slot i of a pool of p to the first candidate, in
// order, that acks the hello and that take (nil: any) accepts. A
// candidate that accepts the connection and never acks the hello — a
// stopped process — must not use up the time of those behind it: each
// gets HelloTimeout, or less when an equal share of what is left until
// ctx's deadline is less. The error is the first candidate's.
func dialSlot(ctx context.Context, i, p int, candidates []string, take func(addr string) bool) (*workerConn, error) {
	var firstErr error
	for k, addr := range candidates {
		bound := HelloTimeout
		if deadline, ok := ctx.Deadline(); ok {
			bound = min(bound, time.Until(deadline)/time.Duration(len(candidates)-k))
		}
		cctx, cancel := context.WithTimeout(ctx, bound)
		wc, err := dialHandshake(cctx, i, p, addr)
		cancel()
		if err == nil && take != nil && !take(addr) {
			wc.conn.Close()
			err = fmt.Errorf("dist: spare %s was promoted into another slot", addr)
		}
		if err == nil {
			return wc, nil
		}
		if firstErr == nil {
			firstErr = err
		}
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
	err = wc.roundTrip(ctx, func() error {
		if err := wc.w.Flush(hello); err != nil {
			return err
		}
		return wc.expect(wire.TypeAck, 0)
	})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake with worker %d at %s: %w", i, addr, err)
	}
	return wc, nil
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
// echoing tag echo (the round of a barrier, the epoch of an epoch
// step, the sequence of a ping; zero for the commands whose ack carries
// none); an Error frame becomes the worker's reported error.
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

// frames appends worker w's slice of op to frames: its own deliveries,
// every other step — what a TCP session writes to the worker, and what a
// Loopback session handles unencoded.
func (op *Op) frames(frames []wire.Frame, w int) []wire.Frame {
	switch op.Kind {
	case OpDeliver:
		for _, d := range op.Deliveries {
			if d.To == w {
				frames = append(frames, wire.Frame{Type: wire.TypeData, Data: wire.Data{
					Round: uint32(op.Round), Dest: uint32(w), Rel: d.Rel, View: op.View, Retain: d.Retain,
					Del: op.Del, Absorb: op.Absorb, Buf: d.Buf}})
			}
		}
	case OpBarrier:
		frames = append(frames, wire.Frame{Type: wire.TypeBarrier, Round: uint32(op.Round)})
	case OpJoin:
		f := wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: op.Join.Query, View: op.Join.View}}
		for atom, store := range op.Join.Bindings {
			f.Join.Bindings = append(f.Join.Bindings, [2]string{atom, store})
		}
		frames = append(frames, f)
	case OpAttach:
		for _, a := range op.Attach {
			frames = append(frames, wire.Frame{Type: wire.TypeAttach, Attach: wire.Attach{
				Key: a.Key, Store: a.Store, Tuples: uint64(a.Tuples[w])}})
		}
	case OpGather:
		if op.reaches(w) {
			frames = append(frames, wire.Frame{Type: wire.TypeGather, View: op.View, Limit: int64(op.Limit)})
		}
	case OpRoute:
		frames = append(frames, wire.Frame{Type: wire.TypeRoute, Route: op.Route})
	case OpEpoch:
		frames = append(frames, wire.Frame{Type: wire.TypeEpoch, Round: uint32(op.Round)})
	case OpPing:
		frames = append(frames, wire.Frame{Type: wire.TypePing, Round: uint32(op.Round)})
	case OpReset:
		frames = append(frames, wire.Frame{Type: wire.TypeReset, Round: uint32(op.Round)})
	}
	return frames
}

// answered reports whether the worker replies to the step.
func (k OpKind) answered() bool {
	return k != OpDeliver
}

// reaches reports whether a gather reads worker w.
func (op *Op) reaches(w int) bool {
	return op.Cells == nil || slices.Contains(op.Cells, w)
}

// checkDestinations refuses a script that delivers to a worker outside
// a pool of p before any of it runs, on either link.
func checkDestinations(ops []Op, p int) error {
	for _, op := range ops {
		for _, d := range op.Deliveries {
			if d.To < 0 || d.To >= p {
				return fmt.Errorf("dist: delivery to worker %d out of range [0,%d)", d.To, p)
			}
		}
	}
	return nil
}

// readStream consumes one worker's reply to a gather or a route — Data or
// Piece frames, terminated by a Done that counts them and carries the
// gathered view's row count — into ans. A gathered run is the view's, and
// carries nothing that says how a delivered run lands. The caller holds
// wc.mu via roundTrip.
func (wc *workerConn) readStream(op *Op, ans *answers) error {
	want, stream := wire.TypeData, "gather"
	if op.Kind == OpRoute {
		want, stream = wire.TypePiece, "route"
	}
	n := 0
	for {
		f, err := wc.rd.Next()
		if err != nil {
			return err
		}
		switch {
		case f.Type == want && want == wire.TypePiece:
			ans.pieces = append(ans.pieces, Piece{From: wc.id, Target: int(f.Piece.Target), To: int(f.Piece.Dest), Buf: f.Piece.Buf})
		case f.Type == want:
			d := &f.Data
			if d.Rel != op.View {
				return fmt.Errorf("gather of %q answered with run for %q", op.View, d.Rel)
			}
			if d.View != "" || d.Retain != "" || d.Del || d.Absorb {
				return fmt.Errorf("gather of %q answered with a run flagged to land in a store", op.View)
			}
			ans.runs = append(ans.runs, d.Buf)
		case f.Type == wire.TypeDone:
			if int(f.Count) != n && want == wire.TypePiece {
				return fmt.Errorf("route: %d pieces streamed, done frame says %d", n, f.Count)
			}
			if int(f.Count) != n {
				return fmt.Errorf("gather of %q: %d runs streamed, done frame says %d", op.View, n, f.Count)
			}
			if want == wire.TypeData {
				ans.rows += int(f.Rows)
			}
			return nil
		case f.Type == wire.TypeError:
			return fmt.Errorf("worker error: %s", f.Msg)
		default:
			return fmt.Errorf("unexpected %s frame in %s stream", f.Type, stream)
		}
		n++
	}
}

// answers is what one worker replied to its slice of a script: the runs
// its gathers streamed and the rows their views hold, its attach answers
// and the pieces its routes derived.
type answers struct {
	runs     []*relation.Run
	rows     int
	attached []wire.Attach
	pieces   []Piece
}

// run is one worker's half of a script: its whole slice — data frames,
// barriers, joins, the gather — leaves as one vectored write (raw word
// payloads as segments aliasing the buffers) with no round trip in
// between, then the worker's replies are read back in script order.
// Because frames on a session are processed in order, a worker starts
// its local join the moment its own data has arrived, however far the
// coordinator has got with the other workers: the BSP barrier is a
// completion fence inside each worker's stream, not a pool-wide stall.
// Acks are tiny, so reading them only after the full write cannot
// deadlock; a gather reply starts only after the worker consumed the
// whole script. A slice nothing answers is only written.
func (wc *workerConn) run(ctx context.Context, ops []Op) (ans answers, err error) {
	wc.slice, wc.out = wc.slice[:0], wc.out[:0]
	for i := range ops {
		wc.slice = ops[i].frames(wc.slice, wc.id)
	}
	for i := range wc.slice {
		wc.out = append(wc.out, &wc.slice[i])
	}
	frames := wc.out
	if len(frames) == 0 {
		return ans, nil
	}
	err = wc.roundTrip(ctx, func() error {
		if err := wc.w.Flush(frames...); err != nil {
			return err
		}
		for _, op := range ops {
			var err error
			switch op.Kind {
			case OpBarrier, OpEpoch, OpReset:
				err = wc.expect(wire.TypeAck, uint32(op.Round))
			case OpPing:
				err = wc.expect(wire.TypePong, uint32(op.Round))
			case OpJoin:
				err = wc.expect(wire.TypeAck, 0)
			case OpAttach:
				for range op.Attach {
					f, err := wc.rd.Next()
					if err == nil && f.Type != wire.TypeAttach {
						err = fmt.Errorf("unexpected %s frame answering an attach: %s", f.Type, f.Msg)
					}
					if err != nil {
						return err
					}
					ans.attached = append(ans.attached, f.Attach)
				}
			case OpGather, OpRoute:
				if op.reaches(wc.id) {
					err = wc.readStream(&op, &ans)
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return answers{}, err // half a reply is none
	}
	return ans, nil
}

// errClosed refuses a script on a session that was closed: its
// connections are hung up, or lent to another execution.
var errClosed = errors.New("dist: session closed")

// Run implements Transport: every connection runs its slice of the
// script in parallel.
func (t *TCP) Run(ctx context.Context, ops []Op) (Reply, error) {
	if t.closed.Load() {
		return Reply{}, errClosed
	}
	reply, err := t.runAll(ctx, ops)
	t.failed.Store(err != nil)
	return reply, err
}

// runAll is Run on an open session.
func (t *TCP) runAll(ctx context.Context, ops []Op) (Reply, error) {
	if err := checkDestinations(ops, len(t.conns)); err != nil {
		return Reply{}, err
	}
	answered, attaches, gathers := false, false, false
	for _, op := range ops {
		answered = answered || op.Kind.answered()
		attaches = attaches || op.Kind == OpAttach
		gathers = gathers || op.Kind == OpGather
	}
	if answered {
		t.exchanges.Add(1)
		if t.lent {
			t.reg.exchanges.Add(1)
		}
	}
	perWorker := make([]answers, len(t.conns))
	err := eachWorker(len(t.conns), func(w int) (err error) {
		perWorker[w], err = t.conns[w].run(ctx, ops)
		return err
	})
	var reply Reply
	if attaches {
		reply.Attached = make([][]wire.Attach, len(t.conns))
		for w := range perWorker {
			reply.Attached[w] = perWorker[w].attached
		}
	}
	if err != nil {
		return reply, err
	}
	if gathers {
		reply.Rows = make([]int, len(t.conns))
	}
	for w, ans := range perWorker {
		if gathers {
			reply.Rows[w] = ans.rows
		}
		for _, run := range ans.runs {
			reply.Runs, reply.From = append(reply.Runs, run), append(reply.From, w)
		}
		reply.Pieces = append(reply.Pieces, ans.pieces...)
	}
	return reply, nil
}

// ReplaceWorker implements Replaceable: it closes worker w's dead
// connection and installs a fresh session, dialled the way the slot was
// first dialled (dialWorker) — so a lent session may promote one of its
// registry's spares. The new session is empty; the caller (Cluster.heal)
// replays journaled state into it.
func (t *TCP) ReplaceWorker(ctx context.Context, w int) error {
	if w < 0 || w >= len(t.conns) {
		return fmt.Errorf("dist: replace worker %d out of range [0,%d)", w, len(t.conns))
	}
	if t.closed.Load() {
		return errClosed
	}
	t.dials.Add(1)
	if t.lent {
		t.reg.dials.Add(1)
	}
	old := t.conns[w]
	wc, err := t.dialWorker(ctx, w)
	if err != nil {
		t.failed.Store(true)
		return err
	}
	t.conns[w] = wc
	if old != nil && old.conn != nil {
		old.conn.Close()
	}
	return nil
}

// RunOn implements Replaceable: worker w's slice of the script on its
// connection alone, used when replaying a replaced worker.
func (t *TCP) RunOn(ctx context.Context, w int, ops []Op) error {
	if w < 0 || w >= len(t.conns) {
		return fmt.Errorf("dist: run on worker %d out of range [0,%d)", w, len(t.conns))
	}
	if t.closed.Load() {
		return errClosed
	}
	_, err := t.conns[w].run(ctx, ops)
	if err != nil {
		t.failed.Store(true)
	}
	return err
}

// Close implements Transport; only the first call acts. A session a
// Registry lent goes back to it when its last script succeeded: reset off
// the caller's path and parked for the next borrower, as a new TCP value
// on the same connections, so what this one counted stays its own. Any
// other session is hung up; workers drop the session stores when they
// observe the close.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.reg != nil && !t.failed.Load() {
		t.mu.Lock()
		idle := &TCP{conns: t.conns, addrs: t.addrs}
		t.mu.Unlock()
		t.reg.release(idle)
		return nil
	}
	return t.hangUp()
}

// whole reports whether every connection of a parked session held: no
// worker hung up on it, reset it or spoke unasked while nobody listened.
func (t *TCP) whole() bool {
	for _, wc := range t.conns {
		if !whole(wc.conn) {
			return false
		}
	}
	return true
}

// hangUp closes every connection of the session.
func (t *TCP) hangUp() error {
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
