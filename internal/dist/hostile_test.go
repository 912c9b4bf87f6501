package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/wire"
)

// The wire's run encodings, as a hostile peer writes them by hand:
// encRaw is the one that stays; encFlat is the row-major encoding
// version 15 retired, encDelta the delta-varint encoding version 11
// retired.
const (
	encFlat  = 1
	encRaw   = 2
	encDelta = 3
)

// flip is a 64-bit field's zero: a value's code is the value with its
// sign bit flipped.
const flip = 1 << 63

// be and le spell 64-bit values big- and little-endian.
func be(vs ...uint64) (b []byte) {
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func le(vs ...uint64) (b []byte) {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// hostileRun is one malformed run body and the word the receiver must
// use to name what is wrong with it.
type hostileRun struct {
	name   string
	arity  uint16
	enc    byte
	stride byte
	count  uint32
	body   []byte
	want   string
}

// hostileRuns is the table both ends are held to: each entry is a run no
// sealed buffer encodes to. Version 6 acked the first five at the
// barrier — re-sorted, or stored as they came. The two named flat are
// rows of two 64-bit fields since version 15 retired the flat body.
var hostileRuns = []hostileRun{
	{"unsorted raw words", 2, encRaw, 1, 2, le(9, 1), "not sorted"},
	{"raw word above the packed width", 3, encRaw, 1, 1, le(1 << 63), "bits above"},
	{"delta first word above the packed width", 3, encDelta, 1, 1,
		binary.AppendUvarint(nil, 1<<63), "unknown buffer encoding 3"},
	{"negative flat value", 2, encRaw, 2, 1, le(flip|1, 5), "negative"},
	{"unsorted flat rows", 2, encRaw, 2, 2, le(flip|9, flip|1, flip|1, flip|1), "not sorted"},
	{"count larger than the payload", 2, encRaw, 1, 5, le(1), "truncated"},
	{"trailing bytes", 2, encRaw, 1, 1, append(le(1), 0xAA), "trailing"},
	{"retired flat body", 1, encFlat, 1, 1, be(1), "unknown buffer encoding 1"},
	{"padding bit of a two-word row", 3, encRaw, 2, 1, le(1<<32|1, 1<<32), "bits above"},
	{"stride that lays out no row", 5, encRaw, 4, 1, le(1, 1, 1, 1), "layout"},
}

// frame is a Data frame for shard 0 appending the run under rel, retained
// under key when that is not empty.
func (h hostileRun) frame(rel, key string) []byte {
	var p []byte
	p = binary.BigEndian.AppendUint32(p, 1) // round
	p = binary.BigEndian.AppendUint32(p, 0) // dest
	// The store, no view, the retain key.
	for _, s := range []string{rel, "", key} {
		p = binary.BigEndian.AppendUint16(p, uint16(len(s)))
		p = append(p, s...)
	}
	p = append(p, 0) // mode: append
	p = binary.BigEndian.AppendUint16(p, h.arity)
	p = append(p, h.enc, h.stride)
	p = binary.BigEndian.AppendUint32(p, h.count)
	p = append(p, h.body...)
	return append(binary.BigEndian.AppendUint32([]byte{byte(wire.TypeData)}, uint32(len(p))), p...)
}

// encodeFrames is the byte stream a connection carries for frames.
func encodeFrames(t testing.TB, frames ...*wire.Frame) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := wire.NewWriter(&out).Flush(frames...); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// halfClose lets the far end of a net.Pipe finish sending without
// hanging up: after end() the worker's reads drain what was written and
// then see EOF, while its replies still have somewhere to go.
type halfClose struct {
	net.Conn
	ended atomic.Bool
}

func (c *halfClose) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil && c.ended.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
		err = io.EOF
	}
	return n, err
}

func (c *halfClose) end() {
	c.ended.Store(true)
	c.Conn.SetReadDeadline(time.Unix(1, 0))
}

// workerSession is a live ServeConn on one end of a net.Pipe, playing
// worker 0 of 1, and the test's end of the pipe.
type workerSession struct {
	conn   net.Conn
	rd     *wire.Reader
	served *halfClose
	// done yields ServeConn's result, after the worker's end is closed.
	done chan error
}

func startSession(t testing.TB, rs *dist.ResidentStore, hello time.Duration) *workerSession {
	t.Helper()
	client, server := net.Pipe()
	s := &workerSession{conn: client, rd: wire.NewReader(client), served: &halfClose{Conn: server}, done: make(chan error, 1)}
	go func() {
		err := dist.ServeConnOn(context.Background(), s.served, rs, hello)
		server.Close()
		s.done <- err
	}()
	t.Cleanup(func() { client.Close() })
	return s
}

// hello opens the session as worker 0 of a pool of 1.
func (s *workerSession) hello(t testing.TB) {
	t.Helper()
	hello := encodeFrames(t, &wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{Version: wire.Version, P: 1}})
	if _, err := s.conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if f, err := s.rd.Next(); err != nil || f.Type != wire.TypeAck {
		t.Fatalf("handshake: %+v, %v", f, err)
	}
}

// run sends stream and then ends the sending direction, collecting every
// frame the worker answers until it hangs up, and ServeConn's result.
func (s *workerSession) run(t testing.TB, stream []byte) (replies []*wire.Frame, served error) {
	t.Helper()
	go func() {
		s.conn.Write(stream) // fails once the worker has hung up; that is an outcome, not an error
		s.served.end()
	}()
	for {
		f, err := s.rd.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("the worker's replies end in %v, want a clean EOF", err)
			}
			return replies, <-s.done
		}
		kept := *f // the reader's frame until its next call
		replies = append(replies, &kept)
	}
}

// TestWorkerRejectsHostileRuns: a peer that has said hello is still
// only a peer. Each malformed run — flagged to be retained, with the
// round's barrier right behind it — is answered by an Error frame naming
// the defect, the session ends there, no barrier is acked and nothing
// reaches the process's resident store.
func TestWorkerRejectsHostileRuns(t *testing.T) {
	barrier := encodeFrames(t, &wire.Frame{Type: wire.TypeBarrier, Round: 1})
	for _, h := range hostileRuns {
		t.Run(h.name, func(t *testing.T) {
			rs := dist.NewResidentStore()
			s := startSession(t, rs, time.Minute)
			s.hello(t)
			replies, served := s.run(t, append(h.frame("R", "key"), barrier...))
			if len(replies) != 1 || replies[0].Type != wire.TypeError || !strings.Contains(replies[0].Msg, h.want) {
				t.Fatalf("replies %+v, want one error frame naming %q", replies, h.want)
			}
			if served == nil || !strings.Contains(served.Error(), h.want) {
				t.Errorf("ServeConn returned %v, want the defect", served)
			}
			if rs.Entries() != 0 || rs.Bytes() != 0 {
				t.Errorf("the resident store kept %d entries (%d bytes) of a rejected run", rs.Entries(), rs.Bytes())
			}
		})
	}
}

// mixedArityScript names one store with runs of two arities, retracts
// from it and gathers it — the read that merges a store's runs into one.
func mixedArityScript(t testing.TB) []byte {
	return encodeFrames(t,
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(1, []relation.Tuple{{1}})}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(2, []relation.Tuple{{1, 2}})}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Del: true, Buf: relation.RunOf(1, []relation.Tuple{{5}})}},
		&wire.Frame{Type: wire.TypeGather, View: "R"},
	)
}

// TestWorkerRejectsMixedArityStore: every run is well-formed, the store
// they add up to is not. A store name holds one arity — as runs, after
// a retraction rewrote it, and under the Δ view an extension also
// registers — and a run of another is refused where it arrives, before
// anything is applied: an Error frame ends a session (at version 6 the
// gather panicked the worker process; until version 8 a retraction of
// another arity was accepted silently, and an extension that fit its
// store but not its view left the store changed), and on a pool that
// lives on every store reads as it did before: the rows a retraction
// removed were delivered ahead of it, and stay removed.
func TestWorkerRejectsMixedArityStore(t *testing.T) {
	unary := func(vs ...int) *relation.Run {
		ts := make([]relation.Tuple, len(vs))
		for i, v := range vs {
			ts[i] = relation.Tuple{v}
		}
		return relation.RunOf(1, ts)
	}
	binary := relation.RunOf(2, []relation.Tuple{{1, 2}})
	deliver := func(rel string, run *relation.Run) dist.Op {
		return dist.Op{Kind: dist.OpDeliver, Deliveries: []exchange.Delivery{{Rel: rel, Buf: run}}}
	}
	delta := func(store, view string, del bool, run *relation.Run) dist.Op {
		op := deliver(store, run)
		op.View, op.Del = view, del
		return op
	}
	for _, row := range []struct {
		name    string
		held    []dist.Op // accepted
		refused dist.Op
		want    string
		stores  map[string][]relation.Tuple
	}{
		{
			name: "delivery vs store", held: []dist.Op{deliver("R", unary(1))},
			refused: deliver("R", binary), want: `store "R", which holds arity 1`,
			stores: map[string][]relation.Tuple{"R": {{1}}},
		},
		{
			name: "retraction vs store", held: []dist.Op{deliver("R", unary(1, 5))},
			refused: delta("R", "", true, binary), want: `store "R", which holds arity 1`,
			stores: map[string][]relation.Tuple{"R": {{1}, {5}}},
		},
		{
			name: "retraction vs earlier tombstones", held: []dist.Op{deliver("R", unary(5, 6)), delta("R", "", true, unary(5))},
			refused: delta("R", "", true, binary), want: `store "R", which holds arity 1`,
			stores: map[string][]relation.Tuple{"R": {{6}}},
		},
		{
			name: "delivery vs earlier tombstones", held: []dist.Op{deliver("R", unary(5, 6)), delta("R", "", true, unary(5))},
			refused: deliver("R", binary), want: `store "R", which holds arity 1`,
			stores: map[string][]relation.Tuple{"R": {{6}}},
		},
		{
			name: "extension vs view", held: []dist.Op{deliver("R", relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}})), deliver("V", unary(9)), delta("R", "", true, relation.RunOf(2, []relation.Tuple{{3, 4}}))},
			refused: delta("R", "V", false, relation.RunOf(2, []relation.Tuple{{3, 4}})), want: `store "V", which holds arity 1`,
			stores: map[string][]relation.Tuple{"R": {{1, 2}}, "V": {{9}}}, // (3,4) is still retracted
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			l := dist.NewLoopback(1)
			if _, err := l.Run(ctx, row.held); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Run(ctx, []dist.Op{row.refused}); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("loopback: %v, want an error naming %s", err, row.want)
			}
			for store, want := range row.stores {
				runs, err := gather(ctx, l, store)
				if err != nil {
					t.Fatal(err)
				}
				if got := relation.Merge(runs).Tuples(); !reflect.DeepEqual(got, want) {
					t.Errorf("loopback: store %q reads %v after the refusal, want %v", store, got, want)
				}
			}

			var frames []*wire.Frame
			for _, op := range append(row.held[:len(row.held):len(row.held)], row.refused) {
				for _, d := range op.Deliveries {
					frames = append(frames, &wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: d.Rel, View: op.View, Del: op.Del, Buf: d.Buf}})
				}
			}
			s := startSession(t, nil, time.Minute)
			s.hello(t)
			replies, served := s.run(t, encodeFrames(t, append(frames, &wire.Frame{Type: wire.TypeGather, View: "R"})...))
			if len(replies) != 1 || replies[0].Type != wire.TypeError || !strings.Contains(replies[0].Msg, row.want) || served == nil {
				t.Fatalf("session: replies %+v, served %v, want one error frame naming %s", replies, served, row.want)
			}
		})
	}
	s := startSession(t, nil, time.Minute)
	s.hello(t)
	replies, served := s.run(t, mixedArityScript(t))
	if len(replies) != 1 || replies[0].Type != wire.TypeError || !strings.Contains(replies[0].Msg, "holds arity 1") || served == nil {
		t.Fatalf("replies %+v, served %v, want one error frame naming the store's arity", replies, served)
	}
}

// TestWorkerRejectsMixedArityRetainedKey: what a key keeps is merged
// into one run at the round's barrier, so a peer that flags runs of two
// arities — under two store names, each well-formed — with one key is
// refused at the second, and the barrier publishes what the key held.
func TestWorkerRejectsMixedArityRetainedKey(t *testing.T) {
	ctx := context.Background()
	rs := dist.NewResidentStore()
	l := dist.NewLoopbackOn(1, rs)
	flagged := func(rel string, run *relation.Run) []exchange.Delivery {
		return []exchange.Delivery{{Rel: rel, Buf: run, Retain: "k"}}
	}
	if err := deliver(ctx, l, 1, flagged("R", relation.RunOf(1, []relation.Tuple{{1}, {2}}))); err != nil {
		t.Fatal(err)
	}
	err := deliver(ctx, l, 1, flagged("S", relation.RunOf(2, []relation.Tuple{{1, 2}})))
	if err == nil || !strings.Contains(err.Error(), "key that holds arity 1") {
		t.Fatalf("a binary run under a unary key: %v, want a refusal naming the key's arity", err)
	}
	if err := barrier(ctx, l, 1); err != nil {
		t.Fatal(err)
	}
	if rs.Entries() != 1 || rs.Bytes() != 16 {
		t.Errorf("%d bytes in %d entries after the barrier, want the two unary rows", rs.Bytes(), rs.Entries())
	}
	if runs, err := gather(ctx, l, "S"); err != nil || len(runs) != 0 {
		t.Errorf("store S reads %v, %v after the refusal, want nothing", runs, err)
	}
}

// TestWorkerRefusesRetainedModes: a run flagged to be retained is what a
// later session attaches as the scatter's slice, so it lands appended or
// not at all — a Data frame that also retracts or absorbs is refused
// before anything is applied, on both links: the store reads as it did,
// and the barrier behind the refusal publishes nothing.
func TestWorkerRefusesRetainedModes(t *testing.T) {
	held := relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}})
	flagged := relation.RunOf(2, []relation.Tuple{{1, 2}})
	const want = "retained under a key is appended"
	for _, mode := range []struct {
		name        string
		del, absorb bool
	}{{"retracted", true, false}, {"absorbed", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			rs := dist.NewResidentStore()
			l := dist.NewLoopbackOn(1, rs)
			if err := deliver(ctx, l, 1, []exchange.Delivery{{Rel: "R", Buf: held}}); err != nil {
				t.Fatal(err)
			}
			refused := dist.Op{Kind: dist.OpDeliver, Round: 1, View: "d", Del: mode.del, Absorb: mode.absorb,
				Deliveries: []exchange.Delivery{{Rel: "R", Buf: flagged, Retain: "k"}}}
			if _, err := l.Run(ctx, []dist.Op{refused}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("loopback: %v, want a refusal naming the retain key", err)
			}
			if err := barrier(ctx, l, 1); err != nil {
				t.Fatal(err)
			}
			if runs, err := gather(ctx, l, "R"); err != nil || !reflect.DeepEqual(relation.Merge(runs).Tuples(), held.Tuples()) {
				t.Errorf("loopback: store R reads %v, %v after the refusal, want what it held", runs, err)
			}
			if runs, err := gather(ctx, l, "d"); err != nil || len(runs) != 0 {
				t.Errorf("loopback: view d reads %v, %v after the refusal, want nothing", runs, err)
			}

			tcp := dist.NewResidentStore()
			s := startSession(t, tcp, time.Minute)
			s.hello(t)
			replies, served := s.run(t, encodeFrames(t,
				&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Buf: held}},
				&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", View: "d", Retain: "k", Del: mode.del, Absorb: mode.absorb, Buf: flagged}},
				&wire.Frame{Type: wire.TypeBarrier, Round: 1},
			))
			if len(replies) != 1 || replies[0].Type != wire.TypeError || !strings.Contains(replies[0].Msg, want) || served == nil {
				t.Fatalf("session: replies %+v, served %v, want one error frame naming the retain key", replies, served)
			}
			if rs.Entries()+tcp.Entries() != 0 {
				t.Errorf("the resident stores keep %d and %d entries, want none", rs.Entries(), tcp.Entries())
			}
		})
	}
}

// TestCoordinatorRejectsHostileRuns: the same table from the other side.
// A worker that answers a gather with a malformed run fails the gather
// as that worker's error; the run is not merged into an answer.
// TestCoordinatorRejectsHostileRuns: the coordinator holds a gather reply
// to what the worker holds it to — every malformed run of the table — and
// to what it asked: a worker may stream no more rows than the gather's
// limit, nor more than the view's row count it reports. A route reply is
// held to the route: a piece for a point outside its grid, of another
// arity than the projection, unsorted, or for a grid the route did not
// name. Each is refused as that worker's error.
func TestCoordinatorRejectsHostileRuns(t *testing.T) {
	type reply struct {
		name  string
		run   []byte
		rows  uint64
		limit int
		want  string
		route bool
	}
	var replies []reply
	for _, h := range hostileRuns {
		replies = append(replies, reply{h.name, h.frame("v", ""), 1, 0, h.want, false})
	}
	three := encodeFrames(t, &wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "v",
		Buf: relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}, {5, 6}})}})
	replies = append(replies,
		reply{"rows past the limit", three, 3, 2, "limit of 2 rows answered with 3", false},
		reply{"no rows asked for", three, 3, -1, "limit of 0 rows answered with 3", false},
		reply{"count below the rows streamed", three, 2, 5, "answered with 3 rows, the worker counts 2", false})
	// A gathered run is the view's: what says how a delivered run lands —
	// a view, a retain key, a mode — has no business in a reply.
	for name, d := range map[string]wire.Data{
		"gathered run with a view":       {View: "d"},
		"gathered run with a retain key": {Retain: "k"},
		"gathered run retracted":         {Del: true},
		"gathered run absorbed":          {Absorb: true},
	} {
		d.Rel, d.Buf = "v", relation.RunOf(2, []relation.Tuple{{1, 2}})
		replies = append(replies, reply{name, encodeFrames(t, &wire.Frame{Type: wire.TypeData, Data: d}), 1, 0, "flagged to land in a store", false})
	}
	piece := func(target, dest uint32, run *relation.Run) []byte {
		return encodeFrames(t, &wire.Frame{Type: wire.TypePiece, Piece: wire.Piece{Target: target, Dest: dest, Buf: run}})
	}
	pair := relation.RunOf(2, []relation.Tuple{{1, 2}})
	unsorted := binary.BigEndian.AppendUint32(nil, 0) // target
	unsorted = binary.BigEndian.AppendUint32(unsorted, 0)
	unsorted = binary.BigEndian.AppendUint16(unsorted, 2) // arity
	unsorted = append(unsorted, encRaw, 1)
	unsorted = binary.BigEndian.AppendUint32(unsorted, 2)
	unsorted = append(unsorted, le(9, 1)...)
	unsorted = append(binary.BigEndian.AppendUint32([]byte{byte(wire.TypePiece)}, uint32(len(unsorted))), unsorted...)
	replies = append(replies,
		reply{"route piece for a point outside its grid", piece(0, 3, pair), 1, 0, "point 3 of a 1-point grid", true},
		reply{"route piece of another arity", piece(0, 0, relation.RunOf(3, []relation.Tuple{{1, 2, 3}})), 1, 0, "another arity", true},
		reply{"unsorted route piece", unsorted, 1, 0, "not sorted", true},
		reply{"route piece for a grid not asked for", piece(2, 0, pair), 1, 0, "grid 2 of 1", true})
	grid, err := exchange.NewGrid([]int{1}, []uint64{7}, []exchange.GridBind{{Pos: 0, Dim: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replies {
		t.Run(r.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			faked := make(chan error, 1)
			go func() { faked <- fakeWorker(ln, r.run, r.rows) }()
			tr, err := dist.DialTCP(context.Background(), []string{ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cl, err := dist.NewCluster(mpc.Config{Workers: 1, DomainN: 64, InputBits: 1}, tr)
			if err != nil {
				t.Fatal(err)
			}
			var we *dist.WorkerError
			if r.route {
				pieces, err := cl.Route(context.Background(), "v", []int{0, 1}, []*exchange.Grid{grid})
				if !errors.As(err, &we) || we.Worker != 0 || !strings.Contains(err.Error(), r.want) {
					t.Fatalf("route returned %d pieces and %v, want worker 0's error naming %q", len(pieces), err, r.want)
				}
			} else {
				answers, count, err := cl.GatherPrefix(context.Background(), "v", r.limit)
				if !errors.As(err, &we) || we.Worker != 0 || !strings.Contains(err.Error(), r.want) {
					t.Fatalf("gather returned %d of %d answers and %v, want worker 0's error naming %q", answers.Len(), count, err, r.want)
				}
			}
			if err := <-faked; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoordinatorRejectsMixedArityGather: two workers answer one gather
// with well-formed runs of arity 2 and 3. Each is valid alone, so the
// codec passes both; the coordinator refuses the pair, as the error of the
// worker that disagrees, before anything merges them (relation.Merge
// panicked here).
func TestCoordinatorRejectsMixedArityGather(t *testing.T) {
	addrs := make([]string, 2)
	faked := make(chan error, len(addrs))
	for w := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w] = ln.Addr().String()
		run := relation.NewRun(2 + w)
		run.Append(make(relation.Tuple, 2+w))
		run.Seal()
		data := encodeFrames(t, &wire.Frame{Type: wire.TypeData, Data: wire.Data{Dest: uint32(w), Rel: "v", Buf: run}})
		go func() { faked <- fakeWorker(ln, data, 1) }()
	}
	tr := dialPool(t, addrs)
	cl, err := dist.NewCluster(mpc.Config{Workers: 2, DomainN: 64, InputBits: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := cl.Gather(context.Background(), "v")
	var we *dist.WorkerError
	if !errors.As(err, &we) || we.Worker != 1 || !strings.Contains(err.Error(), `"v"`) ||
		!strings.Contains(err.Error(), "arity-3") || !strings.Contains(err.Error(), "arity 2") {
		t.Fatalf("gather returned %d answers and %v, want worker 1's error naming the view and both arities", answers.Len(), err)
	}
	for range addrs {
		if err := <-faked; err != nil {
			t.Fatal(err)
		}
	}
}

// fakeWorker accepts one session on ln, acks its hello, and answers its
// first gather or route with run and a Done counting it as one frame of
// rows rows.
func fakeWorker(ln net.Listener, run []byte, rows uint64) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	rd, w := wire.NewReader(conn), wire.NewWriter(conn)
	if f, err := rd.Next(); err != nil || f.Type != wire.TypeHello {
		return errors.New("fake worker: no hello")
	}
	if err := w.Flush(&wire.Frame{Type: wire.TypeAck}); err != nil {
		return err
	}
	if f, err := rd.Next(); err != nil || f.Type != wire.TypeGather && f.Type != wire.TypeRoute {
		return errors.New("fake worker: no gather or route")
	}
	if _, err := conn.Write(run); err != nil {
		return err
	}
	return w.Flush(&wire.Frame{Type: wire.TypeDone, Count: 1, Rows: rows})
}

// TestWorkerAllocationFollowsArrival: a header is a claim. One declaring
// the largest legal payload, followed by a hang-up or by silence, costs
// the worker a read chunk — it reserved the 128 MiB at version 6 — and a
// length past wire.MaxPayload is refused before any of it is read.
func TestWorkerAllocationFollowsArrival(t *testing.T) {
	header := func(n uint32) []byte {
		return binary.BigEndian.AppendUint32([]byte{byte(wire.TypeData)}, n)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	t.Run("hang-up", func(t *testing.T) {
		s := startSession(t, nil, time.Minute)
		s.hello(t)
		var replies []*wire.Frame
		var served error
		got := allocated(func() { replies, served = s.run(t, append(header(wire.MaxPayload-1), 1, 2, 3)) })
		if got > 1<<20 {
			t.Errorf("a lying header allocated %d bytes on the worker, want < 1 MiB", got)
		}
		if len(replies) != 1 || replies[0].Type != wire.TypeError || !errors.Is(served, io.ErrUnexpectedEOF) {
			t.Errorf("replies %+v, served %v, want an error frame for a truncated frame", replies, served)
		}
	})

	t.Run("stalled peer", func(t *testing.T) {
		s := startSession(t, nil, time.Minute)
		s.hello(t)
		got := allocated(func() {
			// A pipe write returns once the worker has read it, and the
			// worker asks for payload only after sizing its scratch: when the
			// lone payload byte is gone the allocation has happened.
			for _, b := range [][]byte{header(wire.MaxPayload - 1), {1}} {
				if _, err := s.conn.Write(b); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got > 1<<20 {
			t.Errorf("a lying header allocated %d bytes on a worker still waiting, want < 1 MiB", got)
		}
		select {
		case err := <-s.done:
			t.Fatalf("the session ended (%v) while its frame was still arriving", err)
		default:
		}
	})

	t.Run("oversized", func(t *testing.T) {
		s := startSession(t, nil, time.Minute)
		s.hello(t)
		replies, _ := s.run(t, header(wire.MaxPayload+1))
		if len(replies) != 1 || replies[0].Type != wire.TypeError || !strings.Contains(replies[0].Msg, "exceeds") {
			t.Fatalf("replies %+v, want one error frame refusing the length", replies)
		}
	})
}

// retiredFrames are frames an earlier version sent that this one does
// not speak: under type bytes version 10 renumbered, version 9's Trace
// frame (byte 13, now Reset, whose payload this is not) and its Reset
// frame (byte 15, now Piece, which only a worker sends); under the
// encoding byte version 11 retired, a Data and a Delta frame carrying the
// arity-2 run 5, 6 as version 10's delta varints; version 11's Gather of
// view R, short of the row limit version 12 added; version 12's hello,
// which a session opened at version 15 does not take again; version 13's
// Delta frame (byte 12, now Attach, whose payload this is not) and its
// Data frame, short of the view and the mode version 14 added; version
// 14's hello, and its Data frame of the arity-2 run 5, 6 in the flat
// body version 15 retired.
var retiredFrames = []struct {
	name  string
	frame []byte
}{
	{"trace", []byte{13, 0, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 'q', '-', '1'}},
	{"reset", []byte{15, 0, 0, 0, 4, 0, 0, 0, 1}},
	{"delta-varint data", hostileRun{arity: 2, enc: encDelta, stride: 1, count: 2, body: []byte{5, 1}}.frame("R", "")},
	{"delta-varint delta", []byte{12, 0, 0, 0, 23, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 0, 2, encDelta, 0, 0, 0, 2, 5, 1}},
	{"version-11 gather", []byte{byte(wire.TypeGather), 0, 0, 0, 3, 0, 1, 'R'}},
	{"version-12 hello", []byte{byte(wire.TypeHello), 0, 0, 0, 10, 0, 12, 0, 0, 0, 0, 0, 0, 0, 1}},
	{"version-13 delta", []byte{12, 0, 0, 0, 29, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 0, 2, encRaw, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0}},
	{"version-13 data", []byte{byte(wire.TypeData), 0, 0, 0, 28, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 2, encRaw, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0}},
	{"version-14 hello", []byte{byte(wire.TypeHello), 0, 0, 0, 10, 0, 14, 0, 0, 0, 0, 0, 0, 0, 1}},
	{"version-14 flat data", append([]byte{byte(wire.TypeData), 0, 0, 0, 39, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 0, 0, 0, 2, encFlat, 0, 0, 0, 1}, be(5, 6)...)},
}

// TestWorkerRefusesRetiredFrames: a frame of an earlier version that
// this one retired or renumbered is refused where it arrives — an Error
// frame ends the session, and the barrier behind it is never acked.
// Version 9 took the trace frame silently and acked the reset; version
// 10 stored the delta-varint runs.
func TestWorkerRefusesRetiredFrames(t *testing.T) {
	barrier := encodeFrames(t, &wire.Frame{Type: wire.TypeBarrier, Round: 1})
	for _, r := range retiredFrames {
		t.Run(r.name, func(t *testing.T) {
			s := startSession(t, nil, time.Minute)
			s.hello(t)
			replies, served := s.run(t, append(slices.Clip(r.frame), barrier...))
			if len(replies) != 1 || replies[0].Type != wire.TypeError || served == nil {
				t.Fatalf("replies %+v, served %v, want one error frame ending the session", replies, served)
			}
		})
	}
}

// TestWorkerHangsUpOnSilentDialer: a connection that never says hello is
// closed when the handshake window ends; one that says it late but
// inside the window gets a session that outlives the window.
func TestWorkerHangsUpOnSilentDialer(t *testing.T) {
	t.Run("silent", func(t *testing.T) {
		s := startSession(t, nil, 50*time.Millisecond)
		select {
		case err := <-s.done:
			if err == nil || !strings.Contains(err.Error(), "handshake") {
				t.Errorf("ServeConn returned %v, want a handshake failure", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a silent dialer still holds its session")
		}
		if _, err := s.conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("reading from a refused connection: %v, want EOF", err)
		}
	})
	t.Run("late hello", func(t *testing.T) {
		const window = time.Second
		s := startSession(t, nil, window)
		time.Sleep(window / 10)
		s.hello(t)
		time.Sleep(window) // the window is over; the session must not be
		replies, served := s.run(t, encodeFrames(t, &wire.Frame{Type: wire.TypeBarrier, Round: 1}))
		if len(replies) != 1 || replies[0].Type != wire.TypeAck || served != nil {
			t.Fatalf("after the handshake window: replies %+v, served %v, want the barrier acked", replies, served)
		}
	})
}

// TestWorkerGatherShipsPrefix: a gather under a row limit streams the
// first rows of the view's one sealed run, and its Done counts every row
// the view holds — with no limit all of them stream, with a negative one
// none.
func TestWorkerGatherShipsPrefix(t *testing.T) {
	run := relation.RunOf(2, []relation.Tuple{{9, 1}, {1, 2}, {5, 5}, {3, 3}, {1, 1}})
	s := startSession(t, nil, time.Minute)
	s.hello(t)
	replies, served := s.run(t, encodeFrames(t,
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Buf: run}},
		&wire.Frame{Type: wire.TypeBarrier, Round: 1},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: 2},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: -1},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: 9},
		&wire.Frame{Type: wire.TypeGather, View: "R"},
	))
	if served != nil {
		t.Fatal(served)
	}
	var got []string
	for _, f := range replies {
		switch f.Type {
		case wire.TypeData:
			got = append(got, fmt.Sprint(f.Data.Buf.Tuples()))
		case wire.TypeDone:
			got = append(got, fmt.Sprintf("done %d/%d", f.Count, f.Rows))
		default:
			got = append(got, f.Type.String())
		}
	}
	all := fmt.Sprint(run.Tuples())
	want := []string{"ack", "[[1 1] [1 2]]", "done 1/5", "done 0/5", all, "done 1/5", all, "done 1/5"}
	if !slices.Equal(got, want) {
		t.Fatalf("replies %q, want %q", got, want)
	}
}

// recordedScript is every kind of frame a coordinator sends after its
// hello, in the order a round sends them, to worker 0 of 1.
func recordedScript(t testing.TB) []byte {
	t.Helper()
	run := func(arity, n, max int) *relation.Run {
		b := relation.NewRun(arity)
		row := make(relation.Tuple, arity)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = (i*7 + j*3) % max
			}
			b.Append(row)
		}
		b.Seal()
		return b
	}
	wide := relation.NewRun(2)
	wide.Append(relation.Tuple{1 << 40, 2})
	wide.Seal()
	return encodeFrames(t,
		&wire.Frame{Type: wire.TypeEpoch, Round: 1},
		&wire.Frame{Type: wire.TypeAttach, Attach: wire.Attach{Key: "k", Store: "R", Tuples: 40}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Retain: "k", Buf: run(2, 40, 9)}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "S", Buf: run(2, 200, 3)}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "W", Buf: wide}},
		&wire.Frame{Type: wire.TypeBarrier, Round: 1},
		&wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: "q(x,y,z) = R(x,y), T(y,z)", View: "v", Bindings: [][2]string{{"T", "S"}}}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 2, Rel: "R", View: "delta!R", Buf: run(2, 3, 5)}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 2, Rel: "S", Del: true, Buf: run(2, 5, 3)}},
		&wire.Frame{Type: wire.TypeBarrier, Round: 2},
		&wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: "q(x,y,z) = D(x,y), S(y,z)", View: "dv", Bindings: [][2]string{{"D", "delta!R"}}}},
		&wire.Frame{Type: wire.TypePing, Round: 7},
		&wire.Frame{Type: wire.TypeGather, View: "v"},
		&wire.Frame{Type: wire.TypeGather, View: "S", Limit: 7},
		&wire.Frame{Type: wire.TypeGather, View: "W", Limit: -1},
	)
}

// FuzzWorkerSession holds a live session to the codec's contract on the
// bytes that follow a valid hello: whatever they are, the worker does
// not panic, ends the session either cleanly — every reply a well-formed
// frame, then EOF — or with one Error frame last, and, while all it does
// is decode and store, allocates no more than a small multiple of what
// it was sent. (What a join may allocate is bounded by the model's cap,
// not by the codec; enforcing that on the worker is ROADMAP item 1.)
func FuzzWorkerSession(f *testing.F) {
	script := recordedScript(f)
	f.Add(script)
	f.Add(script[:len(script)/2])
	for _, h := range hostileRuns {
		f.Add(h.frame("R", "key"))
		f.Add(append(script[:0:0], append(script, h.frame("S", "")...)...))
	}
	f.Add(mixedArityScript(f))
	for _, r := range retiredFrames {
		f.Add(append(script[:0:0], append(script, r.frame...)...))
	}
	pair := relation.RunOf(2, []relation.Tuple{{1, 2}})
	f.Add(encodeFrames(f, // retract, re-append, gather: a row rewritten out and back
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}})}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Del: true, Buf: pair}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: pair}},
		&wire.Frame{Type: wire.TypeGather, View: "R"},
	))
	for _, mode := range []wire.Data{{}, {Del: true}, {Absorb: true}} { // each mode, retained: refused
		mode.Rel, mode.View, mode.Retain, mode.Buf = "R", "d", "key", pair
		f.Add(append(script[:0:0], append(script, encodeFrames(f, &wire.Frame{Type: wire.TypeData, Data: mode})...)...))
	}
	f.Add(append(script[:0:0], append(script, encodeFrames(f, // a retraction of an arity its store does not hold
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Del: true, Buf: relation.RunOf(3, []relation.Tuple{{1, 2, 3}})}},
		&wire.Frame{Type: wire.TypeGather, View: "R"},
	)...)...))
	f.Add(binary.BigEndian.AppendUint32([]byte{byte(wire.TypeData)}, wire.MaxPayload-1))
	f.Add(binary.BigEndian.AppendUint32([]byte{byte(wire.TypeData)}, wire.MaxPayload+1))
	f.Add(encodeFrames(f, &wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{Version: wire.Version, P: 1}}))
	// Runs of arity 3 at strides 1, 2 and 3 into one store, joined and
	// gathered: the store meets them at the widest.
	var strided []*wire.Frame
	for _, top := range []int{1 << 20, 1 << 30, 1 << 40} {
		strided = append(strided, &wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(3, []relation.Tuple{{1, 2, top}, {top, 2, 1}, {1, 2, top}})}})
	}
	strided = append(strided,
		&wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: "q(x,y,z) = R(x,y,z)", View: "v"}},
		&wire.Frame{Type: wire.TypeGather, View: "v"})
	f.Add(encodeFrames(f, strided...))
	// Version 12's gather limits, and a done frame, which only a worker
	// sends: the session refuses it.
	f.Add(encodeFrames(f,
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}, {5, 6}})}},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: 1},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: -1},
		&wire.Frame{Type: wire.TypeGather, View: "R", Limit: 1 << 40},
	))
	f.Add(append(script[:0:0], append(script, encodeFrames(f, &wire.Frame{Type: wire.TypeDone, Count: 1, Rows: 3})...)...))
	f.Add(encodeFrames(f, &wire.Frame{Type: wire.TypeEpoch, Round: 3}, &wire.Frame{Type: wire.TypeEpoch, Round: 2}))
	f.Add(encodeFrames(f, &wire.Frame{Type: wire.TypeJoin, Join: wire.Join{Query: "q(x = R(x", View: "v"}}))
	// Version 13's fixpoint steps on a pool of one: absorbs into a store
	// (one already held, one new, one repeated), their Δ gathered, the
	// store routed to the one cell there is — and a route onto a column
	// the view does not have.
	cell, err := exchange.NewGrid([]int{1}, []uint64{3}, []exchange.GridBind{{Pos: 0, Dim: 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeFrames(f,
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", Buf: relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}})}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", View: "d", Absorb: true, Buf: relation.RunOf(2, []relation.Tuple{{1, 2}, {5, 6}})}},
		&wire.Frame{Type: wire.TypeData, Data: wire.Data{Rel: "R", View: "d", Absorb: true, Buf: relation.RunOf(2, []relation.Tuple{{5, 6}})}},
		&wire.Frame{Type: wire.TypeGather, View: "d"},
		&wire.Frame{Type: wire.TypeRoute, Route: wire.Route{View: "R", Cols: []int{1, 0}, Grids: []*exchange.Grid{cell}}},
		&wire.Frame{Type: wire.TypeRoute, Route: wire.Route{View: "R", Cols: []int{2}, Grids: []*exchange.Grid{cell}}},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		joins := false
		for rd := wire.NewReader(bytes.NewReader(data)); ; {
			fr, err := rd.Next()
			if err != nil {
				break
			}
			joins = joins || fr.Type == wire.TypeJoin
		}
		s := startSession(t, dist.NewResidentStore(), time.Minute)
		s.hello(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replies, served := s.run(t, data)
		runtime.ReadMemStats(&after)
		for i, fr := range replies {
			if fr.Type == wire.TypeError && i != len(replies)-1 {
				t.Fatalf("reply %d of %d is an error frame, and the session went on", i, len(replies))
			}
		}
		failed := len(replies) > 0 && replies[len(replies)-1].Type == wire.TypeError
		if failed != (served != nil) {
			t.Fatalf("ServeConn returned %v, its last reply of %d says failed=%v", served, len(replies), failed)
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); !joins && got > bound {
			t.Fatalf("%d bytes of input made the session allocate %d, want ≤ %d", len(data), got, bound)
		}
	})
}

// TestResetDropsUnpublishedRetainedRuns: a reset between a round's data
// and its barrier drops the runs flagged to be retained with the store
// that held them, so the process keeps nothing of them — and never half a
// run: what a later round retains under the same key is that round's
// alone. On a worker session and on Loopback alike.
func TestResetDropsUnpublishedRetainedRuns(t *testing.T) {
	first := relation.RunOf(2, []relation.Tuple{{1, 2}, {3, 4}})
	second := relation.RunOf(2, []relation.Tuple{{5, 6}})
	data := func(run *relation.Run) *wire.Frame {
		return &wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Retain: "k", Buf: run}}
	}
	attach := func(store string, tuples uint64) *wire.Frame {
		return &wire.Frame{Type: wire.TypeAttach, Attach: wire.Attach{Key: "k", Store: store, Tuples: tuples}}
	}
	// Both halves are wanted; only the second is kept, once its barrier
	// is in: the attaches miss, holding nothing and then one tuple.
	want := []wire.Attach{{}, {Tuples: 1}}

	rs := dist.NewResidentStore()
	s := startSession(t, rs, time.Minute)
	s.hello(t)
	replies, served := s.run(t, encodeFrames(t,
		data(first),
		&wire.Frame{Type: wire.TypeReset, Round: 7},
		&wire.Frame{Type: wire.TypeBarrier, Round: 1},
		attach("A", 2),
		data(second),
		&wire.Frame{Type: wire.TypeBarrier, Round: 2},
		attach("B", 3),
		&wire.Frame{Type: wire.TypeGather, View: "R"},
	))
	if served != nil {
		t.Fatal(served)
	}
	var got []wire.Attach
	var kinds []wire.Type
	for _, f := range replies {
		kinds = append(kinds, f.Type)
		if f.Type == wire.TypeAttach {
			got = append(got, f.Attach)
		}
	}
	wantKinds := []wire.Type{wire.TypeAck, wire.TypeAck, wire.TypeAttach, wire.TypeAck, wire.TypeAttach, wire.TypeData, wire.TypeDone}
	if !slices.Equal(kinds, wantKinds) || replies[0].Round != 7 || !reflect.DeepEqual(got, want) {
		t.Fatalf("session replies %v (reset acked with %d), attaches %+v; want %v, 7, %+v", kinds, replies[0].Round, got, wantKinds, want)
	}
	if gathered := replies[5].Data.Buf.Tuples(); !reflect.DeepEqual(gathered, second.Tuples()) {
		t.Errorf("the store reads %v after the reset, want the second round's %v", gathered, second.Tuples())
	}
	if rs.Entries() != 0 {
		t.Errorf("the process keeps %d entries, want none: the attach that contradicted the second round's evicted it", rs.Entries())
	}

	ctx := context.Background()
	rs = dist.NewResidentStore()
	l := dist.NewLoopbackOn(1, rs)
	flagged := func(run *relation.Run) dist.Op {
		return dist.Op{Kind: dist.OpDeliver, Deliveries: []exchange.Delivery{{Rel: "R", Buf: run, Retain: "k"}}}
	}
	lookup := func(store string, tuples int64) dist.Op {
		return dist.Op{Kind: dist.OpAttach, Attach: []dist.Attachment{{Key: "k", Store: store, Tuples: []int64{tuples}}}}
	}
	var attached []wire.Attach
	for _, script := range [][]dist.Op{
		{flagged(first), {Kind: dist.OpReset}, {Kind: dist.OpBarrier, Round: 1}, lookup("A", 2)},
		{flagged(second), {Kind: dist.OpBarrier, Round: 2}, lookup("B", 3)},
	} {
		reply, err := l.Run(ctx, script)
		if err != nil {
			t.Fatal(err)
		}
		attached = append(attached, reply.Attached[0]...)
	}
	if !reflect.DeepEqual(attached, want) || rs.Entries() != 0 {
		t.Fatalf("loopback: attaches %+v with %d entries kept, want %+v and none", attached, rs.Entries(), want)
	}
	if runs, err := gather(ctx, l, "R"); err != nil || len(runs) != 1 || !reflect.DeepEqual(runs[0].Tuples(), second.Tuples()) {
		t.Fatalf("loopback: store R reads %v, %v after the reset, want the second round's run", runs, err)
	}
}
