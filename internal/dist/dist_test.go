package dist_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
)

// servePool spins up n in-process TCP worker listeners (the exact code
// cmd/mpcworker runs) and returns their addresses and what shuts them
// down, waiting for the accept loops.
func servePool(n int) (addrs []string, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var serving sync.WaitGroup
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		addrs = append(addrs, ln.Addr().String())
		serving.Add(1)
		go func() {
			defer serving.Done()
			dist.Serve(ctx, ln)
		}()
	}
	return addrs, func() { cancel(); serving.Wait() }
}

// startPool is servePool shut down with the test.
func startPool(t *testing.T, n int) []string {
	addrs, stop := servePool(n)
	t.Cleanup(stop)
	return addrs
}

// dialPool dials a fresh session against the pool.
func dialPool(t *testing.T, addrs []string) *dist.TCP {
	t.Helper()
	tr, err := dist.DialTCP(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// runJoinRound drives one full BSP round — scatter R and S hashed on
// the join column, barrier, join, gather — on the given transport and
// returns answers plus stats.
func runJoinRound(t *testing.T, tr dist.Transport, r, s *relation.Relation, domain int) ([]relation.Tuple, *mpc.Stats) {
	t.Helper()
	ctx := context.Background()
	p := tr.Workers()
	cl, err := dist.NewCluster(mpc.Config{Workers: p, DomainN: domain, InputBits: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.BeginRound()
	if err := cl.Scatter(ctx, r, "R", exchange.HashPartitioner{Col: 1, P: p, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter(ctx, s, "S", exchange.HashPartitioner{Col: 0, P: p, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndRound(ctx); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	if err := cl.Join(ctx, q, nil, "out", localjoin.Default); err != nil {
		t.Fatal(err)
	}
	answers, err := cl.Gather(ctx, "out")
	if err != nil {
		t.Fatal(err)
	}
	return answers.Tuples(), cl.Stats()
}

// joinInputs builds a small R(x,y), S(y,z) pair with a known join.
func joinInputs() (*relation.Relation, *relation.Relation, int) {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	for i := 1; i <= 40; i++ {
		r.MustAdd(relation.Tuple{i, i % 7})
		s.MustAdd(relation.Tuple{i % 7, i + 1})
	}
	return r, s, 64
}

// TestClusterLoopbackVsTCP: the same round on both transports gives
// identical answers and identical per-round statistics.
func TestClusterLoopbackVsTCP(t *testing.T) {
	r, s, domain := joinInputs()
	const p = 4
	loopAns, loopStats := runJoinRound(t, dist.NewLoopback(p), r, s, domain)
	if len(loopAns) == 0 {
		t.Fatal("empty join result")
	}
	tcp := dialPool(t, startPool(t, p))
	tcpAns, tcpStats := runJoinRound(t, tcp, r, s, domain)
	if !reflect.DeepEqual(loopAns, tcpAns) {
		t.Fatalf("answers differ: loopback %d, tcp %d", len(loopAns), len(tcpAns))
	}
	if !reflect.DeepEqual(loopStats, tcpStats) {
		t.Fatalf("stats differ:\nloopback %+v\ntcp %+v", loopStats.Rounds, tcpStats.Rounds)
	}
}

// TestSessionIsolation: two concurrent sessions against the same
// worker processes do not see each other's stores.
func TestSessionIsolation(t *testing.T) {
	addrs := startPool(t, 2)
	a := dialPool(t, addrs)
	b := dialPool(t, addrs)
	ctx := context.Background()

	buf := relation.NewRun(1)
	buf.Append(relation.Tuple{7})
	buf.Seal()
	if err := deliver(ctx, a, 1, []exchange.Delivery{{To: 0, Rel: "R", Buf: buf}}); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, a, 1); err != nil {
		t.Fatal(err)
	}
	runs, err := gather(ctx, b, "R")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("session b sees %d runs delivered to session a", len(runs))
	}
	runs, err = gather(ctx, a, "R")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Len() != 1 {
		t.Fatalf("session a lost its own delivery: %v", runs)
	}
}

// TestWorkerRejectsMisroutedData: a raw Data frame whose dest shard
// is not the receiving worker's id is a protocol error, not a silent
// misdelivery.
func TestWorkerRejectsMisroutedData(t *testing.T) {
	addrs := startPool(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(f *wire.Frame) {
		t.Helper()
		if err := wire.Encode(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	send(&wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{Version: wire.Version, Worker: 1, P: 2}})
	if f, err := wire.Decode(conn); err != nil || f.Type != wire.TypeAck {
		t.Fatalf("handshake: %v %v", f, err)
	}
	buf := relation.NewRun(1)
	buf.Append(relation.Tuple{1})
	buf.Seal()
	send(&wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Dest: 0, Rel: "R", Buf: buf}})
	f, err := wire.Decode(conn)
	if err != nil || f.Type != wire.TypeError {
		t.Fatalf("want error frame for misrouted data, got %v %v", f, err)
	}
	if !strings.Contains(f.Msg, "shard") {
		t.Fatalf("error frame does not name the shard mismatch: %q", f.Msg)
	}
}

// TestWorkerRejectsVersionMismatch: a hello from a coordinator one
// protocol version behind is answered with an Error frame naming both
// versions, and the session ends — a mixed-version pool is refused at
// the handshake, before any frame whose meaning differs can be read.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	addrs := startPool(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &wire.Frame{Type: wire.TypeHello, Hello: wire.Hello{Version: wire.Version - 1, Worker: 0, P: 1}}
	if err := wire.Encode(conn, hello); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Decode(conn)
	if err != nil || f.Type != wire.TypeError {
		t.Fatalf("want error frame for a version-%d hello, got %v %v", wire.Version-1, f, err)
	}
	if want := fmt.Sprintf("version %d, worker speaks %d", wire.Version-1, wire.Version); !strings.Contains(f.Msg, want) {
		t.Errorf("error frame %q does not name both versions (%q)", f.Msg, want)
	}
	if f, err := wire.Decode(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("session still open after a refused hello: %v %v", f, err)
	}
}

// TestDeliverRejectsOutOfRange: an out-of-range destination is
// rejected coordinator-side on the TCP transport.
func TestDeliverRejectsOutOfRange(t *testing.T) {
	tr := dialPool(t, startPool(t, 2))
	buf := relation.NewRun(1)
	buf.Append(relation.Tuple{1})
	buf.Seal()
	err := deliver(context.Background(), tr, 1, []exchange.Delivery{{To: 5, Rel: "R", Buf: buf}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

// TestJoinErrorsSurface: an invalid join spec comes back as an error
// from every worker, on both transports.
func TestJoinErrorsSurface(t *testing.T) {
	ctx := context.Background()
	for _, tr := range []dist.Transport{dist.NewLoopback(2), dialPool(t, startPool(t, 2))} {
		if err := join(ctx, tr, dist.JoinSpec{Query: "not a query", View: "v"}); err == nil {
			t.Errorf("%T: malformed query accepted", tr)
		}
		if err := join(ctx, tr, dist.JoinSpec{Query: "R(x,y)", View: ""}); err == nil {
			t.Errorf("%T: empty view accepted", tr)
		}
	}
}

// TestClusterValidation: config/transport mismatches are caught.
func TestClusterValidation(t *testing.T) {
	if _, err := dist.NewCluster(mpc.Config{Workers: 3, DomainN: 10}, dist.NewLoopback(2)); err == nil {
		t.Error("pool-size mismatch accepted")
	}
	if _, err := dist.NewCluster(mpc.Config{Workers: 2, DomainN: 10}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := dist.NewCluster(mpc.Config{Workers: 2, DomainN: 0}, dist.NewLoopback(2)); err == nil {
		t.Error("invalid domain accepted")
	}
	if _, err := dist.DialTCP(context.Background(), nil); err == nil {
		t.Error("empty address list accepted")
	}
}

// TestCapEnforcement: the receive budget trips identically on both
// transports (accounting is coordinator-side).
func TestCapEnforcement(t *testing.T) {
	r, s, domain := joinInputs()
	cfg := mpc.Config{Workers: 2, DomainN: domain, InputBits: 8, CapConstant: 0.001}
	for _, tr := range []dist.Transport{dist.NewLoopback(2), dialPool(t, startPool(t, 2))} {
		cl, err := dist.NewCluster(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		cl.BeginRound()
		if err := cl.Scatter(ctx, r, "R", exchange.HashPartitioner{Col: 1, P: 2}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Scatter(ctx, s, "S", exchange.HashPartitioner{Col: 0, P: 2}); err != nil {
			t.Fatal(err)
		}
		err = cl.EndRound(ctx)
		if err == nil {
			t.Fatalf("%T: tiny budget not enforced", tr)
		}
		if !strings.Contains(err.Error(), "receive cap exceeded") {
			t.Fatalf("%T: unexpected error %v", tr, err)
		}
	}
}
