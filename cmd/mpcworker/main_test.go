package main

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/relation"
)

func TestRunValidation(t *testing.T) {
	if err := run("", true); err == nil || !strings.Contains(err.Error(), "-listen") {
		t.Fatalf("empty -listen accepted: %v", err)
	}
	if err := run("not-an-address", true); err == nil {
		t.Fatal("malformed -listen accepted")
	}
}

// TestServeSession drives a real session against the exact serving
// path the binary runs (listener + dist.Serve).
func TestServeSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dist.Serve(ctx, ln)

	tr, err := dist.DialTCP(ctx, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	buf := relation.NewRun(2)
	buf.Append(relation.Tuple{1, 2})
	buf.Append(relation.Tuple{2, 3})
	buf.Seal()
	for _, op := range []dist.Op{
		{Kind: dist.OpDeliver, Round: 1, Deliveries: []exchange.Delivery{{To: 0, Rel: "R", Buf: buf}}},
		{Kind: dist.OpBarrier, Round: 1},
		{Kind: dist.OpJoin, Join: dist.JoinSpec{Query: "q(x,y) = R(x,y)", View: "out"}},
	} {
		if _, err := tr.Run(ctx, []dist.Op{op}); err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
	}
	reply, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpGather, View: "out"}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range reply.Runs {
		total += r.Len()
	}
	if total != 2 {
		t.Fatalf("gathered %d tuples, want 2", total)
	}
}
