package dist_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
)

// recordingTransport logs every step of every script a Cluster hands
// its transport, one entry per step, and every call of the recovery
// surface. It declares each method of dist.Replaceable — ReplaceWorker
// and RunOn, nothing else — itself instead of embedding one, so a call
// added to the recovery surface cannot reach the pool unrecorded: until
// it is declared here the wrapper is not Replaceable and arming recovery
// on it fails.
type recordingTransport struct {
	inner dist.Replaceable
	calls []string
	// scripts counts the Run calls the steps arrived in, unbounded the
	// calls of any kind whose context had no deadline.
	scripts, unbounded int
}

func (r *recordingTransport) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

func (r *recordingTransport) see(ctx context.Context) {
	if _, bounded := ctx.Deadline(); !bounded {
		r.unbounded++
	}
}

func (r *recordingTransport) Workers() int { return r.inner.Workers() }

func (r *recordingTransport) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	r.scripts++
	r.see(ctx)
	for _, op := range ops {
		switch op.Kind {
		case dist.OpDeliver:
			switch {
			case op.Del:
				r.log("Retract(%d)", op.Round)
			case op.Absorb:
				r.log("Absorb(%d)", op.Round)
			default:
				r.log("Deliver(%d)", op.Round)
			}
		case dist.OpBarrier:
			r.log("Barrier(%d)", op.Round)
		case dist.OpJoin:
			r.log("Join")
		case dist.OpGather:
			r.log("Gather")
		default:
			r.log("%s", op.Kind)
		}
	}
	return r.inner.Run(ctx, ops)
}

func (r *recordingTransport) Close() error {
	r.log("Close")
	return r.inner.Close()
}

func (r *recordingTransport) ReplaceWorker(ctx context.Context, w int) error {
	r.log("ReplaceWorker(%d)", w)
	r.see(ctx)
	return r.inner.ReplaceWorker(ctx, w)
}

func (r *recordingTransport) RunOn(ctx context.Context, w int, ops []dist.Op) error {
	r.log("RunOn(%d)", w)
	r.see(ctx)
	return r.inner.RunOn(ctx, w, ops)
}

// TestRecoveryArmedCostsNoTraffic: until a worker fails, arming
// recovery changes nothing a worker can observe. Every engine issues
// the identical sequence of steps, in the identical scripts, with the
// policy on and off, and a round is Deliver…, Barrier, Join: exactly one
// barrier, and nothing else, between a round's last scatter and its join.
func TestRecoveryArmedCostsNoTraffic(t *testing.T) {
	const p = 4
	for _, x := range explorations(t, p) {
		if x.name == "resident" || x.lent {
			continue // a round that scatters nothing; a session reset between executions
		}
		t.Run(x.name, func(t *testing.T) {
			off, on := &recordingTransport{inner: dist.NewLoopback(p)}, &recordingTransport{inner: dist.NewLoopback(p)}
			for tr, rec := range map[*recordingTransport]dist.RecoveryOptions{off: {}, on: {Enabled: true}} {
				if out, err := x.on(tr, rec); err != nil || !sameTuples(out.answers, x.truth) {
					t.Fatalf("%d answers and %v, ground truth %d", len(out.answers), err, len(x.truth))
				}
			}
			if !slices.Equal(on.calls, off.calls) || on.scripts != off.scripts {
				t.Fatalf("arming recovery changed the transport calls of a fault-free run:\n on  %v\n off %v", on.calls, off.calls)
			}

			scatter := func(call string) bool {
				return strings.HasPrefix(call, "Deliver(") || strings.HasPrefix(call, "Retract(") || strings.HasPrefix(call, "Absorb(")
			}
			rounds := 0
			for i, call := range on.calls {
				if !scatter(call) || (i+1 < len(on.calls) && scatter(on.calls[i+1])) {
					continue
				}
				// call is a round's last scatter.
				rounds++
				barrier := "Barrier" + call[strings.Index(call, "("):]
				if i+2 >= len(on.calls) || on.calls[i+1] != barrier || on.calls[i+2] != "Join" {
					t.Fatalf("round closes as %v, want [%s %s Join]: %v", on.calls[i:min(i+3, len(on.calls))], call, barrier, on.calls)
				}
			}
			if rounds == 0 {
				t.Fatalf("no round recorded: %v", on.calls)
			}
		})
	}
}
