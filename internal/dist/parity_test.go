package dist_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/relation"
)

// recordingTransport logs every step of every script a Cluster hands
// its transport, one entry per step, and every call of the recovery
// surface. It declares each method of dist.Replaceable itself instead of
// embedding one, so a call added to the recovery surface cannot reach
// the pool unrecorded: until it is declared here the wrapper is not
// Replaceable and arming recovery on it fails.
type recordingTransport struct {
	inner dist.Replaceable
	calls []string
	// scripts counts the Run calls the steps arrived in.
	scripts int
}

func (r *recordingTransport) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

func (r *recordingTransport) Workers() int { return r.inner.Workers() }

func (r *recordingTransport) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	r.scripts++
	for _, op := range ops {
		switch op.Kind {
		case dist.OpDeliver:
			r.log("Deliver(%d)", op.Round)
		case dist.OpDelta:
			r.log("ApplyDelta(%d)", op.Round)
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
	return r.inner.ReplaceWorker(ctx, w)
}

func (r *recordingTransport) RunOn(ctx context.Context, w int, ops []dist.Op) error {
	r.log("RunOn(%d)", w)
	return r.inner.RunOn(ctx, w, ops)
}

func (r *recordingTransport) Ping(ctx context.Context, w int, seq uint32) error {
	r.log("Ping(%d)", w)
	return r.inner.Ping(ctx, w, seq)
}

func (r *recordingTransport) Announce(ctx context.Context, epoch uint32) error {
	r.log("Announce(%d)", epoch)
	return r.inner.Announce(ctx, epoch)
}

// TestRecoveryArmedCostsNoTraffic: until a worker fails, arming
// recovery changes nothing a worker can observe. Every engine issues
// the identical sequence of steps, in the identical scripts, with the
// policy on and off, and a round is Deliver…, Barrier, Join: exactly one
// barrier, and nothing else, between a round's last scatter and its join.
func TestRecoveryArmedCostsNoTraffic(t *testing.T) {
	const p = 4
	type engine struct {
		name string
		run  func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions)
	}
	var engines []engine
	for _, eng := range recoveryEngines(t, p) {
		eng := eng
		engines = append(engines, engine{eng.name, func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) {
			if ans, _, _ := eng.run(t, tr, rec); !sameTuples(ans, eng.truth) {
				t.Fatalf("%d answers, ground truth %d", len(ans), len(eng.truth))
			}
		}})
	}
	// Maintainer: the cold round plus one batch that retracts and
	// extends, so both delta kinds and the delta join are on the path.
	mq := query.Cycle(3)
	mdb := relation.MatchingDatabase(rand.New(rand.NewPCG(103, 0)), mq, 200)
	atom := mq.Atoms[0].Name
	batch := map[string]relation.Effect{atom: {
		Removed: mdb.Relations[atom].Tuples[:3],
		Added:   []relation.Tuple{{1, 2}, {2, 1}},
	}}
	engines = append(engines, engine{"maintainer", func(t *testing.T, tr dist.Transport, rec dist.RecoveryOptions) {
		m, err := hypercube.NewMaintainer(mq, mdb, p, hypercube.Options{Seed: 23, Transport: tr, Recovery: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := m.ApplyDelta(batch); err != nil {
			t.Fatal(err)
		}
	}})

	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			off := &recordingTransport{inner: dist.NewLoopback(p)}
			eng.run(t, off, dist.RecoveryOptions{})
			on := &recordingTransport{inner: dist.NewLoopback(p)}
			eng.run(t, on, dist.RecoveryOptions{Enabled: true})
			if !slices.Equal(on.calls, off.calls) || on.scripts != off.scripts {
				t.Fatalf("arming recovery changed the transport calls of a fault-free run:\n on  %v\n off %v", on.calls, off.calls)
			}

			scatter := func(call string) bool {
				return strings.HasPrefix(call, "Deliver(") || strings.HasPrefix(call, "ApplyDelta(")
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
