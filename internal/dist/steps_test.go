package dist_test

import (
	"context"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/relation"
	"repro/internal/wire"
)

// One-step scripts, for the tests that drive a transport by hand, below
// any Cluster: each sends its step alone.

func deliver(ctx context.Context, tr dist.Transport, round int, ds []exchange.Delivery) error {
	_, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpDeliver, Round: round, Deliveries: ds}})
	return err
}

func barrier(ctx context.Context, tr dist.Transport, round int) error {
	_, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpBarrier, Round: round}})
	return err
}

func join(ctx context.Context, tr dist.Transport, spec dist.JoinSpec) error {
	_, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpJoin, Join: spec}})
	return err
}

func gather(ctx context.Context, tr dist.Transport, view string) ([]*relation.Run, error) {
	reply, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpGather, View: view}})
	return reply.Runs, err
}

func attach(ctx context.Context, tr dist.Transport, atts []dist.Attachment) ([][]wire.Attach, error) {
	reply, err := tr.Run(ctx, []dist.Op{{Kind: dist.OpAttach, Attach: atts}})
	return reply.Attached, err
}
