package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// WorkerError attributes a transport failure to one worker of the
// pool, which is what lets the recovery path replace exactly the
// workers that failed instead of aborting the execution.
type WorkerError struct {
	// Worker is the pool index of the failed worker.
	Worker int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *WorkerError) Error() string { return fmt.Sprintf("dist: worker %d: %v", e.Worker, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *WorkerError) Unwrap() error { return e.Err }

// FailedWorkers walks err (including errors.Join trees and wrapped
// chains) and returns the sorted, deduplicated worker indices of every
// WorkerError found. An error with no worker attribution yields nil —
// such failures are not recoverable by replacement.
func FailedWorkers(err error) []int {
	seen := map[int]bool{}
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		var we *WorkerError
		if errors.As(err, &we) {
			seen[we.Worker] = true
		}
		switch x := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		}
	}
	walk(err)
	if len(seen) == 0 {
		return nil
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// RecoveryOptions is the self-healing policy of a Cluster. The zero
// value disables recovery (failures abort the execution exactly as
// before); setting Enabled turns every worker-attributed transport
// failure into a replace-and-replay cycle bounded by MaxReplacements.
// Where a replacement comes from is the transport's business: a TCP
// session a Registry lent takes the registry's spares.
type RecoveryOptions struct {
	// Enabled turns recovery on.
	Enabled bool
	// MaxReplacements bounds how many worker replacements one execution
	// may perform; zero or negative means the pool size.
	MaxReplacements int
	// PhaseTimeout bounds each script the cluster sends (one step on a
	// stepped cluster, a round up to its fence on a fused one) and each
	// step of a heal — the replacement's dial and hello, the epoch step,
	// the replay; a worker that takes a script and never answers then
	// surfaces as a failed script that recovery heals instead of a hang.
	// Zero or negative selects defaultPhaseTimeout: with recovery on,
	// there is always a bound.
	PhaseTimeout time.Duration
}

// defaultPhaseTimeout is the bound of a policy that names none: at least
// 200 times the slowest script a BENCHMARK.json workload sends (its cold
// queries, a handful of scripts each, read 75–130 ms end to end), so it
// cuts off only a worker that is not going to answer.
const defaultPhaseTimeout = 30 * time.Second

// maxReplacements resolves the budget against the pool size.
func (o RecoveryOptions) maxReplacements(p int) int {
	if o.MaxReplacements > 0 {
		return o.MaxReplacements
	}
	return p
}

// Replaceable is what a Transport adds for mid-query recovery: a fresh
// session for one worker, and a script for that worker alone. Everything
// else a heal says — the epoch, the heartbeat that closes a replay — is a
// step of a script (OpEpoch, OpPing), so it meets whatever wraps the
// transport exactly as a round does.
type Replaceable interface {
	Transport
	// ReplaceWorker discards worker w's session and installs a fresh,
	// empty one (promoting a spare or re-dialing as the transport sees
	// fit). After it returns, w holds no state.
	ReplaceWorker(ctx context.Context, w int) error
	// RunOn is Run for worker w alone: its slice of the script, its
	// replies awaited and dropped. Replay sends the journal through it.
	RunOn(ctx context.Context, w int, ops []Op) error
}

// recovery is a Cluster's self-healing state. The journal is what makes
// a replacement worker reconstructible: every run it should hold and
// every join it should have evaluated is recorded there, so replay
// re-sends exactly the lost worker's slice of the execution — healthy
// workers are never touched and a multiround query resumes at the round
// it was in, not at round 0.
type recovery struct {
	opts     RecoveryOptions
	rt       Replaceable
	epoch    uint32
	replaced int
	journal  []Op
}

// EnableRecovery arms the cluster's self-healing: every transport
// failure attributable to specific workers (a *WorkerError anywhere in
// the error tree) triggers replace-and-replay instead of aborting. The
// transport must implement Replaceable; it alone knows what replaces a
// worker (for a lent TCP session, its registry's dial).
func (c *Cluster) EnableRecovery(opts RecoveryOptions) error {
	rt, ok := c.tr.(Replaceable)
	if !ok {
		return fmt.Errorf("dist: transport %T does not support recovery", c.tr)
	}
	c.rec = &recovery{opts: opts, rt: rt}
	return nil
}

// Replacements returns how many workers this execution has replaced.
func (c *Cluster) Replacements() int {
	if c.rec == nil {
		return 0
	}
	return c.rec.replaced
}

// phaseCtx derives the context of one script, or one step of a heal,
// from the recovery policy.
func (c *Cluster) phaseCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.rec == nil {
		return ctx, func() {}
	}
	bound := c.rec.opts.PhaseTimeout
	if bound <= 0 {
		bound = defaultPhaseTimeout
	}
	return context.WithTimeout(ctx, bound)
}

// attempt sends one script with healing: a failure attributed to
// specific workers triggers replace-and-replay for exactly those
// workers. Every effectful step was journaled before it was sent, so
// replay has rebuilt the replacement and the healthy workers — which ran
// their slices to the end — already hold theirs: sending such a step
// again would duplicate state. What is sent again, until it succeeds or
// the replacement budget runs out, is the script's idempotent suffix:
// the barriers and the gather behind its last delivery, delta, join or
// attach. The reply keeps the attach answers of the first send, with
// those of the workers it failed on dropped, and the runs, row counts and
// pieces of the last.
func (c *Cluster) attempt(ctx context.Context, ops []Op) (Reply, error) {
	var reply Reply
	for {
		pctx, cancel := c.phaseCtx(ctx)
		r, err := c.tr.Run(pctx, ops)
		cancel()
		reply.Runs, reply.From, reply.Rows, reply.Pieces = r.Runs, r.From, r.Rows, r.Pieces
		if r.Attached != nil {
			reply.Attached = r.Attached
		}
		if err == nil || c.rec == nil || ctx.Err() != nil {
			return reply, err
		}
		failed := FailedWorkers(err)
		if len(failed) == 0 {
			return reply, err
		}
		for _, w := range failed {
			if w >= 0 && w < len(reply.Attached) {
				reply.Attached[w] = nil
			}
		}
		if herr := c.heal(ctx, failed); herr != nil {
			return reply, herr
		}
		for i := len(ops) - 1; i >= 0; i-- {
			if k := ops[i].Kind; k == OpDeliver || k == OpDelta || k == OpJoin || k == OpAttach {
				ops = ops[i+1:]
				break
			}
		}
		if len(ops) == 0 {
			return reply, nil
		}
	}
}

// heal replaces each failed worker and replays its journaled state:
// bump the epoch, install a fresh session, tell the pool the epoch — one
// script of one OpEpoch step — and send the worker its slice of the
// journal, closed by a ping, as one script. Each of the three runs under
// the phase bound, so a candidate that never acks the hello or a
// replacement that goes silent mid-replay is a failure like any other.
// Failures discovered during healing (another dead worker, a replacement
// that dies mid-replay) are queued and healed too, all under the
// replacement budget.
func (c *Cluster) heal(ctx context.Context, failed []int) error {
	rec := c.rec
	bounded := func(step func(context.Context) error) error {
		pctx, cancel := c.phaseCtx(ctx)
		defer cancel()
		return step(pctx)
	}
	queue := append([]int(nil), failed...)
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w < 0 || w >= c.cfg.Workers {
			continue
		}
		if rec.replaced >= rec.opts.maxReplacements(c.cfg.Workers) {
			return fmt.Errorf("dist: worker %d failed with replacement budget %d exhausted",
				w, rec.opts.maxReplacements(c.cfg.Workers))
		}
		rec.replaced++
		rec.epoch++
		c.trace.Event(0, "replace-worker", w, fmt.Sprintf("epoch %d: session replaced, journal replayed", rec.epoch))
		if err := bounded(func(ctx context.Context) error { return rec.rt.ReplaceWorker(ctx, w) }); err != nil {
			return fmt.Errorf("dist: replace worker %d: %w", w, err)
		}
		err := bounded(func(ctx context.Context) error {
			_, err := rec.rt.Run(ctx, []Op{{Kind: OpEpoch, Round: int(rec.epoch)}})
			return err
		})
		if !slices.Contains(FailedWorkers(err), w) { // else the replacement itself died: it is queued again below
			err = errors.Join(err, bounded(func(ctx context.Context) error { return c.replay(ctx, w) }))
		}
		if err != nil {
			more := FailedWorkers(err)
			if ctx.Err() != nil || len(more) == 0 {
				return err
			}
			for _, w := range more {
				if !slices.Contains(queue, w) {
					queue = append(queue, w)
				}
			}
		}
	}
	return nil
}

// replay re-sends worker w's slice of the journal into its fresh
// session: the journal minus its barriers, then a ping, as one script on
// worker w. Barriers are unnecessary here — frames on one session are
// processed in order, and the ping's answer proves the worker ingested
// everything.
func (c *Cluster) replay(ctx context.Context, w int) error {
	rec := c.rec
	ops := make([]Op, 0, len(rec.journal)+1)
	for _, op := range rec.journal {
		if op.Kind == OpBarrier {
			continue
		}
		if op.lazy != nil {
			want := make([]bool, c.cfg.Workers)
			want[w] = true
			ds, err := op.lazy.deliveries(c.cfg.Workers, want)
			if err != nil {
				return err
			}
			op = Op{Kind: OpDeliver, Round: op.Round, Deliveries: ds}
		}
		ops = append(ops, op)
	}
	return rec.rt.RunOn(ctx, w, append(ops, Op{Kind: OpPing, Round: int(rec.epoch)}))
}

// journal records one coordinator action for replay; without recovery
// nothing is kept.
func (c *Cluster) journal(op Op) {
	if c.rec != nil {
		c.rec.journal = append(c.rec.journal, op)
	}
}
