package dist

import (
	"context"
	"errors"
	"fmt"
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
type RecoveryOptions struct {
	// Enabled turns recovery on.
	Enabled bool
	// MaxReplacements bounds how many worker replacements one execution
	// may perform; zero or negative means the pool size.
	MaxReplacements int
	// Spares are extra worker addresses a TCP transport may promote
	// when replacing a failed worker; the failed address is recycled to
	// the back of the spare list. Ignored by address-less transports.
	Spares []string
	// PhaseTimeout bounds each script the cluster sends (one step on a
	// stepped cluster, a round up to its fence on a fused one); a stuck
	// worker then surfaces as a failed script that recovery can heal
	// instead of a hang. Zero means no such deadline.
	PhaseTimeout time.Duration
}

// maxReplacements resolves the budget against the pool size.
func (o RecoveryOptions) maxReplacements(p int) int {
	if o.MaxReplacements > 0 {
		return o.MaxReplacements
	}
	return p
}

// Replaceable is the control surface a Transport must offer for
// mid-query recovery: replacing one worker's session and replaying
// state into it, plus the heartbeat and epoch control frames.
type Replaceable interface {
	Transport
	// ReplaceWorker discards worker w's session and installs a fresh,
	// empty one (promoting a spare or re-dialing as the transport sees
	// fit). After it returns, w holds no state.
	ReplaceWorker(ctx context.Context, w int) error
	// RunOn is Run for worker w alone: its slice of the script, its
	// replies awaited and dropped. Replay sends the journal through it.
	RunOn(ctx context.Context, w int, ops []Op) error
	// Ping round-trips a heartbeat through worker w. Because frames on
	// a session are processed in order, a returned Ping also proves the
	// worker ingested everything sent before it.
	Ping(ctx context.Context, w int, seq uint32) error
	// Announce broadcasts the coordinator's recovery epoch to the whole
	// pool; workers reject decreasing epochs as stale coordinators.
	Announce(ctx context.Context, epoch uint32) error
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
// transport must implement Replaceable; opts.Spares are handed to the
// transport when it can accept them.
func (c *Cluster) EnableRecovery(opts RecoveryOptions) error {
	rt, ok := c.tr.(Replaceable)
	if !ok {
		return fmt.Errorf("dist: transport %T does not support recovery", c.tr)
	}
	if len(opts.Spares) > 0 {
		if s, ok := c.tr.(interface{ AddSpares(addrs []string) }); ok {
			s.AddSpares(opts.Spares)
		}
	}
	c.rec = &recovery{opts: opts, rt: rt}
	return nil
}

// Epoch returns the recovery epoch: 0 until the first replacement,
// then incremented once per heal cycle.
func (c *Cluster) Epoch() uint32 {
	if c.rec == nil {
		return 0
	}
	return c.rec.epoch
}

// Replacements returns how many workers this execution has replaced.
func (c *Cluster) Replacements() int {
	if c.rec == nil {
		return 0
	}
	return c.rec.replaced
}

// phaseCtx derives the per-phase context from the recovery policy.
func (c *Cluster) phaseCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.rec != nil && c.rec.opts.PhaseTimeout > 0 {
		return context.WithTimeout(ctx, c.rec.opts.PhaseTimeout)
	}
	return ctx, func() {}
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
// those of the workers it failed on dropped, and the runs of the last.
func (c *Cluster) attempt(ctx context.Context, ops []Op) (Reply, error) {
	var reply Reply
	for {
		pctx, cancel := c.phaseCtx(ctx)
		r, err := c.tr.Run(pctx, ops)
		cancel()
		reply.Runs = r.Runs
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
// bump the epoch, install a fresh session, announce the epoch to the
// pool, re-send the worker's deliveries and joins. Failures discovered
// during healing (another dead worker, a replacement that dies
// mid-replay) are queued and healed too, all under the replacement
// budget.
func (c *Cluster) heal(ctx context.Context, failed []int) error {
	rec := c.rec
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
		c.traceEvent("replace-worker", w, fmt.Sprintf("epoch %d: session replaced, journal replayed", rec.epoch))
		if err := rec.rt.ReplaceWorker(ctx, w); err != nil {
			return fmt.Errorf("dist: replace worker %d: %w", w, err)
		}
		if err := rec.rt.Announce(ctx, rec.epoch); err != nil {
			if ctx.Err() != nil {
				return err
			}
			more := FailedWorkers(err)
			if len(more) == 0 {
				return err
			}
			queue = queueMissing(queue, more)
			if contains(more, w) {
				continue // the replacement itself died; go around again
			}
		}
		if err := c.replay(ctx, w); err != nil {
			if ctx.Err() != nil {
				return err
			}
			more := FailedWorkers(err)
			if len(more) == 0 {
				return err
			}
			queue = queueMissing(queue, more)
		}
	}
	return nil
}

// replay re-sends worker w's slice of the journal into its fresh
// session: the journal minus its barriers, on worker w. Barriers are
// unnecessary here — frames on one session are processed in order, and
// the final Ping round-trip proves the worker ingested everything.
func (c *Cluster) replay(ctx context.Context, w int) error {
	rec := c.rec
	ops := make([]Op, 0, len(rec.journal))
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
	if err := rec.rt.RunOn(ctx, w, ops); err != nil {
		return err
	}
	return rec.rt.Ping(ctx, w, rec.epoch)
}

// journal records one coordinator action for replay; without recovery
// nothing is kept.
func (c *Cluster) journal(op Op) {
	if c.rec != nil {
		c.rec.journal = append(c.rec.journal, op)
	}
}

// queueMissing appends the workers of more not already queued.
func queueMissing(queue, more []int) []int {
	for _, w := range more {
		if !contains(queue, w) {
			queue = append(queue, w)
		}
	}
	return queue
}

// contains reports whether ws includes w.
func contains(ws []int, w int) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}
