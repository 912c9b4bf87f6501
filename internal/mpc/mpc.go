// Package mpc simulates the Massively Parallel Communication model
// MPC(ε) of Beame, Koutris, Suciu (PODS 2013, Section 2.1).
//
// A Cluster holds p workers connected by private channels. Computation
// proceeds in synchronous rounds: every worker runs a step function
// (concurrently, one goroutine per worker — the simulation's analogue
// of independent servers), the produced tuples are routed through the
// columnar exchange layer (internal/exchange), and the engine accounts
// the bits each worker *receives* directly from the sizes of the
// delivered buffers. The model's single resource constraint is enforced
// here: per round a worker may receive at most c·N/p^{1−ε} bits, where
// N is the input size in bits and ε ∈ [0,1] is the space exponent.
//
// The paper's "input servers" (Section 2.4) are modelled by Scatter and
// ScatterPart, which route the tuples of one base relation to workers
// during the first round (partitioning source shards in parallel); they
// perform the same receive accounting. Workers store what they receive
// as sealed columnar runs and read it back through Received.
package mpc

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// Config parameterizes a cluster.
type Config struct {
	// Workers is p, the number of servers. Must be ≥ 1.
	Workers int
	// Epsilon is the space exponent ε ∈ [0,1].
	Epsilon float64
	// InputBits is N, the input size in bits, used by the receive cap.
	InputBits int64
	// CapConstant is the constant c in the per-round receive cap
	// c·N/p^{1−ε}. Zero or negative disables enforcement (the engine
	// still records loads, so experiments can report them).
	CapConstant float64
	// DomainN is the domain size n; it fixes the bit cost of a tuple
	// value (⌈log2(n+1)⌉ bits).
	DomainN int
}

// Validate checks the configuration. internal/dist validates with it
// too, so both cluster implementations reject the same configurations.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("mpc: Workers = %d, need ≥ 1", c.Workers)
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("mpc: Epsilon = %v outside [0,1]", c.Epsilon)
	}
	if c.DomainN < 1 {
		return fmt.Errorf("mpc: DomainN = %d, need ≥ 1", c.DomainN)
	}
	return nil
}

// ReceiveCap returns the per-round per-worker receive budget in bits:
// c·N/p^{1−ε}. Returns 0 when enforcement is disabled.
func (c Config) ReceiveCap() int64 {
	if c.CapConstant <= 0 {
		return 0
	}
	cap := c.CapConstant * float64(c.InputBits) / math.Pow(float64(c.Workers), 1-c.Epsilon)
	return int64(math.Ceil(cap))
}

// ErrCapExceeded reports a worker receiving more bits in a round than
// the MPC(ε) budget allows.
var ErrCapExceeded = errors.New("mpc: receive cap exceeded")

// Worker is one server's local state: the tuples it has received,
// grouped by relation/view name and stored as sorted columnar runs.
// Workers have unlimited compute; all cost accounting happens on
// communication.
type Worker struct {
	// ID is the worker index in [0, p).
	ID int

	mu    sync.Mutex
	store map[string]*exchange.Column
}

func newWorker(id int) *Worker {
	return &Worker{ID: id, store: make(map[string]*exchange.Column)}
}

// Received returns the tuples of the named relation this worker has
// received so far (across all rounds). Each call materializes a fresh,
// stable view from the columnar store: mutating the returned tuples
// cannot corrupt the worker's state or any other caller's view.
func (w *Worker) Received(rel string) []relation.Tuple {
	return w.ReceivedFrom(rel, 0)
}

// ReceivedFrom returns the tuples of rel at positions start and up —
// the incremental read for round-based consumers that track a consumed
// prefix. The view is fresh per call, like Received.
func (w *Worker) ReceivedFrom(rel string, start int) []relation.Tuple {
	w.mu.Lock()
	defer w.mu.Unlock()
	col := w.store[rel]
	if col == nil {
		return nil
	}
	return col.TuplesFrom(start)
}

// addRun appends a sealed columnar run to the worker's store. The
// column is created and mutated under w.mu, so deliveries and readers
// may safely interleave.
func (w *Worker) addRun(rel string, run *exchange.Buffer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	col := w.store[rel]
	if col == nil {
		col = &exchange.Column{}
		w.store[rel] = col
	}
	col.Add(run)
}

// add appends loose tuples as one run (test seams and local writes).
func (w *Worker) add(rel string, ts []relation.Tuple) {
	if len(ts) == 0 {
		return
	}
	b := exchange.NewBuffer(len(ts[0]))
	for _, t := range ts {
		b.Append(t)
	}
	b.Seal()
	w.addRun(rel, b)
}

// RoundStats records the communication of one round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// TotalBits is the sum of bits received by all workers.
	TotalBits int64
	// TotalTuples is the number of tuples received by all workers.
	TotalTuples int64
	// MaxReceivedBits is the largest per-worker received bit count.
	MaxReceivedBits int64
	// MaxReceivedTuples is the largest per-worker received tuple count.
	MaxReceivedTuples int64
	// PerWorkerBits holds bits received by each worker.
	PerWorkerBits []int64
	// PerWorkerTuples holds tuples received by each worker.
	PerWorkerTuples []int64
}

// Account folds one delivered run — tuples tuples costing bits bits,
// received by worker to — into the round's counters. PerWorkerBits and
// PerWorkerTuples must already be sized to the cluster. It is the one
// accounting primitive shared by the in-process simulation and the
// distributed coordinator (internal/dist), so both record identical
// statistics for identical deliveries.
func (rs *RoundStats) Account(to int, tuples, bits int64) {
	rs.PerWorkerBits[to] += bits
	rs.PerWorkerTuples[to] += tuples
	rs.TotalBits += bits
	rs.TotalTuples += tuples
	if rs.PerWorkerBits[to] > rs.MaxReceivedBits {
		rs.MaxReceivedBits = rs.PerWorkerBits[to]
	}
	if rs.PerWorkerTuples[to] > rs.MaxReceivedTuples {
		rs.MaxReceivedTuples = rs.PerWorkerTuples[to]
	}
}

// CheckCap validates the round against a per-worker receive budget in
// bits, returning an ErrCapExceeded-wrapping error naming the first
// offending worker. A budget ≤ 0 disables enforcement.
func (rs *RoundStats) CheckCap(budget int64) error {
	if budget <= 0 {
		return nil
	}
	for w, bits := range rs.PerWorkerBits {
		if bits > budget {
			return fmt.Errorf("%w: worker %d received %d bits in round %d, budget %d",
				ErrCapExceeded, w, bits, rs.Round, budget)
		}
	}
	return nil
}

// Stats aggregates per-round statistics for a run.
type Stats struct {
	Rounds []RoundStats
}

// TotalBits sums received bits over all rounds.
func (s *Stats) TotalBits() int64 {
	var total int64
	for _, r := range s.Rounds {
		total += r.TotalBits
	}
	return total
}

// MaxLoadBits returns the largest per-worker per-round received bits.
func (s *Stats) MaxLoadBits() int64 {
	var m int64
	for _, r := range s.Rounds {
		if r.MaxReceivedBits > m {
			m = r.MaxReceivedBits
		}
	}
	return m
}

// MaxLoadTuples returns the largest per-worker per-round received
// tuple count.
func (s *Stats) MaxLoadTuples() int64 {
	var m int64
	for _, r := range s.Rounds {
		if r.MaxReceivedTuples > m {
			m = r.MaxReceivedTuples
		}
	}
	return m
}

// NumRounds returns the number of communication rounds executed.
func (s *Stats) NumRounds() int { return len(s.Rounds) }

// Replication returns total received bits divided by the input size —
// the observed replication rate (the model predicts O(p^ε) per round).
func (s *Stats) Replication(inputBits int64) float64 {
	if inputBits == 0 {
		return 0
	}
	return float64(s.TotalBits()) / float64(inputBits)
}

// Cluster is a running MPC(ε) simulation.
//
// A Cluster owns all of its mutable state — workers, columnar stores,
// round statistics — and shares nothing with other Clusters, so
// independent simulations may run concurrently (every engine builds a
// fresh Cluster per execution; the serving layer's concurrent query
// executions rely on this isolation). One Cluster's methods are not
// themselves safe for concurrent use: rounds are driven by a single
// caller, while the per-worker concurrency happens inside RunRound
// and ScatterPart.
type Cluster struct {
	cfg     Config
	workers []*Worker
	stats   Stats
	round   int
	open    bool // a BeginRound round is accumulating deliveries
}

// NewCluster builds a cluster of cfg.Workers idle workers.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	c.workers = make([]*Worker, cfg.Workers)
	for i := range c.workers {
		c.workers[i] = newWorker(i)
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Workers returns the worker slice (shared; callers read state only).
func (c *Cluster) Workers() []*Worker { return c.workers }

// Worker returns worker i.
func (c *Cluster) Worker(i int) *Worker { return c.workers[i] }

// Stats returns the accumulated statistics.
func (c *Cluster) Stats() *Stats { return &c.stats }

// Round returns the number of completed rounds.
func (c *Cluster) Round() int { return c.round }

// StepFunc computes one worker's outgoing tuples for a round, writing
// them into out. It is invoked concurrently for all workers; it must
// only read the worker's own state (the model's servers cannot see each
// other's memory).
type StepFunc func(round int, w *Worker, out *exchange.Outbox)

// RunRound executes one communication round: every worker's step runs
// in its own goroutine with a private outbox, then the collected
// columnar runs are delivered and accounted. If the receive cap is
// enforced and violated, the round still completes (statistics are
// recorded) and ErrCapExceeded is returned.
func (c *Cluster) RunRound(step StepFunc) error {
	c.round++
	outs := make([]*exchange.Outbox, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			outs[i] = exchange.NewOutbox(len(c.workers))
			step(c.round, w, outs[i])
		}(i, w)
	}
	wg.Wait()
	var all []exchange.Delivery
	for _, o := range outs {
		if err := o.Err(); err != nil {
			return fmt.Errorf("mpc: round %d: %w", c.round, err)
		}
		all = append(all, o.Deliveries()...)
	}
	return c.deliver(all)
}

// ScatterPart performs an input-server transmission for one base
// relation through the columnar exchange: part routes every tuple,
// source shards partition in parallel, and the sealed runs are
// delivered. Multiple scatters within the same logical round should be
// grouped with BeginRound/EndRound; a lone scatter accounts its
// delivery as part of the current open round if one exists, otherwise
// as a fresh round.
func (c *Cluster) ScatterPart(rel *relation.Relation, part exchange.Partitioner) error {
	ds, err := exchange.Partition(rel.Name, rel.Tuples, rel.Arity(), len(c.workers), part)
	if err != nil {
		return fmt.Errorf("mpc: scatter: %w", err)
	}
	return c.deliverIntoOpenRound(ds)
}

// Scatter is ScatterPart with a per-tuple destination function —
// route(t) lists the destination workers of each tuple. The routing
// still flows through the columnar exchange.
func (c *Cluster) Scatter(rel *relation.Relation, route func(t relation.Tuple) []int) error {
	return c.ScatterPart(rel, exchange.RouteFunc(route))
}

// Broadcast sends every tuple of rel to all workers (used for tiny
// relations such as the √n-sized unary endpoints in Prop 3.12).
func (c *Cluster) Broadcast(rel *relation.Relation) error {
	return c.ScatterPart(rel, exchange.Broadcast{P: len(c.workers)})
}

// BeginRound opens a new round into which a sequence of Scatter or
// Broadcast calls accumulate — they logically belong to a single
// communication step (e.g. all input servers transmitting in round 1).
func (c *Cluster) BeginRound() {
	c.round++
	c.open = true
	c.stats.Rounds = append(c.stats.Rounds, RoundStats{
		Round:         c.round,
		PerWorkerBits: make([]int64, len(c.workers)),
	})
}

// EndRound closes the round opened by BeginRound and reports a cap
// violation, if any.
func (c *Cluster) EndRound() error {
	if !c.open {
		return errors.New("mpc: EndRound without BeginRound")
	}
	c.open = false
	return c.checkCap(&c.stats.Rounds[len(c.stats.Rounds)-1])
}

// deliver routes runs as a fresh (already counted) round.
func (c *Cluster) deliver(all []exchange.Delivery) error {
	rs := RoundStats{Round: c.round, PerWorkerBits: make([]int64, len(c.workers))}
	if err := c.route(all, &rs); err != nil {
		return err
	}
	c.stats.Rounds = append(c.stats.Rounds, rs)
	return c.checkCap(&c.stats.Rounds[len(c.stats.Rounds)-1])
}

// deliverIntoOpenRound routes runs into the round opened by
// BeginRound, or a fresh self-contained round if none is open.
func (c *Cluster) deliverIntoOpenRound(all []exchange.Delivery) error {
	if c.open {
		return c.route(all, &c.stats.Rounds[len(c.stats.Rounds)-1])
	}
	c.round++
	rs := RoundStats{Round: c.round, PerWorkerBits: make([]int64, len(c.workers))}
	if err := c.route(all, &rs); err != nil {
		return err
	}
	c.stats.Rounds = append(c.stats.Rounds, rs)
	return c.checkCap(&c.stats.Rounds[len(c.stats.Rounds)-1])
}

// route appends sealed runs to destination workers and updates rs
// cumulatively (several deliveries may share one round via BeginRound).
// All accounting derives from buffer sizes — no per-tuple bookkeeping.
func (c *Cluster) route(all []exchange.Delivery, rs *RoundStats) error {
	if rs.PerWorkerTuples == nil {
		rs.PerWorkerTuples = make([]int64, len(c.workers))
	}
	for _, d := range all {
		if d.To < 0 || d.To >= len(c.workers) {
			return fmt.Errorf("mpc: delivery to worker %d out of range [0,%d)", d.To, len(c.workers))
		}
		n := int64(d.Buf.Len())
		if n == 0 {
			continue
		}
		bits := d.Buf.Bits(relation.BitsPerValue(c.cfg.DomainN))
		c.workers[d.To].addRun(d.Rel, d.Buf)
		rs.Account(d.To, n, bits)
	}
	return nil
}

// checkCap validates the round against the receive budget.
func (c *Cluster) checkCap(rs *RoundStats) error {
	return rs.CheckCap(c.cfg.ReceiveCap())
}
