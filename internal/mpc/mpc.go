// Package mpc is the vocabulary of the Massively Parallel Communication
// model MPC(ε) of Beame, Koutris, Suciu (PODS 2013, Section 2.1): the
// model's parameters and its communication accounting.
//
// p servers compute in synchronous rounds; the single resource
// constraint is that a server may receive at most c·N/p^{1−ε} bits per
// round, where N is the input size in bits and ε ∈ [0,1] is the space
// exponent. Config carries those parameters and derives the budget
// (ReceiveCap); RoundStats records what every worker received in one
// round (Account) and checks it against the budget (CheckCap); Stats is
// a run's record, in the paper's currency: rounds, max per-worker load,
// total bits. The cluster that runs the rounds and fills these records
// in is internal/dist.
package mpc

import (
	"errors"
	"fmt"
	"math"
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

// Validate checks the configuration; dist.NewCluster rejects what it
// rejects.
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
// accounting primitive: the coordinator (internal/dist) calls it from
// buffer sizes before a run reaches any transport, so every transport
// records identical statistics for identical deliveries.
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
