// Package exchange is the routing layer of the MPC cluster: the one
// place a tuple is assigned to the workers that receive it.
//
// The paper measures algorithms purely by communication — per-worker
// per-round received bits — so who receives what is the decision every
// engine (hypercube, multiround, skew, cc) makes through this package.
// Routing policy is pluggable through the Partitioner interface; the
// three disciplines of the engines — plain hash partitioning, hypercube
// grid replication, and skew-aware heavy-hitter routing — are all
// Partitioners (HashPartitioner and Broadcast here,
// hypercube.NewGridPartitioner, and the skew package). PartitionRun
// routes a sealed run through one (Partition, a tuple slice sealed into
// one first) into one sealed relation.Run per destination, the same
// whatever GOMAXPROCS: a Delivery, the unit the coordinator accounts and
// ships. It is a counting scatter — route and count, then copy each row
// into exact-size runs — over source shards routed in parallel. Round
// statistics (total bits, max per-worker load, cap enforcement) fall out
// of the deliveries' sizes with no per-message accounting.
//
// What is routed — the run, its one layout of packed words, its sort and
// its set algebra — belongs to internal/relation; what carries it
// between processes belongs to internal/wire. Besides the routing, the
// package keeps three one-line aliases that bench/probes.go pins.
package exchange

import "repro/internal/relation"

// Buffer is relation.Run under the name it had while this package owned
// it; bench/probes.go, which product PRs may not edit, spells it so.
type Buffer = relation.Run

// NewBuffer is relation.NewRun, pinned by bench/probes.go.
func NewBuffer(arity int) *Buffer { return relation.NewRun(arity) }

// MergeRuns is relation.Merge materialized as tuples, pinned by
// bench/probes.go.
func MergeRuns(runs []*Buffer) []relation.Tuple { return relation.Merge(runs).Tuples() }
