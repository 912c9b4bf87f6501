package exchange

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/relation"
)

// Partitioner decides, tuple by tuple, which workers receive a tuple.
// Implementations must be safe for concurrent use: PartitionRun invokes
// Route from one goroutine per source shard.
type Partitioner interface {
	// Route appends the destination worker ids of t — the i-th row of
	// the source run — to buf and returns the extended slice.
	// Callers pass a reusable scratch buffer (typically buf[:0]); Route
	// must not retain it. Returning no destinations drops the tuple.
	Route(i int, t relation.Tuple, buf []int) []int
}

// Keyed is optionally implemented by a Partitioner that can describe
// its routing function completely: equal keys route every tuple
// identically; "" says there is no such description.
type Keyed interface{ Key() string }

// HashDest is the shared splitmix64-style hash placement used by the
// plain-hash disciplines (skew routing, cc vertex ownership): the
// worker owning value v under the given seed, in [0, p).
func HashDest(v int, seed uint64, p int) int {
	return int(Mix(uint64(v), seed) % uint64(p))
}

// HashPartitioner hashes one column to a single destination — the
// classic equi-join shuffle.
type HashPartitioner struct {
	// Col is the tuple position hashed.
	Col int
	// P is the worker count.
	P int
	// Seed drives the hash.
	Seed uint64
}

// Route implements Partitioner.
func (h HashPartitioner) Route(_ int, t relation.Tuple, buf []int) []int {
	return append(buf, HashDest(t[h.Col], h.Seed, h.P))
}

// Broadcast replicates every tuple to all P workers (tiny relations,
// e.g. the √n-sized unary endpoints of Prop 3.12).
type Broadcast struct {
	// P is the worker count.
	P int
}

// Route implements Partitioner.
func (b Broadcast) Route(_ int, _ relation.Tuple, buf []int) []int {
	for d := 0; d < b.P; d++ {
		buf = append(buf, d)
	}
	return buf
}

// Delivery is one sealed per-destination run bound for worker To under
// relation name Rel — the unit the coordinator accounts and delivers.
type Delivery struct {
	To  int
	Rel string
	Buf *relation.Run
	// Retain, when non-empty, asks the receiving worker process to keep
	// the run under this key beyond the session (see dist.Residency).
	Retain string
}

// minShard is the smallest per-goroutine shard worth spawning; below
// it, partitioning runs inline.
const minShard = 2048

// Partition is PartitionRun over tuples sealed into one run
// (relation.RunOf: sorted, every occurrence kept), so part sees them in
// that order. Every product scatter partitions a run; this adapter is
// pinned by bench/probes.go.
func Partition(rel string, tuples []relation.Tuple, arity, p int, part Partitioner) ([]Delivery, error) {
	return PartitionRun(rel, relation.RunOf(arity, tuples), p, part)
}

// perDestination asks part, when it has the optional method, how many
// of rows tuples one destination should expect, so a shard reserves each
// buffer once instead of growing it from empty.
func perDestination(part Partitioner, rows int) int {
	if s, ok := part.(interface{ PerDestination(rows int) int }); ok {
		return s.PerDestination(rows)
	}
	return 0
}

// PartitionRun routes the rows of a sealed run through part into
// per-destination runs, one sender goroutine per source shard, and
// returns them sealed in deterministic (destination-major, shard-minor)
// order; it errors on any out-of-range destination. Each row is routed
// through a reused scratch tuple and appended as the source holds it
// (Run.AppendRow), with no []Tuple and no re-pack; from a sorted source
// every shard's runs are in order, so sealing them is a linear check. A
// nil run partitions into nothing.
func PartitionRun(rel string, run *relation.Run, p int, part Partitioner) ([]Delivery, error) {
	if p < 1 {
		return nil, fmt.Errorf("exchange: partition %s: %d workers", rel, p)
	}
	n := run.Len()
	shards := max(min(n/minShard, runtime.GOMAXPROCS(0)), 1)
	per := make([][]*relation.Run, shards) // shard → destination → run
	errs := make([]error, shards)
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, min((s+1)*chunk, n)
		if lo >= hi {
			continue
		}
		shard := func(s, lo, hi int) {
			bufs := make([]*relation.Run, p)
			row, reserve := make(relation.Tuple, run.Arity()), perDestination(part, hi-lo)
			var dsts []int
			for i := lo; i < hi; i++ {
				dsts = part.Route(i, run.Row(i, row), dsts[:0])
				for _, d := range dsts {
					if d < 0 || d >= p {
						errs[s] = fmt.Errorf("exchange: partition %s: destination %d out of range [0,%d)", rel, d, p)
						return
					}
					if bufs[d] == nil {
						bufs[d] = relation.NewRun(run.Arity())
						bufs[d].Grow(reserve)
					}
					bufs[d].AppendRow(run, i)
				}
			}
			for _, b := range bufs {
				if b != nil {
					b.Seal() // a parallel sort, inside the shard's goroutine
				}
			}
			per[s] = bufs
		}
		if shards == 1 {
			shard(s, lo, hi) // one shard is routed where it is asked for
			break
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			shard(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []Delivery
	for d := 0; d < p; d++ {
		for s := 0; s < shards; s++ {
			if per[s] != nil && per[s][d] != nil && per[s][d].Len() > 0 {
				out = append(out, Delivery{To: d, Rel: rel, Buf: per[s][d]})
			}
		}
	}
	return out, nil
}
