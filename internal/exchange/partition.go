package exchange

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/relation"
)

// Partitioner decides, tuple by tuple, which workers receive a tuple.
// Implementations must be safe for concurrent use: Partition invokes
// Route from one goroutine per source shard.
type Partitioner interface {
	// Route appends the destination worker ids of t — the i-th tuple of
	// the source relation — to buf and returns the extended slice.
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
	z := uint64(v) + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(p))
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

// Partition routes tuples through part into per-destination columnar
// buffers, one sender goroutine per source shard, and returns the
// sealed runs in deterministic (destination-major, shard-minor) order.
// It errors on any out-of-range destination.
func Partition(rel string, tuples []relation.Tuple, arity, p int, part Partitioner) ([]Delivery, error) {
	return partitionShards(rel, len(tuples), p, func(lo, hi int, bufs []*relation.Run) error {
		var dsts []int
		reserve := perDestination(part, hi-lo)
		for i := lo; i < hi; i++ {
			t := tuples[i]
			dsts = part.Route(i, t, dsts[:0])
			for _, d := range dsts {
				if d < 0 || d >= p {
					return badDestination(rel, d, p)
				}
				b := bufs[d]
				if b == nil {
					b = relation.NewRun(arity)
					b.Grow(reserve)
					bufs[d] = b
				}
				b.Append(t)
			}
		}
		return nil
	})
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

// PartitionRun is Partition over a sealed run instead of a tuple
// slice — the re-scatter of a gathered view that never became tuples.
// Each row is routed through a reused scratch tuple and appended as the
// source holds it (Run.AppendRow), so the deliveries are bit-identical to
// Partition over the run's materialized tuples without a []Tuple or a
// re-pack. A nil run partitions into nothing.
func PartitionRun(rel string, run *relation.Run, p int, part Partitioner) ([]Delivery, error) {
	return partitionShards(rel, run.Len(), p, func(lo, hi int, bufs []*relation.Run) error {
		var dsts []int
		row := make(relation.Tuple, run.Arity())
		reserve := perDestination(part, hi-lo)
		for i := lo; i < hi; i++ {
			t := run.Row(i, row)
			dsts = part.Route(i, t, dsts[:0])
			for _, d := range dsts {
				if d < 0 || d >= p {
					return badDestination(rel, d, p)
				}
				b := bufs[d]
				if b == nil {
					b = relation.NewRun(run.Arity())
					b.Grow(reserve)
					bufs[d] = b
				}
				b.AppendRow(run, i)
			}
		}
		return nil
	})
}

func badDestination(rel string, d, p int) error {
	return fmt.Errorf("exchange: partition %s: destination %d out of range [0,%d)", rel, d, p)
}

// partitionShards is the sender fan-out shared by Partition and
// PartitionRun: it splits n source rows into shards, has fill route
// rows [lo, hi) of each shard into that shard's per-destination
// buffers on its own goroutine, seals them there (a parallel sort), and
// collects the non-empty runs destination-major, shard-minor.
func partitionShards(rel string, n, p int, fill func(lo, hi int, bufs []*relation.Run) error) ([]Delivery, error) {
	if p < 1 {
		return nil, fmt.Errorf("exchange: partition %s: %d workers", rel, p)
	}
	shards := n / minShard
	if max := runtime.GOMAXPROCS(0); shards > max {
		shards = max
	}
	if shards < 1 {
		shards = 1
	}
	per := make([][]*relation.Run, shards) // shard → dest → buffer
	errs := make([]error, shards)
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			bufs := make([]*relation.Run, p)
			if errs[s] = fill(lo, hi, bufs); errs[s] != nil {
				return
			}
			for _, b := range bufs {
				if b != nil {
					b.Seal() // parallel sort inside the shard goroutine
				}
			}
			per[s] = bufs
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
			if per[s] == nil || per[s][d] == nil || per[s][d].Len() == 0 {
				continue
			}
			out = append(out, Delivery{To: d, Rel: rel, Buf: per[s][d]})
		}
	}
	return out, nil
}
